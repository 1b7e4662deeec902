"""Every function cache in the package has a size limit."""

import importlib
import inspect
import pkgutil

import gridhilbert
from gridhilbert.verify import _zstar_table, verification_family


def _lru_caches():
    """(qualified name, cache) for each lru_cache on a module or one of its classes."""
    for info in pkgutil.iter_modules(gridhilbert.__path__):
        module = importlib.import_module(f"gridhilbert.{info.name}")
        owners = [module] + [
            cls for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__ == module.__name__
        ]
        for owner in owners:
            prefix = module.__name__
            if owner is not module:
                prefix += f".{owner.__qualname__}"
            for name, value in vars(owner).items():
                if callable(getattr(value, "cache_info", None)):
                    yield f"{prefix}.{name}", value


def test_every_lru_cache_is_bounded():
    caches = dict(_lru_caches())
    names = {name.rsplit(".", 1)[-1] for name in caches}
    assert {"eval_columns", "_shatter_tables", "_zstar_table"} <= names
    unbounded = [name for name, fn in caches.items() if fn.cache_info().maxsize is None]
    assert unbounded == []


def test_zstar_tables_of_a_default_pass_fit_without_eviction():
    """The zstar-lbar and closure-laws suites share one table per (grid, degree)."""
    pairs = sum(grid.max_weight + 1 for grid in verification_family())
    assert pairs == 108
    assert _zstar_table.cache_info().maxsize >= pairs
