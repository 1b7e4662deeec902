"""Every function cache in the package has a size limit."""

import importlib
import inspect
import pkgutil

import gridhilbert


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
    assert {"_binomial_table", "_shatter_tables"} <= names
    unbounded = [name for name, fn in caches.items() if fn.cache_info().maxsize is None]
    assert unbounded == []

