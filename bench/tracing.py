"""Per-layer timers installed from outside the package by patching attributes.

Each wrapped function records its calls, its wall time ``s`` and its
self time ``self_s`` (``s`` minus the time spent in wrapped functions it
called), read from the clock the tracer is given.  Some wrappers also
count work from their arguments and result.

Only attribute lookups see a patch.  ``closure`` and ``shattering``
import ``linalg._eliminate`` by name, so the eliminations inside
``zstar_closure`` and ``standard_monomials`` count in those functions'
own time, not under ``linalg.rank``; internal helpers such as
``shattering._shatters`` are not wrapped at all.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Calls, wall time and self time per traced function, plus work counts."""

    def __init__(self, now=perf_counter) -> None:
        self.now = now
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)
        self._child_time: list[float] = []

    def wrap(self, name, fn, count=None):
        stack = self._child_time
        now = self.now

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = now() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.calls[name] += 1
                self.seconds[name] += elapsed
                self.self_seconds[name] += elapsed - children
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer figure of one pass; layers never called read 0."""
        out = {}
        for name, _ in TRACED:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.seconds[name]
            out[f"{name}.self_s"] = self.self_seconds[name]
        c = self.counts
        out["linalg.eval_matrix.cells"] = c["eval_cells"]
        out["linalg.rank.cells"] = c["rank_cells"]
        out["linalg.rank.max_cols"] = c["rank_max_cols"]
        out["linalg.rank.pivot_ratio"] = _ratio(c["rank_sum"], c["rank_min_dim_sum"])
        out["shattering.ord_str.points"] = c["ord_str_points"]
        out["shattering.ord_str.shattered_ratio"] = _ratio(
            c["ord_str_shattered"], c["ord_str_grid_points"]
        )
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _count_eval_matrix(counts, args, matrix) -> None:
    counts["eval_cells"] += matrix.n_rows * matrix.n_cols


def _count_rank(counts, args, result) -> None:
    matrix = args[0]
    counts["rank_cells"] += matrix.n_rows * matrix.n_cols
    counts["rank_max_cols"] = max(counts["rank_max_cols"], matrix.n_cols)
    counts["rank_sum"] += result.rank
    counts["rank_min_dim_sum"] += min(matrix.n_rows, matrix.n_cols)


def _count_ord_str(counts, args, result) -> None:
    grid, points = args
    counts["ord_str_points"] += len(set(points))
    counts["ord_str_shattered"] += len(result)
    counts["ord_str_grid_points"] += grid.size


# Traced functions as "<module>.<attribute>", with an optional counter that
# reads the call's arguments and result.  The grid functions are methods
# of UniformGrid.
TRACED = (
    ("grid.unfold", None),
    ("grid.layer", None),
    ("linalg.eval_matrix", _count_eval_matrix),
    ("linalg.rank", _count_rank),
    ("hilbert.hilbert_rank_oracle", None),
    ("hilbert.rank_block", None),
    ("hilbert.hilbert_closed", None),
    ("closure.zstar_closure", None),
    ("closure.l_bar", None),
    ("closure.closure_report", None),
    ("shattering.ord_str", _count_ord_str),
    ("shattering.standard_monomials", None),
    ("cli.main", None),
)


def install(tracer: Tracer, package) -> None:
    """Replace every traced function of the imported package with a wrapper."""
    for name, count in TRACED:
        module, attr = name.split(".")
        owner = getattr(package, module)
        if module == "grid":
            owner = owner.UniformGrid
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))
