"""The two routes to each quantity stay independent, and one module steps
the exact kernel.

Each route runs under sys.setprofile, with every package cache cleared
first so cached helpers run their bodies too, and the test asserts
which functions of the package it never enters: the rank, closure and
footprint routes never reach the closed forms, the step operator or the
shattering recursion and its sweep, and the closed forms, the shattering
recursion and its sweep never reach the linear-algebra kernel.  Each
check also names one function the route must enter, so a profile that
saw nothing fails.  Only linalg reads Span's private steps and rows, and
only the runner imports the process modules os, marshal and threading.
"""

import ast
import sys
from pathlib import Path

from test_caches import _lru_caches

import gridhilbert
from gridhilbert import (
    UniformGrid,
    hilbert_closed,
    hilbert_cube_closed,
    hilbert_rank_oracle,
    l_bar,
    ord_str,
    rank_block,
    standard_monomials,
    z_closure_points,
    zstar_closure,
)
from gridhilbert.closure import zstar_sweep
from gridhilbert.hilbert import rank_oracle_sweep
from gridhilbert.shattering import footprint_sweep, shattering_sweep

_CLOSED_FORM_AND_RECURSION = {
    "be_enumeration",
    "hilbert_closed",
    "l_step",
    "l_bar",
    "_shatters",
    "shattering_sweep",
}
_LINALG = "gridhilbert.linalg"


def _entered(route, *args):
    """(module, function) of every package frame the route enters."""
    for _, cache in _lru_caches():
        cache.cache_clear()
    seen = set()

    def hook(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if event == "call" and module.startswith("gridhilbert"):
            seen.add((module, frame.f_code.co_name))

    sys.setprofile(hook)
    try:
        result = route(*args)
        if hasattr(result, "__next__"):
            list(result)
    finally:
        sys.setprofile(None)
    return seen


def _cases():
    grid = UniformGrid((3, 2, 2))
    points = [(0, 0, 1), (1, 1, 0), (2, 0, 0), (2, 1, 1)]
    return grid, [(1, (0, 3)), (2, (1, 2, 4)), (0, (4,))], points


def test_rank_closure_and_footprint_routes_avoid_closed_forms_and_recursion():
    grid, weight_cases, points = _cases()
    runs = [(standard_monomials, grid, points), (footprint_sweep, grid)]
    for d, E in weight_cases:
        runs += [
            (hilbert_rank_oracle, grid, d, E),
            (rank_oracle_sweep, grid, d),
            (rank_block, grid, range(d + 1), E),
            (z_closure_points, grid, d, points),
            (zstar_closure, grid, d, E),
            (zstar_sweep, grid, d),
        ]
    for route, *args in runs:
        entered = _entered(route, *args)
        assert entered & {(_LINALG, k) for k in ("add", "__contains__", "_reduce")}
        names = {name for _, name in entered}
        assert not names & _CLOSED_FORM_AND_RECURSION, (route.__name__, args)


def test_closed_forms_and_recursion_avoid_linalg():
    grid, weight_cases, points = _cases()
    runs = [
        (ord_str, grid, points, "_shatters"),
        (shattering_sweep, grid, "shattering_sweep"),
    ]
    for d, E in weight_cases:
        runs += [
            (hilbert_closed, grid, d, E, "be_enumeration"),
            (hilbert_cube_closed, 4, d, E, "be_enumeration"),
            (l_bar, grid.max_weight, d, E, "l_step"),
        ]
    for route, *args, required in runs:
        entered = _entered(route, *args)
        assert required in {name for _, name in entered}
        assert _LINALG not in {m for m, _ in entered}, (route.__name__, args)


def test_only_linalg_reads_the_kernel_steps_and_rows():
    private = {"_reduce", "_store", "_rows"}
    read = {}
    for path in Path(gridhilbert.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        read[path.name] = attrs & private
    assert read.pop("linalg.py") == private
    assert read and not any(read.values()), read


def test_only_the_runner_imports_os_marshal_or_threading():
    process = {"os", "marshal", "threading"}
    imported = {}
    for path in Path(gridhilbert.__file__).parent.glob("*.py"):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
        imported[path.name] = names & process
    assert imported.pop("runner.py") == process
    assert imported and not any(imported.values()), imported
