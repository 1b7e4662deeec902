import functools
import itertools
import math
import sys

from gridhilbert import verification_family
from gridhilbert.cli import main
from gridhilbert.verify import SUITES, Limits, SuiteResult

FAMILY = frozenset(grid.arities for grid in verification_family())
SMALL = Limits(max_points=8, max_cube=3)
# The sweep_rank workload's limits (bench/workloads.py).
SWEEP_RANK = Limits(max_points=18, max_cube=5)


@functools.cache
def off_family(max_points, max_arity, reorderings):
    """Every arity tuple with arities 2 to max_arity and at most max_points
    points that is not a grid of verification_family(), in (dimension, lex)
    order.  The family holds one sorted representative per multiset of
    arities; with reorderings False, every reordering of a family grid is
    dropped too.  Every arity is at least 2, so max_points bounds the
    dimension.  The tuple is built once per argument triple, since
    Hypothesis strategies call for it on every draw."""
    grids = []
    for dim in itertools.count(1):
        if 2**dim > max_points:
            return tuple(grids)
        for arities in itertools.product(range(2, max_arity + 1), repeat=dim):
            key = arities if reorderings else tuple(sorted(arities))
            if math.prod(arities) <= max_points and key not in FAMILY:
                grids.append(arities)


def mask_points(pts, mask):
    """The points pts[i] for the set bits i of mask, in the order of pts."""
    return [p for i, p in enumerate(pts) if mask >> i & 1]


def serial(name, limits):
    """The reference SuiteResult: the suite's checks run grid by grid in
    this process, stopping at the first counterexample, as the runner did
    before it split the grids across processes."""
    grids, checks = SUITES[name]
    checked = 0
    for grid in grids(limits):
        for counterexample in checks(grid, limits):
            checked += 1
            if counterexample is not None:
                return SuiteResult(name, False, checked, counterexample)
    return SuiteResult(name, True, checked)


def run_cli(capsys, argv):
    """Exit status, stdout and stderr of gridhilbert argv, run in process."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def pytest_terminal_summary(terminalreporter):
    """Print the acceptance scoreboard after the run: per criterion, its
    verdict and the seconds its checks took."""
    mod = sys.modules.get("test_acceptance")
    if mod is None or not getattr(mod, "_RESULTS", None):
        return
    write = terminalreporter.write_line
    write("")
    write("acceptance criteria")
    for number, name, claim in mod.CRITERIA:
        verdict = mod.verdict(name) or "NOT RUN"
        seconds = mod._SECONDS.get(name)
        timing = "" if seconds is None else f" in {seconds:.2f} s"
        write(f"  {number:2d} [{name}] {claim}: {verdict}{timing}")
