"""Acceptance gate: every checkable claim, one criterion per test, exact equality.

Each criterion runs the corresponding verification suite at its default
limits and demands a clean sweep; any counterexample fails the test and
is printed in full.

Criterion 3 is the exception.  Its suite, ``wilson``, checks the display
min(sizes[d], sizes[w]) for every degree and weight, and that display is
not the single-layer value: the closed form gives sizes[w] when w <= d,
so past the middle degree the display undershoots (smallest case: the
2x2 grid at degree 2, weight 1, value 2, display 1).  The suite stays
as stated and its verdict, a failure at that witness, is pinned here.
The criterion itself checks the law the closed form gives,
min(sizes[w], sizes[min(d, N // 2)]), which is sizes[min(d, w, N - w)]
since layer sizes are symmetric and unimodal, and complement duality,
against both the closed form and the rank oracle over the whole family.
Every criterion is expected to pass.
"""

import json
from time import perf_counter

from gridhilbert.grid import parse_grid
from gridhilbert.hilbert import hilbert_closed, hilbert_layer, hilbert_rank_oracle
from gridhilbert.verify import (
    SUITES,
    Limits,
    SuiteResult,
    verification_family,
    verify_suite,
)

_LIMITS = Limits()
_RESULTS = {}
# Seconds per criterion: its suite, plus criterion 3's law sweep.
_SECONDS = {}
# Suites whose documented verdict the gate pins instead of demanding a
# pass: the ``wilson`` min display fails at its 37th check.
_PINNED = {
    "wilson": SuiteResult(
        "wilson",
        False,
        37,
        {
            "grid": "2,2",
            "degree": 2,
            "weight": 1,
            "law": "single-layer",
            "hilbert": "2",
            "display": "1",
        },
    ),
}
# For each pinned suite, the law its criterion checks instead:
# suite name -> (instances where the law holds, instances checked).
_LAW_RESULTS = {}

CRITERIA = (
    (1, "grid-hilbert", "closed-form Hilbert function equals the rank oracle"),
    (2, "cube", "binomial cube specialization equals the general form"),
    (3, "wilson", "single-layer value is sizes[min(d, w, N - w)] and self-dual"),
    (4, "up-rank", "one-block evaluation rank is the smaller layer size"),
    (5, "factorization", "scaled evaluation blocks factor through cover chains"),
    (6, "tail-collapse", "deep tail layers collapse to their lowest member"),
    (7, "interval-rank", "interval block rank sums the paired layer minima"),
    (8, "zstar-lbar", "both closure routes agree on flat-middle grids"),
    (9, "closure-laws", "the closure operator satisfies its order laws"),
    (10, "shattering", "shattering recursion matches the footprint scan"),
    (11, "layers", "layer downsets restrict and nest consistently"),
    (12, "digression", "one extra layer can strictly raise low-degree counts"),
)


def _result(name):
    if name not in _RESULTS:
        start = perf_counter()
        _RESULTS[name] = verify_suite(name, _LIMITS)
        _SECONDS[name] = perf_counter() - start
    return _RESULTS[name]


def verdict(name):
    """Scoreboard verdict of one criterion's suite, or None if it has not run."""
    result = _RESULTS.get(name)
    if result is None:
        return None
    text = f"{'PASS' if result.passed else 'FAIL'} ({result.checked} checks)"
    if name not in _PINNED:
        return text
    pin = "as pinned" if result == _PINNED[name] else "NOT as pinned"
    if name not in _LAW_RESULTS:
        return f"suite {text} {pin}; law NOT RUN"
    held, checked = _LAW_RESULTS[name]
    law = "PASS" if held == checked else "FAIL"
    return f"suite {text} {pin}; law {law} ({held} of {checked} instances)"


def _fail(line, counterexample):
    witness = json.dumps(counterexample)
    print(f"counterexample: {witness}")
    raise AssertionError(f"{line} counterexample={witness}")


def _criterion(number, name, claim):
    result = _result(name)
    line = f"criterion {number:2d} [{name}] {claim}: {verdict(name)}"
    print(line)
    if not result.passed:
        _fail(line, result.counterexample)


def _single_layer_failures(limits):
    """Sweep the single-layer law and its duality over the family.

    For each grid, degree d and weight w, both the closed form and the
    rank oracle must equal min(sizes[w], sizes[min(d, N // 2)]) and their
    own value at the complement weight N - w.  Returns the number of
    instances and the failing ones in sweep order.
    """
    checked = 0
    failures = []
    for grid in verification_family(limits.max_points, limits.max_cube):
        N = grid.max_weight
        sizes = grid.layer_sizes
        for d in range(N + 1):
            routes = {
                "closed": [hilbert_closed(grid, d, (w,)) for w in range(N + 1)],
                "oracle": [hilbert_rank_oracle(grid, d, (w,)) for w in range(N + 1)],
            }
            for w in range(N + 1):
                checked += 1
                law = min(sizes[w], sizes[min(d, N // 2)])
                broken = [
                    (rule, route, values[w], want)
                    for route, values in routes.items()
                    for rule, want in (
                        ("single-layer", law),
                        ("duality", values[N - w]),
                    )
                    if values[w] != want
                ]
                if broken:
                    rule, route, value, want = broken[0]
                    failures.append(
                        {
                            "grid": grid.spec(),
                            "degree": d,
                            "weight": w,
                            "law": rule,
                            "route": route,
                            "value": str(value),
                            "expected": str(want),
                        }
                    )
    return checked, failures


def test_criterion_01_closed_form_equals_rank_oracle():
    _criterion(*CRITERIA[0])


def test_criterion_02_cube_specialization():
    _criterion(*CRITERIA[1])


def test_criterion_03_single_layer_display_and_duality():
    number, name, claim = CRITERIA[2]
    result = _result(name)
    start = perf_counter()
    checked, failures = _single_layer_failures(_LIMITS)
    _SECONDS[name] += perf_counter() - start
    _LAW_RESULTS[name] = (checked - len(failures), checked)
    line = f"criterion {number:2d} [{name}] {claim}: {verdict(name)}"
    print(line)
    if failures:
        _fail(line, failures[0])
    pinned = _PINNED[name]
    if result != pinned:
        _fail(f"{line}; pinned {pinned}", result.counterexample)
    witness = pinned.counterexample
    grid = parse_grid(witness["grid"])
    d, w = witness["degree"], witness["weight"]
    assert hilbert_rank_oracle(grid, d, (w,)) == int(witness["hilbert"])
    assert hilbert_layer(grid, d, w) == int(witness["display"])


def test_criterion_04_single_block_rank():
    _criterion(*CRITERIA[3])


def test_criterion_05_factorization_through_cover_chains():
    _criterion(*CRITERIA[4])


def test_criterion_06_tail_collapse():
    _criterion(*CRITERIA[5])


def test_criterion_07_interval_rank_formula():
    _criterion(*CRITERIA[6])


def test_criterion_08_closure_routes_agree():
    _criterion(*CRITERIA[7])


def test_criterion_09_closure_operator_laws():
    _criterion(*CRITERIA[8])


def test_criterion_10_shattering_matches_footprint():
    _criterion(*CRITERIA[9])


def test_criterion_11_layer_downsets_nest():
    _criterion(*CRITERIA[10])


def test_criterion_12_strict_growth_instance():
    _criterion(*CRITERIA[11])


def test_registry_covers_every_suite():
    assert [name for _, name, _ in CRITERIA] == list(SUITES)
