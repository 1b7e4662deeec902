"""Golden bytes and fault pins: what a refactor of the CLI or the suites must keep.

The CLI half pins, byte for byte, the stdout and exit status of every
example of README.md's "Command line" block, read from README.md, and of
every command's ``--json`` form, the sha256 of ``verify all --json
--max-points 12`` and of each ``--help`` text at 80 columns, and the
stderr line and exit status of each class of CLI error.  The integer
spellings the text grammar refuses are pinned in tests/test_cli.py.

The fault half breaks one route of each suite on purpose, by patching
one module attribute the suite looks up, so that a chosen instance
fails, and pins the whole SuiteResult the suite then returns: its
number of checks up to and including the failure, and the
counterexample dict key for key.  Between them the pins cover every
counterexample shape the suites can emit, and both halves of each
two-part law: shattering's equal answers and answer size, and
interval-rank's compatibility and rank.  The sampled branch of the
shattering suite (grids of 17 to 27 points) is pinned on its own: its
check generator runs on one 18-point grid at the default seed, with one
early draw broken, so the pin holds the draws up to the failure and the
payload without running the whole suite.

The call-count pins count the exact questions the rank suites ask on
the benchmark's sweep_rank limits: interval-rank ranks each distinct
block once per grid, and closure-laws asks hilbert_closed once per set
and once per distinct closure of each degree, with unchanged results.
"""

import collections
import hashlib
import shlex
from pathlib import Path

import pytest

from conftest import run_cli

from gridhilbert import UniformGrid, closure, hilbert, linalg, shattering, verify
from gridhilbert.verify import Limits, SuiteResult, verify_suite

# ---------------------------------------------------------------- CLI bytes

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_examples():
    """(argv, stdout) of each example of README.md's "Command line" block
    but the last, `verify all` at the default limits, which the acceptance
    gate runs.  An example is a `$ gridhilbert` line and the output lines
    up to the next blank line."""
    block = README.read_text().split("## Command line\n", 1)[1].split("```\n")[1]
    examples = []
    for example in block.split("\n\n")[:-1]:
        command, *lines = example.splitlines()
        argv = shlex.split(command.removeprefix("$ gridhilbert "))
        examples.append((argv, "".join(f"{line}\n" for line in lines)))
    return examples


README_EXAMPLES = _readme_examples()

# argv, exit status, stdout of every command's --json form, then of text
# forms the README does not show.  The point lists repeat a point, which
# the payload's "points" lists once.
JSON_OUTPUTS = [
    (
        ["layer-sizes", "--grid", "2,3,4", "--json"],
        0,
        '{"grid": "2,3,4", "sizes": ["1", "3", "5", "6", "5", "3", "1"]}\n',
    ),
    (
        ["hilbert", "--grid", "3,3", "--degree", "1", "--set", "2", "--json"],
        0,
        '{"grid": "3,3", "degree": 1, "set": [2], "closed": "2", "oracle": "2"}\n',
    ),
    (
        ["hilbert", "--grid", "3,3", "--degree", "1", "--set", "2"]
        + ["--dump-matrix", "--json"],
        0,
        '{"grid": "3,3", "degree": 1, "set": [2], "closed": "2", "oracle": "2", '
        '"matrix": [["1", "1", "1"], ["2", "1", "0"], ["0", "1", "2"]]}\n',
    ),
    (
        ["be-enum", "--grid", "3,3", "--degree", "1", "--set", "1,3", "--json"],
        0,
        '{"grid": "3,3", "degree": 1, "set": [1, 3], "t_desc": [0], "w_asc": [3], '
        '"kept": [1]}\n',
    ),
    (
        ["profile", "--grid", "3,3", "--degree", "1", "--set", "1,3", "--json"],
        0,
        '{"grid": "3,3", "degree": 1, "set": [1, 3], "profile": [[1, 1], [3, 0]], '
        '"value": "3"}\n',
    ),
    (
        ["closure", "--grid", "3,3", "--degree", "1", "--set", "1,3", "--json"],
        0,
        '{"grid": "3,3", "degree": 1, "input": [1, 3], "lbar": [0, 1, 2, 3, 4], '
        '"zstar": [0, 1, 2, 3, 4], "iterations": 2, "agree": true}\n',
    ),
    (
        ["closure", "--grid", "3", "--degree", "1", "--set", "0,2", "--json"],
        0,
        '{"grid": "3", "degree": 1, "input": [0, 2], "lbar": [0, 2], '
        '"zstar": [0, 1, 2], "iterations": 0, "agree": false}\n',
    ),
    (
        ["sm", "--grid", "3,3", "--set", "2", "--json"],
        0,
        '{"grid": "3,3", "points": [[0, 2], [1, 1], [2, 0]], '
        '"downset": [[0, 0], [0, 1], [0, 2]], "size": 3}\n',
    ),
    (
        ["sm", "--grid", "3,3", "--points", "1,1;0,0;2,2;0,0", "--json"],
        0,
        '{"grid": "3,3", "points": [[0, 0], [1, 1], [2, 2]], '
        '"downset": [[0, 0], [0, 1], [0, 2]], "size": 3}\n',
    ),
    (
        ["sm", "--grid", "3,3", "--points", "", "--json"],
        0,
        '{"grid": "3,3", "points": [], "downset": [], "size": 0}\n',
    ),
    (
        ["ordstr", "--grid", "3,3", "--set", "2", "--json"],
        0,
        '{"grid": "3,3", "points": [[0, 2], [1, 1], [2, 0]], '
        '"downset": [[0, 0], [0, 1], [0, 2]], "size": 3}\n',
    ),
    (
        ["ordstr", "--grid", "3,3", "--points", "1,1;0,0;2,2;0,0", "--json"],
        0,
        '{"grid": "3,3", "points": [[0, 0], [1, 1], [2, 2]], '
        '"downset": [[0, 0], [0, 1], [0, 2]], "size": 3}\n',
    ),
    (
        ["ordstr", "--grid", "3,3", "--points", "", "--json"],
        0,
        '{"grid": "3,3", "points": [], "downset": [], "size": 0}\n',
    ),
    (
        ["verify", "digression", "--json"],
        0,
        '{"suites": [{"name": "digression", "passed": true, "checked": 4, '
        '"counterexample": null}]}\n',
    ),
    (
        ["verify", "wilson", "--json"],
        2,
        '{"suites": [{"name": "wilson", "passed": false, "checked": 37, '
        '"counterexample": {"grid": "2,2", "degree": 2, "weight": 1, '
        '"law": "single-layer", "hilbert": "2", "display": "1"}}]}\n',
    ),
    (
        ["hilbert", "--grid", "3,3", "--degree", "2", "--set", "0,4", "--json"],
        0,
        '{"grid": "3,3", "degree": 2, "set": [0, 4], "closed": "2", "oracle": "2"}\n',
    ),
    # An empty result prints nothing, a disagreement of the closure routes
    # prints agree=no, and a failing suite prints its counterexample as
    # JSON and exits 2.
    (["sm", "--grid", "3,3", "--points", ""], 0, ""),
    (
        ["closure", "--grid", "3", "--degree", "1", "--set", "0,2"],
        0,
        "input=0,2\nlbar=0,2\nzstar=0,1,2\niterations=0\nagree=no\n",
    ),
    (
        ["closure", "--grid", "2,3,4", "--degree", "2", "--set", "0,3"],
        0,
        "input=0,3\nlbar=0,3\nzstar=0,3\niterations=0\nagree=yes\n",
    ),
    (["sm", "--grid", "2,2", "--set", "1"], 0, "0,0\n0,1\n"),
    (["ordstr", "--grid", "2,2", "--points", "0,0;0,1;1,0"], 0, "0,0\n0,1\n1,0\n"),
    (
        ["verify", "wilson"],
        2,
        "suite wilson: FAIL (37 checks)\n"
        '{"grid": "2,2", "degree": 2, "weight": 1, "law": "single-layer", '
        '"hilbert": "2", "display": "1"}\n'
        "1 of 1 suites failed\n",
    ),
    (["verify", "up-rank", "--max-points", "12"], 0, "suite up-rank: ok (46 checks)\n"),
]

# sha256 of the stdout of `gridhilbert [command] --help` at COLUMNS=80.
HELP_SHA256 = {
    "": "d493d363b9387af49a27606ad6c77b4ed2f6b87d5f3cddf9e5cee1d6c5ae194c",
    "hilbert": "9c3152b42454f1d8ccbdee3c72c28c4741765c347670f52b90229c9868595bf9",
    "layer-sizes": "8e2fb9be3a5d18b4e0135e7995f099a0d2ef6585b1755e475e8f36b40d31c4bd",
    "be-enum": "68c0333500c3f1576a4b4905fd42d21ca6be429121a2a275b4c5429b2f0b6da0",
    "profile": "7ea8d3d535dd4ac3c8b18e0213a06e0cb5067fb6d4485d75edccfba4188d7e5a",
    "closure": "dc6440e0113d79c8648c25a867f317a1fe795da3045bd0d0144d9aba282efcab",
    "sm": "5ad0cd2d626e9da081c9397ef51915e155fc48213237a14e8167442a7f128574",
    "ordstr": "e4e42ead83e679fd602010e11e8bab389e0930be6c2da01a1cf9351c5fe1a51d",
    "verify": "f0d3a3a88f38001ea4158afdb27b92013b1dface68d4d6b7f6960184f6649dae",
}

VERIFY_ALL_JSON_12 = "9eb198ec1d46113fc9f9433e04b223cefc59bca8e3bac2ae8462b2394e5f85e0"

# argv, exit status, stderr line.  A GridError is the whole of stderr;
# argparse prints its usage first, so only its last line is pinned.
CLI_ERRORS = [
    (
        ["hilbert", "--grid", "3,x", "--degree", "1", "--set", "2"],
        1,
        "ParseError: bad grid spec '3,x': expected comma-separated integers",
    ),
    (
        ["layer-sizes", "--grid", "3,x"],
        1,
        "ParseError: bad grid spec '3,x': expected comma-separated integers",
    ),
    (
        ["hilbert", "--grid", "3,3", "--degree", "1", "--set", "2,9"],
        1,
        "WeightOutOfRange: weight 9 outside [0, 4]",
    ),
    (
        ["hilbert", "--grid", "3,3", "--degree", "7", "--set", "2"],
        1,
        "DegreeOutOfRange: degree 7 outside [0, 4]",
    ),
    (
        ["closure", "--grid", "3,3", "--degree", "5", "--set", "1"],
        1,
        "DegreeOutOfRange: degree 5 outside [0, 4]",
    ),
    (
        ["profile", "--grid", "3,3", "--degree", "9", "--set", "0-4"],
        1,
        "DegreeOutOfRange: degree 9 outside [0, 4]",
    ),
    (
        ["profile", "--grid", "3,3", "--degree", "2", "--set", "1,3"],
        1,
        "SetTooSmall: need 3 or more weights, got 2",
    ),
    (
        ["profile", "--grid", "3,3", "--degree", "0", "--set", ""],
        1,
        "SetTooSmall: need 1 or more weights, got 0",
    ),
    (
        ["ordstr", "--grid", "2,2", "--points", "0,0;9,9"],
        1,
        "PointNotInGrid: (9, 9) is not a point of the grid 2,2",
    ),
    (
        ["verify", "nosuch"],
        1,
        "UnknownSuite: unknown suite 'nosuch'; choose from: grid-hilbert, cube, "
        "wilson, up-rank, factorization, tail-collapse, interval-rank, "
        "zstar-lbar, closure-laws, shattering, layers, digression, all",
    ),
    (
        ["sm", "--grid", "2,2"],
        1,
        "ParseError: provide exactly one of --set and --points",
    ),
    (
        ["ordstr", "--grid", "2,2", "--set", "1", "--points", "0,0"],
        1,
        "ParseError: provide exactly one of --set and --points",
    ),
    (
        ["hilbert", "--grid", "3,3"],
        1,
        "gridhilbert hilbert: error: the following arguments are required: "
        "--degree, --set",
    ),
    (
        ["hilbert", "--grid", "3,11", "--degree", "1_0", "--set", "2"],
        1,
        "gridhilbert hilbert: error: argument --degree: invalid _decimal value: '1_0'",
    ),
    (
        ["hilbert", "--grid", "3,3", "--degree", "x", "--set", "2"],
        1,
        "gridhilbert hilbert: error: argument --degree: invalid _decimal value: 'x'",
    ),
]


@pytest.mark.parametrize(
    "argv,out", README_EXAMPLES, ids=[" ".join(e[0]) for e in README_EXAMPLES]
)
def test_readme_example_bytes(capsys, argv, out):
    assert run_cli(capsys, argv) == (0, out, "")


@pytest.mark.parametrize(
    "argv,code,out", JSON_OUTPUTS, ids=[" ".join(e[0]) for e in JSON_OUTPUTS]
)
def test_json_and_text_bytes(capsys, argv, code, out):
    assert run_cli(capsys, argv) == (code, out, "")


@pytest.mark.parametrize("command", HELP_SHA256)
def test_help_digest(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, [command, "--help"] if command else ["--help"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[command]


def test_verify_all_json_digest(capsys):
    code, out, err = run_cli(capsys, ["verify", "all", "--json", "--max-points", "12"])
    assert (code, err) == (2, "")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_JSON_12


@pytest.mark.parametrize(
    "argv,code,line", CLI_ERRORS, ids=[" ".join(e[0]) for e in CLI_ERRORS]
)
def test_cli_error_line(capsys, argv, code, line):
    got, out, err = run_cli(capsys, argv)
    if line.startswith("gridhilbert"):  # argparse's error, after its usage
        err = err.splitlines()[-1] + "\n"
    assert (got, out, err) == (code, "", line + "\n")


# ---------------------------------------------------------------- fault pins

_SMALL = Limits(max_points=8, max_cube=3)


def _bump(mp, owner, name, hit):
    """Patch owner.name to return one more wherever hit(*args) holds."""
    original = getattr(owner, name)
    mp.setattr(owner, name, lambda *args: original(*args) + hit(*args))


def _drop(mp, owner, name, hit, removed):
    """Patch owner.name, a set-valued route, to lose one member where hit(*args)."""
    original = getattr(owner, name)

    def patched(*args):
        result = original(*args)
        return type(result)(frozenset(result) - {removed}) if hit(*args) else result

    mp.setattr(owner, name, patched)


def _edit_sweep(mp, owner, name, at, mask, edit):
    """Patch owner.name, a sweep, to yield edit(answer) at one mask of the
    call whose grid spec and further arguments are at."""
    original = getattr(owner, name)

    def patched(grid, *args):
        for m, answer in enumerate(original(grid, *args)):
            yield edit(answer) if ((grid.spec(), *args), m) == (at, mask) else answer

    mp.setattr(owner, name, patched)


def _edit_closures(mp, spec, d, mask, edit):
    """Patch closure.zstar_sweep to yield edit(closure) at one grid, degree and mask."""
    _edit_sweep(mp, closure, "zstar_sweep", (spec, d), mask, edit)


def _at(spec, *want):
    """A hit predicate: the grid's spec, then the remaining arguments as tuples."""

    def hit(grid, *args):
        got = tuple(tuple(a) if isinstance(a, (tuple, list)) else a for a in args)
        return (grid.spec(), *got) == (spec, *want)

    return hit


def _wilson_duality(mp):
    _bump(mp, hilbert, "hilbert_closed", _at("2,3", 1, (1,)))
    mp.setattr(
        hilbert, "hilbert_layer", lambda g, d, w: hilbert.hilbert_closed(g, d, (w,))
    )


def _rank_short(mp):
    original = linalg.rank

    def patched(matrix):
        result = original(matrix)
        if matrix.row_labels != ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
            return result
        return result._replace(rank=result.rank - 1)

    mp.setattr(linalg, "rank", patched)


def _factorials_doubled(mp):
    original = linalg.factorial_diag
    hit = _at("2,4", (3,))
    mp.setattr(
        linalg,
        "factorial_diag",
        lambda g, ws: original(g, ws).scale(2) if hit(g, ws) else original(g, ws),
    )


def _interval_incompatible(mp):
    original = hilbert.is_interval_compatible

    def patched(c, d, values):
        return (c, d, tuple(values)) != (1, 3, (1, 4, 3)) and original(c, d, values)

    mp.setattr(hilbert, "is_interval_compatible", patched)


def _two_sided_block(mp):
    original = closure.t_set

    def patched(N, i):
        return frozenset({0, 1}) if (N, i) == (3, 1) else original(N, i)

    mp.setattr(closure, "t_set", patched)


def _digression_flat(mp):
    original = hilbert.hilbert_closed
    mp.setattr(
        hilbert,
        "hilbert_closed",
        lambda g, d, E: original(g, d, (2,) if tuple(E) == (3, 2) else E),
    )


def _both_sweeps_lose_the_empty_multiset(mp):
    # The two answers still agree, but with one point fewer than the set.
    for name in ("shattering_sweep", "footprint_sweep"):
        _edit_sweep(mp, shattering, name, ("2,3",), 45, lambda answer: answer & ~1)


def _layer_weights(*weights):
    return lambda grid, A: grid.spec() == "2,4" and {sum(p) for p in A} == set(weights)


# id -> (suite, fault installer); PINS holds the result under each fault.
FAULTS = {
    "grid-hilbert": (
        "grid-hilbert",
        lambda mp: _bump(mp, hilbert, "hilbert_closed", _at("2,3", 1, (1, 2))),
    ),
    "cube": (
        "cube",
        lambda mp: _bump(
            mp,
            hilbert,
            "hilbert_cube_closed",
            lambda n, d, E: (n, d, tuple(E)) == (3, 1, (0, 2)),
        ),
    ),
    "wilson-single-layer": ("wilson", lambda mp: None),
    "wilson-duality": ("wilson", _wilson_duality),
    "up-rank": ("up-rank", _rank_short),
    "factorization-chain": ("factorization", _factorials_doubled),
    # An exponent and a point of one weight meet only in the cover sums:
    # the chain's evaluation blocks pair weight d with a larger weight w.
    "factorization-cover-sum": (
        "factorization",
        lambda mp: _bump(
            mp,
            linalg,
            "falling_factorial_value",
            lambda a, x: tuple(a) == tuple(x) == (1, 1, 0),
        ),
    ),
    "tail-collapse": (
        "tail-collapse",
        lambda mp: _bump(mp, hilbert, "rank_block", _at("2,4", (2,), (3, 4))),
    ),
    "interval-rank": ("interval-rank", _interval_incompatible),
    "interval-rank-min-sum": (
        "interval-rank",
        lambda mp: _bump(mp, hilbert, "rank_block", _at("2", (0,), (1,))),
    ),
    "zstar-lbar": (
        "zstar-lbar",
        lambda mp: _drop(
            mp, closure, "l_bar", lambda N, d, E: (N, d, tuple(E)) == (3, 1, (0, 1)), 1
        ),
    ),
    "closure-extensive": (
        "closure-laws",
        lambda mp: _edit_closures(mp, "2,3", 0, 1, lambda cl: cl - {0}),
    ),
    "closure-hilbert-invariance": (
        "closure-laws",
        lambda mp: _bump(
            mp,
            hilbert,
            "hilbert_closed",
            lambda g, d, E: (g.spec(), d, set(E)) == ("2,3", 1, {0, 1, 2, 3}),
        ),
    ),
    "closure-idempotent": (
        "closure-laws",
        lambda mp: _edit_closures(mp, "2,3", 0, 1, lambda cl: cl - {1}),
    ),
    "closure-builder": (
        "closure-laws",
        lambda mp: _edit_closures(mp, "2,3", 0, 7, lambda cl: cl - {3}),
    ),
    "closure-degree-antitone": (
        "closure-laws",
        lambda mp: _edit_closures(mp, "2,3", 0, 11, lambda cl: cl - {2}),
    ),
    "closure-monotone": (
        "closure-laws",
        lambda mp: _edit_closures(mp, "2,3", 1, 11, lambda cl: cl - {2}),
    ),
    "closure-two-sided-interval": ("closure-laws", _two_sided_block),
    "shattering": (
        "shattering",
        # Bit 0 of an answer is the empty multiset, (0, 0).
        lambda mp: _edit_sweep(
            mp, shattering, "shattering_sweep", ("2,3",), 45, lambda sh: sh & ~1
        ),
    ),
    "shattering-size": ("shattering", _both_sweeps_lose_the_empty_multiset),
    "layers-restriction": (
        "layers",
        lambda mp: _drop(mp, shattering, "ord_str", _layer_weights(2), (0, 1)),
    ),
    "layers-nesting": (
        "layers",
        lambda mp: _drop(mp, shattering, "standard_monomials", _layer_weights(2), (0, 1)),
    ),
    "digression": ("digression", _digression_flat),
}


PINS = {
    "grid-hilbert": SuiteResult(
        "grid-hilbert",
        False,
        143,
        {
            "grid": "2,3",
            "degree": 1,
            "set": [1, 2],
            "closed": "4",
            "oracle": "3",
        },
    ),
    "cube": SuiteResult(
        "cube",
        False,
        54,
        {
            "cube": 3,
            "degree": 1,
            "set": [0, 2],
            "binomial": "5",
            "general": "4",
        },
    ),
    "wilson-single-layer": SuiteResult(
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
    "wilson-duality": SuiteResult(
        "wilson",
        False,
        44,
        {
            "grid": "2,3",
            "degree": 1,
            "weight": 1,
            "law": "duality",
            "hilbert": "3",
            "complement": "2",
        },
    ),
    "up-rank": SuiteResult(
        "up-rank",
        False,
        17,
        {
            "grid": "2,2,2",
            "degree": 1,
            "rank": "2",
            "expected": "3",
        },
    ),
    "factorization-chain": SuiteResult(
        "factorization",
        False,
        50,
        {
            "grid": "2,4",
            "degree": 0,
            "weight": 3,
            "law": "chain",
        },
    ),
    "factorization-cover-sum": SuiteResult(
        "factorization",
        False,
        101,
        {
            "grid": "2,2,2",
            "function": [0, 1, 0],
            "point": [1, 1, 0],
            "weight": 2,
            "law": "cover-sum",
            "lhs": "1",
            "rhs": "2",
        },
    ),
    "tail-collapse": SuiteResult(
        "tail-collapse",
        False,
        8,
        {
            "grid": "2,4",
            "degree": 2,
            "set": [3, 4],
            "rank": "3",
            "collapsed": "2",
        },
    ),
    "interval-rank": SuiteResult(
        "interval-rank",
        False,
        1066,
        {
            "grid": "2,4",
            "interval": [1, 3],
            "assignment": [[1, 1], [2, 4], [3, 3]],
            "compatible": False,
            "rank": "5",
            "expected": "5",
        },
    ),
    "interval-rank-min-sum": SuiteResult(
        "interval-rank",
        False,
        3,
        {
            "grid": "2",
            "interval": [0, 0],
            "assignment": [[0, 1]],
            "compatible": True,
            "rank": "2",
            "expected": "1",
        },
    ),
    "zstar-lbar": SuiteResult(
        "zstar-lbar",
        False,
        52,
        {
            "grid": "2,3",
            "degree": 1,
            "set": [0, 1],
            "zstar": [0, 1, 2, 3],
            "lbar": [0, 2, 3],
        },
    ),
    "closure-extensive": SuiteResult(
        "closure-laws",
        False,
        798,
        {
            "grid": "2,3",
            "degree": 0,
            "set": [0],
            "law": "extensive",
            "closure": [1, 2, 3],
        },
    ),
    "closure-hilbert-invariance": SuiteResult(
        "closure-laws",
        False,
        936,
        {
            "grid": "2,3",
            "degree": 1,
            "set": [0, 1],
            "law": "hilbert-invariance",
            "hilbert": "3",
            "closed_hilbert": "4",
        },
    ),
    "closure-idempotent": SuiteResult(
        "closure-laws",
        False,
        800,
        {
            "grid": "2,3",
            "degree": 0,
            "set": [0],
            "law": "idempotent",
            "closure": [0, 2, 3],
        },
    ),
    "closure-builder": SuiteResult(
        "closure-laws",
        False,
        831,
        {
            "grid": "2,3",
            "degree": 0,
            "set": [0, 1, 2],
            "law": "closure-builder",
            "closure": [0, 1, 2],
        },
    ),
    "closure-degree-antitone": SuiteResult(
        "closure-laws",
        False,
        852,
        {
            "grid": "2,3",
            "degree": 0,
            "set": [0, 1, 3],
            "law": "degree-antitone",
        },
    ),
    "closure-monotone": SuiteResult(
        "closure-laws",
        False,
        1014,
        {
            "grid": "2,3",
            "degree": 1,
            "set": [1, 3],
            "law": "monotone",
            "superset": [0, 1, 3],
        },
    ),
    "closure-two-sided-interval": SuiteResult(
        "closure-laws",
        False,
        1271,
        {
            "grid": "2,3",
            "degree": 1,
            "set": [0, 1],
            "law": "two-sided-interval",
            "closure": [0, 1, 2, 3],
            "expected": [0, 1],
        },
    ),
    "shattering": SuiteResult(
        "shattering",
        False,
        90,
        {
            "grid": "2,3",
            "points": [[0, 0], [0, 2], [1, 0], [1, 2]],
            "ordstr": [[0, 1], [1, 0], [1, 1]],
            "sm": [[0, 0], [0, 1], [1, 0], [1, 1]],
        },
    ),
    "shattering-size": SuiteResult(
        "shattering",
        False,
        90,
        {
            "grid": "2,3",
            "points": [[0, 0], [0, 2], [1, 0], [1, 2]],
            "ordstr": [[0, 1], [1, 0], [1, 1]],
            "sm": [[0, 1], [1, 0], [1, 1]],
        },
    ),
    "layers-restriction": SuiteResult(
        "layers",
        False,
        35,
        {
            "grid": "2,4",
            "low": 1,
            "high": 2,
            "law": "restriction",
            "low_layer": [[0, 0], [0, 1]],
            "high_restricted": [[0, 0]],
        },
    ),
    "layers-nesting": SuiteResult(
        "layers",
        False,
        36,
        {
            "grid": "2,4",
            "low": 1,
            "high": 2,
            "law": "nesting",
            "low_layer": [[0, 0], [0, 1]],
            "high_layer": [[0, 0]],
        },
    ),
    "digression": SuiteResult(
        "digression",
        False,
        3,
        {
            "grid": "3,3",
            "degree": 1,
            "added": 3,
            "pair": "2",
            "single": "2",
        },
    ),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_pin(monkeypatch, fault):
    suite, install = FAULTS[fault]
    install(monkeypatch)
    assert verify_suite(suite, _SMALL) == PINS[fault]


def test_a_patched_closure_sweep_leaves_no_state_behind(monkeypatch):
    """The suites keep no closure tables between runs: once the fault is
    undone, the next run sees the true closures."""
    suite, install = FAULTS["closure-extensive"]
    install(monkeypatch)
    assert verify_suite(suite, _SMALL) == PINS["closure-extensive"]
    monkeypatch.undo()
    assert verify_suite(suite, _SMALL) == SuiteResult(suite, True, 3357)


# The first drawn set of four points on 2,3,3 at seed 1729 is the suite's
# fourth check there; ord_str loses the empty multiset on it.
SAMPLED_SHATTERING_PIN = (
    3,
    {
        "grid": "2,3,3",
        "points": [[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 0]],
        "ordstr": [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
        "sm": [[0, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0]],
    },
)


def test_sampled_shattering_fault_pin(monkeypatch):
    _drop(monkeypatch, shattering, "ord_str", lambda g, A: len(A) == 4, (0, 0, 0))
    items = verify._shattering(UniformGrid((2, 3, 3)), Limits())
    first = next((i, item) for i, item in enumerate(items) if item is not None)
    assert first == SAMPLED_SHATTERING_PIN


# The same draw with the empty multiset dropped from both routes: they
# agree with each other, so only the size half of the law fails.
SAMPLED_SHATTERING_SIZE_PIN = (
    3,
    {
        "grid": "2,3,3",
        "points": [[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 0]],
        "ordstr": [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
        "sm": [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
    },
)


def test_sampled_shattering_size_fault_pin(monkeypatch):
    for name in ("ord_str", "standard_monomials"):
        _drop(monkeypatch, shattering, name, lambda g, A: len(A) == 4, (0, 0, 0))
    items = verify._shattering(UniformGrid((2, 3, 3)), Limits())
    first = next((i, item) for i, item in enumerate(items) if item is not None)
    assert first == SAMPLED_SHATTERING_SIZE_PIN


# --------------------------------------------------------- call-count pins

# The sweep_rank workload's limits (bench/workloads.py).
_SWEEP_RANK = Limits(max_points=18, max_cube=5)


def _count_calls(mp, owner, name, key):
    """Patch owner.name to count its calls under key(*args)."""
    calls = collections.Counter()
    original = getattr(owner, name)

    def patched(*args):
        calls[key(*args)] += 1
        return original(*args)

    mp.setattr(owner, name, patched)
    return calls


def _drive(name, limits):
    """Run the suite's checks on each of its grids in this process, to the
    end.  verify_suite runs some grids in child processes, whose calls a
    spy in this process does not see."""
    grids, checks = verify.SUITES[name]
    for grid in grids(limits):
        for _ in checks(grid, limits):
            pass


def test_interval_rank_ranks_each_distinct_block_once(monkeypatch):
    result = verify_suite("interval-rank", _SWEEP_RANK)
    assert result == SuiteResult("interval-rank", True, 3000)
    calls = _count_calls(
        monkeypatch, hilbert, "rank_block",
        lambda grid, rows, cols: (grid.spec(), tuple(rows), tuple(cols)),
    )
    _drive("interval-rank", _SWEEP_RANK)
    assert calls and max(calls.values()) == 1


def test_closure_laws_ask_each_set_and_each_closure_once_per_degree(monkeypatch):
    """One hilbert_closed call per (grid, degree, set), for the set's own
    value, plus one per distinct (grid, degree, closure), for the value
    of the closure."""
    want = collections.Counter()
    for grid in verify.verification_family(_SWEEP_RANK.max_points, _SWEEP_RANK.max_cube):
        N = grid.max_weight
        for d in range(N + 1):
            closures = set(closure.zstar_sweep(grid, d))
            for mask in range(1 << (N + 1)):
                E = frozenset(j for j in range(N + 1) if mask >> j & 1)
                want[grid.spec(), d, E] = 1 + (E in closures)
    result = verify_suite("closure-laws", _SWEEP_RANK)
    assert result == SuiteResult("closure-laws", True, 46921)
    calls = _count_calls(
        monkeypatch, hilbert, "hilbert_closed",
        lambda grid, d, E: (grid.spec(), d, frozenset(E)),
    )
    _drive("closure-laws", _SWEEP_RANK)
    assert calls == want
