"""The integer spellings the CLI's input grammar refuses, and the line it prints.

Every integer of the grid spec, weight set, point list and integer flags
is plain decimal digits: not the other spellings int() reads, nor a
superscript digit, nor a string past int()'s limit of 4300 digits.  A
refusal exits 1 with an empty stdout; a ParseError is the whole of
stderr, and of argparse's error, printed after its usage, the last line
is pinned.  tests/test_golden.py pins the output bytes and domain errors.
The verify command's parser names the suites without importing verify,
and the command passes Limits only the flags that were given.
"""

import pytest

from conftest import run_cli
from gridhilbert import cli, verify
from gridhilbert.verify import Limits, SuiteResult

# A decimal string past int()'s limit of 4300 digits.
_LONG = "1" * 5000

# The ParseError message for a bad value of each text-grammar flag.
_BAD = {
    "--grid": "bad grid spec {!r}: expected comma-separated integers",
    "--set": "bad weight-set token {!r}",
    "--points": "bad point {0!r} in {0!r}",
}


def _assert_parse_error(capsys, argv):
    """argv, whose last value is bad, is refused with that value's one line."""
    flag, value = argv[-2:]
    line = f"ParseError: {_BAD[flag].format(value)}\n"
    assert run_cli(capsys, argv) == (1, "", line)


def _assert_usage_error(capsys, argv, line):
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err.splitlines()[-1]) == (1, "", line)


@pytest.mark.parametrize("coordinate", ["1_0", "+1", "-1"])
def test_points_take_only_decimal_digits(capsys, coordinate):
    _assert_parse_error(capsys, ("sm", "--grid", "3,11", "--points", f"0,{coordinate}"))


@pytest.mark.parametrize(
    "argv",
    [
        ("layer-sizes", "--grid", "3,\u00b2"),
        ("hilbert", "--grid", "3,3", "--degree", "1", "--set", "\u00b2"),
        ("hilbert", "--grid", "3,3", "--degree", "1", "--set", "0-\u00b2"),
    ],
)
def test_superscript_digits_are_parse_errors(capsys, argv):
    _assert_parse_error(capsys, argv)


@pytest.mark.parametrize(
    "argv",
    [
        ("layer-sizes", "--grid", f"3,{_LONG}"),
        ("hilbert", "--grid", "3,3", "--degree", "1", "--set", _LONG),
        ("sm", "--grid", "3,3", "--points", f"0,{_LONG}"),
    ],
)
def test_integers_past_the_int_digit_limit_are_parse_errors(capsys, argv):
    """int() refuses them with a plain ValueError; the grammar says ParseError."""
    _assert_parse_error(capsys, argv)


@pytest.mark.parametrize("flag", ["--max-points", "--seed"])
@pytest.mark.parametrize("value", ["1_0", "+1", " 1", "\u00b2"])
def test_verify_flags_take_only_decimal_digits(capsys, flag, value):
    """--degree, --max-points and --seed share the text grammar's integers."""
    _assert_usage_error(
        capsys,
        ["verify", "digression", flag, value],
        f"gridhilbert verify: error: argument {flag}: invalid _decimal value: {value!r}",
    )


def test_verify_names_the_suites_and_passes_only_the_flags_given(capsys, monkeypatch):
    """An absent flag takes its default from Limits()."""
    assert cli._SUITE_NAMES == tuple(verify.SUITES)
    calls = []

    def spy(name, limits):
        calls.append((name, limits))
        return SuiteResult(name, True, 0)

    monkeypatch.setattr(verify, "verify_suite", spy)
    ok = (0, "suite up-rank: ok (0 checks)\n", "")
    assert run_cli(capsys, ["verify", "up-rank"]) == ok
    flags = ["--max-points", "12", "--seed", "5"]
    assert run_cli(capsys, ["verify", "up-rank", *flags]) == ok
    assert calls == [("up-rank", Limits()), ("up-rank", Limits(max_points=12, seed=5))]


def test_huge_weight_range_fails_before_expansion(capsys):
    """The range is checked against the top weight before it is expanded."""
    argv = ["hilbert", "--grid", "3,3", "--degree", "1", "--set", "0-3000000"]
    assert run_cli(capsys, argv) == (1, "", "WeightOutOfRange: weight 5 outside [0, 4]\n")


def test_usage_errors_exit_one(capsys):
    _assert_usage_error(
        capsys,
        ["no-such-command"],
        "gridhilbert: error: argument command: invalid choice: 'no-such-command' "
        "(choose from 'hilbert', 'layer-sizes', 'be-enum', 'profile', 'closure', "
        "'sm', 'ordstr', 'verify')",
    )
    _assert_usage_error(
        capsys, [], "gridhilbert: error: the following arguments are required: command"
    )
