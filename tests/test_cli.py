"""End-to-end command tests, driving main() in process and reading the streams."""

import json

import pytest

from gridhilbert.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_layer_sizes_text(capsys):
    code, out, err = _run(capsys, "layer-sizes", "--grid", "3,3")
    assert code == 0
    assert out == "1,2,3,2,1\n"
    assert err == ""


def test_layer_sizes_json(capsys):
    code, out, _ = _run(capsys, "layer-sizes", "--grid", "2,3,4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "grid": "2,3,4",
        "sizes": ["1", "3", "5", "6", "5", "3", "1"],
    }


def test_hilbert_text(capsys):
    code, out, _ = _run(capsys, "hilbert", "--grid", "3,3", "--degree", "1", "--set", "2")
    assert code == 0
    assert out == "closed=2, oracle=2\n"


def test_hilbert_json_round_trip(capsys):
    code, out, _ = _run(
        capsys, "hilbert", "--grid", "3,3", "--degree", "2", "--set", "0,4", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["grid"] == "3,3"
    assert payload["degree"] == 2
    assert payload["set"] == [0, 4]
    assert payload["closed"] == payload["oracle"] == "2"


def test_hilbert_dump_matrix(capsys):
    code, out, _ = _run(
        capsys,
        "hilbert", "--grid", "3,3", "--degree", "1", "--set", "2", "--dump-matrix",
    )
    assert code == 0
    assert out.splitlines() == ["closed=2, oracle=2", "1 1 1", "2 1 0", "0 1 2"]


def test_hilbert_dump_matrix_json(capsys):
    code, out, _ = _run(
        capsys,
        "hilbert", "--grid", "3,3", "--degree", "1", "--set", "2",
        "--dump-matrix", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"] == [["1", "1", "1"], ["2", "1", "0"], ["0", "1", "2"]]


def test_be_enum_text(capsys):
    code, out, _ = _run(capsys, "be-enum", "--grid", "3,3", "--degree", "1", "--set", "1,3")
    assert code == 0
    assert out.splitlines() == ["t_desc=0", "w_asc=3", "kept=1"]


def test_profile_text(capsys):
    code, out, _ = _run(capsys, "profile", "--grid", "3,3", "--degree", "1", "--set", "1,3")
    assert code == 0
    assert out.splitlines() == ["1,1", "3,0", "value=3"]


def test_profile_too_small_is_a_domain_error(capsys):
    code, out, err = _run(capsys, "profile", "--grid", "3,3", "--degree", "2", "--set", "1,3")
    assert code == 1
    assert out == ""
    assert "SetTooSmall" in err


def test_closure_text(capsys):
    code, out, _ = _run(capsys, "closure", "--grid", "3,3", "--degree", "1", "--set", "1,3")
    assert code == 0
    assert out.splitlines() == [
        "input=1,3",
        "lbar=0,1,2,3,4",
        "zstar=0,1,2,3,4",
        "iterations=2",
        "agree=yes",
    ]


def test_closure_disagreement_is_visible(capsys):
    code, out, _ = _run(capsys, "closure", "--grid", "3", "--degree", "1", "--set", "0,2")
    assert code == 0
    lines = out.splitlines()
    assert "lbar=0,2" in lines
    assert "zstar=0,1,2" in lines
    assert "agree=no" in lines


def test_closure_json(capsys):
    code, out, _ = _run(
        capsys, "closure", "--grid", "3,3", "--degree", "1", "--set", "1,3", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["input"] == [1, 3]
    assert payload["lbar"] == [0, 1, 2, 3, 4]
    assert payload["zstar"] == [0, 1, 2, 3, 4]
    assert payload["iterations"] == 2
    assert payload["agree"] is True


def test_sm_by_layers(capsys):
    code, out, _ = _run(capsys, "sm", "--grid", "2,2", "--set", "1")
    assert code == 0
    assert out.splitlines() == ["0,0", "0,1"]


def test_ordstr_by_points(capsys):
    code, out, _ = _run(capsys, "ordstr", "--grid", "2,2", "--points", "0,0;0,1;1,0")
    assert code == 0
    assert out.splitlines() == ["0,0", "0,1", "1,0"]


def test_sm_and_ordstr_agree_in_json(capsys):
    code, sm_out, _ = _run(
        capsys, "sm", "--grid", "3,3", "--points", "0,0;1,1;2,2", "--json"
    )
    assert code == 0
    code, ord_out, _ = _run(
        capsys, "ordstr", "--grid", "3,3", "--points", "0,0;1,1;2,2", "--json"
    )
    assert code == 0
    sm_payload = json.loads(sm_out)
    ord_payload = json.loads(ord_out)
    assert sm_payload["downset"] == ord_payload["downset"]
    assert sm_payload["size"] == 3
    assert sm_payload["points"] == [[0, 0], [1, 1], [2, 2]]


def test_downset_commands_need_exactly_one_input(capsys):
    code, _, err = _run(capsys, "sm", "--grid", "2,2")
    assert code == 1
    assert "ParseError" in err
    code, _, err = _run(capsys, "sm", "--grid", "2,2", "--set", "1", "--points", "0,0")
    assert code == 1
    assert "ParseError" in err


def test_bad_grid_and_bad_degree(capsys):
    code, _, err = _run(capsys, "layer-sizes", "--grid", "3,x")
    assert code == 1
    assert "ParseError" in err
    code, _, err = _run(capsys, "hilbert", "--grid", "3,3", "--degree", "9", "--set", "1")
    assert code == 1
    assert "DegreeOutOfRange" in err
    code, _, err = _run(capsys, "ordstr", "--grid", "2,2", "--points", "0,0;9,9")
    assert code == 1
    assert "PointNotInGrid" in err


@pytest.mark.parametrize("coordinate", ["1_0", "+1", "-1"])
def test_points_take_only_decimal_digits(capsys, coordinate):
    """The --points grammar is the grid and weight-set one: int() spellings
    such as an underscore or a sign are parse errors, not points."""
    code, out, err = _run(capsys, "sm", "--grid", "3,11", "--points", f"0,{coordinate}")
    assert code == 1
    assert out == ""
    assert err.startswith("ParseError: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("layer-sizes", "--grid", "3,\u00b2"),
        ("hilbert", "--grid", "3,3", "--degree", "1", "--set", "\u00b2"),
        ("hilbert", "--grid", "3,3", "--degree", "1", "--set", "0-\u00b2"),
    ],
)
def test_superscript_digits_are_parse_errors(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("ParseError: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("layer-sizes", "--grid", "3," + "1" * 5000),
        ("hilbert", "--grid", "3,3", "--degree", "1", "--set", "1" * 5000),
        ("sm", "--grid", "3,3", "--points", "0," + "1" * 5000),
    ],
)
def test_integers_past_the_int_digit_limit_are_parse_errors(capsys, argv):
    """int() refuses decimal strings of more than 4300 digits with a plain
    ValueError; the text grammar reports it as one ParseError line."""
    code, out, err = _run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("ParseError: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("flag", ["--max-points", "--seed"])
@pytest.mark.parametrize("value", ["1_0", "+1", " 1", "\u00b2"])
def test_verify_flags_take_only_decimal_digits(capsys, flag, value):
    """--degree, --max-points and --seed share the text grammar's integers."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "digression", flag, value])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"argument {flag}: invalid _decimal value: {value!r}\n")


def test_huge_weight_range_fails_before_expansion(capsys):
    code, out, err = _run(
        capsys, "hilbert", "--grid", "3,3", "--degree", "1", "--set", "0-3000000"
    )
    assert code == 1
    assert out == ""
    assert err == "WeightOutOfRange: weight 5 outside [0, 4]\n"


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "--grid", "3,3"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_verify_passing_suite(capsys):
    code, out, _ = _run(capsys, "verify", "digression")
    assert code == 0
    assert out == "suite digression: ok (4 checks)\n"


def test_verify_unknown_suite(capsys):
    code, _, err = _run(capsys, "verify", "nonsense")
    assert code == 1
    assert "UnknownSuite" in err
    assert "digression" in err


def test_verify_failing_suite_reports_counterexample(capsys):
    code, out, _ = _run(capsys, "verify", "wilson")
    assert code == 2
    lines = out.splitlines()
    assert lines[0].startswith("suite wilson: FAIL")
    witness = json.loads(lines[1])
    assert witness["grid"] == "2,2"
    assert witness["degree"] == 2
    assert witness["weight"] == 1
    assert lines[2] == "1 of 1 suites failed"


def test_verify_failing_suite_json(capsys):
    code, out, _ = _run(capsys, "verify", "wilson", "--json")
    assert code == 2
    payload = json.loads(out)
    assert len(payload["suites"]) == 1
    suite = payload["suites"][0]
    assert suite["name"] == "wilson"
    assert suite["passed"] is False
    assert suite["counterexample"]["grid"] == "2,2"


def test_verify_respects_limits(capsys):
    code, out, _ = _run(capsys, "verify", "up-rank", "--max-points", "12")
    assert code == 0
    assert out.startswith("suite up-rank: ok (")


def test_output_is_deterministic(capsys):
    first = _run(capsys, "closure", "--grid", "2,3,4", "--degree", "2", "--set", "0,3")
    second = _run(capsys, "closure", "--grid", "2,3,4", "--degree", "2", "--set", "0,3")
    assert first == second
