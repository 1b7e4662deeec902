import dataclasses
import importlib.util
import sys
from pathlib import Path

from gridhilbert import verify
from gridhilbert.verify import SUITES, Limits, SuiteResult

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


mutants = _load("mutants")
fingerprint = _load("fingerprint")


def test_every_mutant_anchor_and_selection_is_current():
    """Each mutant's old string occurs once in its file, and each test it
    names is defined, so a refactor that moves either fails here, without
    running a mutant."""
    assert mutants._stale(mutants.MUTANTS) == []


def test_a_selection_of_a_missing_file_is_stale():
    m = dataclasses.replace(mutants.MUTANTS[0], tests=("tests/test_nosuch.py",))
    assert mutants._stale([m]) == [
        f"{m.name}: selection tests/test_nosuch.py is not defined"
    ]


def test_fingerprint_at_8_points(monkeypatch, capsys):
    """The tool runs on this tree, in process: one line per quantity, the
    two point-set sweeps hash to one digest, since criterion 10 says they
    agree, and each suite is run once at Limits(), in SUITES order, then
    each seeded suite at the second seed.  The suites are recorded, not
    run: tests/test_acceptance.py pins their checked counts."""
    calls = []

    def recorder(name, limits):
        calls.append((name, limits))
        return SuiteResult(name, True, 0)

    monkeypatch.setattr(verify, "verify_suite", recorder)
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert fingerprint.main(["--max-points", "8"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [(name, int(count)) for name, count, _ in rows[:4]] == [
        ("shattering_sweep", 13),
        ("footprint_sweep", 13),
        ("rank_oracle_sweep", 108),
        ("zstar_sweep", 108),
    ]
    second = [(name, Limits(seed=5303)) for name in ("interval-rank", "shattering")]
    assert [name for name, _, _ in rows[4:]] == [
        *(f"verify:{name}" for name in SUITES),
        *(f"verify@5303:{name}" for name, _ in second),
    ]
    assert calls == [(name, Limits()) for name in SUITES] + second
    assert rows[0][2] == rows[1][2]
    assert all(len(digest) == 64 for _, _, digest in rows)


def test_fingerprint_against_prints_the_lines_that_differ(monkeypatch, capsys):
    ours = ["a 1 " + "0" * 64, "b 2 " + "1" * 64]
    theirs = ["a 1 " + "0" * 64, "b 2 " + "2" * 64]
    monkeypatch.setattr(fingerprint, "fingerprint", lambda max_points: ours)
    monkeypatch.setattr(fingerprint, "_lines_at", lambda rev, max_points: theirs)
    assert fingerprint.main(["--against", "REV"]) == 1
    assert capsys.readouterr().out.splitlines() == [f"- {theirs[1]}", f"+ {ours[1]}"]
    monkeypatch.setattr(fingerprint, "_lines_at", lambda rev, max_points: ours)
    assert fingerprint.main(["--against", "REV"]) == 0
    assert capsys.readouterr().out == "no line differs from REV\n"


def test_fingerprint_arity_tuples():
    assert fingerprint.arity_tuples(6) == [(2,), (3,), (2, 2), (4,), (5,), (2, 3), (3, 2), (6,)]
    assert len(fingerprint.arity_tuples(16)) == 42
