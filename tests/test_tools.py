import dataclasses
import importlib.util
import subprocess
import sys
from pathlib import Path

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


def test_fingerprint_at_8_points():
    """The tool runs on this tree: one line per quantity, the two
    point-set sweeps hash to one digest, since criterion 10 says they
    agree, and each suite's count is its checked count."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "fingerprint.py"), "--max-points", "8"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    assert [(name, int(count)) for name, count, _ in rows] == [
        ("shattering_sweep", 13),
        ("footprint_sweep", 13),
        ("rank_oracle_sweep", 108),
        ("zstar_sweep", 108),
        ("verify:grid-hilbert", 10104),
        ("verify:cube", 1536),
        ("verify:wilson", 37),
        ("verify:up-rank", 88),
        ("verify:factorization", 4378),
        ("verify:tail-collapse", 103),
        ("verify:interval-rank", 4000),
        ("verify:zstar-lbar", 9856),
        ("verify:closure-laws", 214200),
        ("verify:shattering", 207432),
        ("verify:layers", 228),
        ("verify:digression", 4),
    ]
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
