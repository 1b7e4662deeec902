import dataclasses
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = sys.modules["mutants"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


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
