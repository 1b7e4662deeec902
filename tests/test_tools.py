import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_mutant_anchor_and_selection_is_current():
    """Each mutant's old string occurs once in its file, and each test it
    names is defined, so a refactor that moves either fails here, without
    running a mutant."""
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = sys.modules["mutants"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants._stale(mutants.MUTANTS) == []
    for m in mutants.MUTANTS:
        for selection in m.tests:
            path, _, test = selection.partition("::")
            text = (ROOT / path).read_text()
            assert not test or f"def {test.split('[')[0]}(" in text, (m.name, selection)
