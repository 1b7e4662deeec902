"""The package's value classes and records, and what importing it loads.

UniformGrid is a plain class with hand-written dunders: immutable, equal
only to a grid with equal arities, hashed by them, and printed as
``UniformGrid(arities=...)``.  It is not a tuple, so a grid neither
iterates nor equals its arities.  ExactMatrix and the records (Limits,
SuiteResult, ...) are NamedTuples, immutable and printed as
``Name(field=value, ...)``, the form tools/fingerprint.py hashes.  Importing the package
and its CLI loads neither dataclasses nor inspect, whose import is the
largest fixed cost of a one-question process.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from gridhilbert import UniformGrid
from gridhilbert.linalg import ExactMatrix
from gridhilbert.verify import Limits, verification_family, verify_suite

ROOT = Path(__file__).resolve().parent.parent


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    """Only the modules the import adds count, so whatever site preloads
    does not matter."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import gridhilbert, gridhilbert.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert "gridhilbert.cli" in added
    assert not added & {"dataclasses", "inspect"}


def test_a_grid_is_an_immutable_value_not_a_tuple():
    grid = UniformGrid((2, 3))
    with pytest.raises(AttributeError):
        grid.arities = (3, 2)
    with pytest.raises(AttributeError):
        del grid.arities
    with pytest.raises(AttributeError):
        grid.extra = 1
    assert grid.arities == (2, 3) and grid.size == 6
    assert grid != UniformGrid((3, 2))
    assert grid != ((2, 3),) and grid != (2, 3)
    with pytest.raises(TypeError):
        iter(grid)
    with pytest.raises(TypeError):
        len(grid)
    assert repr(UniformGrid((3, 3))) == "UniformGrid(arities=(3, 3))"


def test_a_matrix_is_an_immutable_value():
    m = ExactMatrix(((0,), (1,)), ((2,),), ((1,), (2,)))
    with pytest.raises(AttributeError):
        m.entries = ((0,), (0,))
    with pytest.raises(AttributeError):
        del m.row_labels
    assert m.entries == ((1,), (2,))
    assert m == ExactMatrix(((0,), (1,)), ((2,),), ((1,), (2,)))
    assert hash(m) == hash(ExactMatrix(((0,), (1,)), ((2,),), ((1,), (2,))))
    assert m != ExactMatrix(((1,), (0,)), ((2,),), ((1,), (2,)))
    assert repr(m) == (
        "ExactMatrix(row_labels=((0,), (1,)), col_labels=((2,),), entries=((1,), (2,)))"
    )


def test_records_print_as_before_and_limits_give_the_defaults():
    assert repr(verify_suite("digression")) == (
        "SuiteResult(name='digression', passed=True, checked=4, counterexample=None)"
    )
    assert repr(Limits()) == "Limits(max_points=36, max_cube=6, seed=1729)"
    assert verification_family() == verification_family(*Limits()[:2])
