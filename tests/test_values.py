"""The package's value classes and records, and what importing it loads.

UniformGrid is a plain class with hand-written dunders: immutable, equal
only to a grid with equal arities, hashed by them, and printed as
``UniformGrid(arities=...)``.  It is not a tuple, so a grid neither
iterates nor equals its arities.  ExactMatrix and the records (Limits,
SuiteResult, ...) are NamedTuples, immutable and printed as
``Name(field=value, ...)``, the form tools/fingerprint.py hashes.  Importing the package
and its CLI loads neither dataclasses nor inspect, whose import is the
largest fixed cost of a one-question process, nor the suites: verify and
runner load only for the verify command or when the package is asked for
verify or a name re-exported from it.
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


def _fresh(code):
    """The stdout of code run in a fresh interpreter on this tree's src.
    This process has already imported verify through conftest."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    """Only the modules the import adds count, so whatever site preloads
    does not matter."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import gridhilbert, gridhilbert.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    added = set(_fresh(code).split())
    assert "gridhilbert.cli" in added
    assert not added & {"dataclasses", "inspect"}


def test_only_the_verify_command_loads_the_suites():
    """A query leaves verify and runner unloaded; the verify command loads
    both."""
    code = (
        "import contextlib, io, sys\n"
        "import gridhilbert, gridhilbert.cli\n"
        "def loaded():\n"
        "    names = {'gridhilbert.verify', 'gridhilbert.runner'} & set(sys.modules)\n"
        "    return ' '.join(sorted(names)) or 'neither'\n"
        "def run(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        return gridhilbert.cli.main(argv)\n"
        "print(loaded())\n"
        "query = ('hilbert', '--grid', '3,3', '--degree', '1', '--set', '0,2-4')\n"
        "print(run(*query), loaded())\n"
        "print(run('verify', 'digression'), loaded())\n"
    )
    assert _fresh(code).splitlines() == [
        "neither",
        "0 neither",
        "0 gridhilbert.runner gridhilbert.verify",
    ]


def test_the_package_serves_verify_and_its_names_on_first_use():
    """verify first goes through the package's __getattr__; the five names
    always do, since importing verify binds only verify on the package."""
    code = (
        "import sys\n"
        "import gridhilbert\n"
        "module = gridhilbert.verify\n"
        "from gridhilbert import verify_suite\n"
        "names = 'SUITES Limits SuiteResult verification_family verify_suite'.split()\n"
        "print(module is sys.modules['gridhilbert.verify'])\n"
        "print(all(getattr(gridhilbert, n) is getattr(module, n) for n in names))\n"
        "print(verify_suite is module.verify_suite)\n"
        "try:\n"
        "    gridhilbert.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert _fresh(code).splitlines() == [
        "True",
        "True",
        "True",
        "module 'gridhilbert' has no attribute 'no_such_name'",
    ]


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
