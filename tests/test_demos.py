"""The walkthroughs in demos/ run and print the same bytes.

Each demo runs in a fresh interpreter with PYTHONPATH on this checkout's
src, as its docstring says to run it, and the test pins its exit status
and the sha256 of its stdout.  The demos call public routes no other
test reaches through a script (z_closure_points, eval_matrix,
order_shatters), so a change to those routes shows here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# demo file -> sha256 of its stdout; every demo exits 0.
DEMO_SHA256 = {
    "closure_walkthrough.py": "ce966046a11810816178f49aba721858fdd87f735a0b4c0827ec58da91afaf7d",
    "hilbert_walkthrough.py": "9e94d8bfdad5a881d2c80e639cb815a051f36e28007cdb7791c939e8b9fe2958",
    "shattering_walkthrough.py": "85e1834d67a5b0c4edd2a8ca1b6f2d54e124fc090958121011784da727533528",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_stdout_digest(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    assert hashlib.sha256(done.stdout).hexdigest() == DEMO_SHA256[name]
