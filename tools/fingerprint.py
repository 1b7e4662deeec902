"""Fingerprint of every route's answers, to compare two source trees.

Usage:
    python3 tools/fingerprint.py [--max-points N]
    python3 tools/fingerprint.py [--max-points N] --against REV

Prints one line per quantity: its name, the number of items hashed and
the sha256 of their answers.
    shattering_sweep, footprint_sweep   the masks on every arity tuple
        (arities >= 2, reorderings included) of at most N points,
        default 16: 42 tuples.  Both hash the masks the same way, and
        criterion 10 says the two sweeps agree, so the two digests are
        equal on a correct tree.
    rank_oracle_sweep, zstar_sweep      every weight set's answer on
        every grid and degree of the default verification family: 108
        (grid, degree) pairs.
    verify:<suite>                      the SuiteResult of each suite of
        ``verify all`` at ``Limits()``, counterexample included; the
        count is the suite's ``checked``.
    verify@5303:<suite>                 the same for the two seeded
        suites, interval-rank and shattering, at a second seed.  A
        passing SuiteResult holds only the suite's name, verdict and
        count, so these lines show that the draws of the second seed
        pass with the same counts, not which items were drawn.

``--against REV`` unpacks ``git archive REV`` into a temporary directory,
runs this same file on that tree's ``src`` (``--src``), and prints the
lines of the two trees that differ, ``-`` for REV and ``+`` for this
tree.  It exits 1 if any line differs and 0 if none does.  Stdlib
only; like ``tools/mutants.py``, this is not part of tier-1.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The suites that draw from Limits.seed, rerun at SECOND_SEED.
SEEDED_SUITES = ("interval-rank", "shattering")
SECOND_SEED = 5303


def arity_tuples(max_points: int) -> list[tuple[int, ...]]:
    """Every tuple of arities >= 2 with at most max_points points, in
    (points, tuple) order."""
    out = []

    def extend(prefix: tuple[int, ...], room: int) -> None:
        for k in range(2, room + 1):
            out.append(prefix + (k,))
            extend(prefix + (k,), room // k)

    extend((), max_points)
    return sorted(out, key=lambda t: (math.prod(t), t))


def _digest(items) -> tuple[int, str]:
    """Number of items and the sha256 of their lines."""
    h = hashlib.sha256()
    count = 0
    for item in items:
        h.update(f"{item}\n".encode())
        count += 1
    return count, h.hexdigest()


def fingerprint(max_points: int) -> list[str]:
    """One line per quantity, of the gridhilbert on sys.path."""
    from gridhilbert import UniformGrid
    from gridhilbert.closure import zstar_sweep
    from gridhilbert.hilbert import rank_oracle_sweep
    from gridhilbert.shattering import footprint_sweep, shattering_sweep
    from gridhilbert.verify import SUITES, Limits, verification_family, verify_suite

    grids = [UniformGrid(t) for t in arity_tuples(max_points)]
    pairs = [(g, d) for g in verification_family() for d in range(g.max_weight + 1)]

    def per_grid(sweep):
        return (f"{g.spec()} {' '.join(map(str, sweep(g)))}" for g in grids)

    def per_pair(sweep, show):
        return (f"{g.spec()} {d} {' '.join(map(show, sweep(g, d)))}" for g, d in pairs)

    quantities = {
        "shattering_sweep": per_grid(shattering_sweep),
        "footprint_sweep": per_grid(footprint_sweep),
        "rank_oracle_sweep": per_pair(rank_oracle_sweep, str),
        "zstar_sweep": per_pair(zstar_sweep, lambda cl: ",".join(map(str, sorted(cl)))),
    }
    lines = []
    for name, items in quantities.items():
        count, digest = _digest(items)
        lines.append(f"{name:25s} {count:>7d} {digest}")
    second = Limits(seed=SECOND_SEED)
    runs = [("verify:", name, Limits()) for name in SUITES]
    runs += [(f"verify@{SECOND_SEED}:", name, second) for name in SEEDED_SUITES]
    for prefix, name, limits in runs:
        result = verify_suite(name, limits)
        lines.append(f"{prefix + name:25s} {result.checked:>7d} {_digest([result])[1]}")
    return lines


def _lines_at(rev: str, max_points: int) -> list[str]:
    """The fingerprint of git revision rev's src, run in a subprocess."""
    archive = subprocess.run(
        ["git", "archive", rev], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tempfile.TemporaryDirectory(prefix="gridhilbert-fingerprint-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        done = subprocess.run(
            [sys.executable, __file__, "--max-points", str(max_points),
             "--src", str(Path(tmp) / "src")],
            cwd=tmp, capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        )
    return done.stdout.splitlines()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-points", type=int, default=16)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the source tree to fingerprint")
    parser.add_argument("--against", metavar="REV",
                        help="print the lines that differ from git revision REV")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src))
    ours = fingerprint(args.max_points)
    if args.against is None:
        print("\n".join(ours))
        return 0
    theirs = _lines_at(args.against, args.max_points)
    differ = [f"- {line}" for line in theirs if line not in ours]
    differ += [f"+ {line}" for line in ours if line not in theirs]
    print("\n".join(differ) or f"no line differs from {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
