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
    ord_str, standard_monomials         the one-shot routes' answers, as
        masks in mask order like the sweep lines, for every point set
        of every arity tuple of at most min(N, 12) points: 27 tuples and
        40,332 sets at the default.  The two digests are equal on a
        correct tree, and at N <= 12 equal to the sweeps' too.
    rank_oracle_sweep, zstar_sweep      every weight set's answer on
        every grid and degree of the default verification family: 108
        (grid, degree) pairs.
    hilbert_rank_oracle, zstar_closure  the one-shot routes' answers on
        the same 108 pairs, one call per weight set in mask order (10,104
        sets), printed as the sweep lines print them.  Each digest equals
        its sweep's on a correct tree; for zstar_closure that compares
        its span membership test with the sweep's rank criterion.
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
    from gridhilbert.closure import zstar_closure, zstar_sweep
    from gridhilbert.hilbert import hilbert_rank_oracle, rank_oracle_sweep
    from gridhilbert.shattering import (
        footprint_sweep,
        ord_str,
        shattering_sweep,
        standard_monomials,
    )
    from gridhilbert.verify import SUITES, Limits, verification_family, verify_suite

    grids = [UniformGrid(t) for t in arity_tuples(max_points)]
    pairs = [(g, d) for g in verification_family() for d in range(g.max_weight + 1)]

    def per_grid(sweep):
        return (f"{g.spec()} {' '.join(map(str, sweep(g)))}" for g in grids)

    def per_set(route):
        for g in grids:
            if g.size <= 12:
                pts = tuple(g.points())
                bit = {p: 1 << i for i, p in enumerate(pts)}
                sets = ([p for p in pts if S & bit[p]] for S in range(1 << len(pts)))
                answers = (sum(map(bit.get, route(g, A))) for A in sets)
                yield f"{g.spec()} {' '.join(map(str, answers))}"

    def per_pair(sweep, show):
        return (f"{g.spec()} {d} {' '.join(map(show, sweep(g, d)))}" for g, d in pairs)

    def one_shot(route):
        """route(g, d, E) for every weight set E, in mask order, as a sweep."""

        def sweep(g, d):
            weights = range(g.max_weight + 1)
            for mask in range(1 << len(weights)):
                yield route(g, d, [w for w in weights if mask >> w & 1])

        return sweep

    def show_set(weights):
        return ",".join(map(str, sorted(weights)))

    quantities = {
        "shattering_sweep": per_grid(shattering_sweep),
        "footprint_sweep": per_grid(footprint_sweep),
        "ord_str": per_set(ord_str),
        "standard_monomials": per_set(standard_monomials),
        "rank_oracle_sweep": per_pair(rank_oracle_sweep, str),
        "zstar_sweep": per_pair(zstar_sweep, show_set),
        "hilbert_rank_oracle": per_pair(one_shot(hilbert_rank_oracle), str),
        "zstar_closure": per_pair(one_shot(zstar_closure), show_set),
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
