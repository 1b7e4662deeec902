"""Workload definitions: sweep limits, expected suite results, queries, checks.

Nothing here imports gridhilbert.  The query generator depends only on
the seed, and the checks read only the program's output, so the same
module serves the timed passes and the benchmark's own tests.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import re

DEFAULT_SEED = 1729

# One fixed ``Limits`` per sweep (the seed is filled in per run), and the
# result every suite must give at those limits: (passed, checked).  The
# counts do not depend on the seed: the only seeded parts, interval-rank
# and the sampled shattering grids, draw a fixed number of samples, and
# max_points=12 keeps every shattering grid exhaustive.  ``wilson`` fails
# on purpose (criterion 3, witness grid 2,2, degree 2, weight 1).
SWEEPS = {
    "sweep_rank": {
        "limits": {"max_points": 18, "max_cube": 5},
        "expected": {
            "grid-hilbert": (True, 3320),
            "cube": (True, 640),
            "wilson": (False, 37),
            "up-rank": (True, 56),
            "factorization": (True, 1178),
            "tail-collapse": (True, 48),
            "interval-rank": (True, 3000),
            "zstar-lbar": (True, 3072),
            "closure-laws": (True, 46921),
            "digression": (True, 4),
        },
    },
    "sweep_shatter": {
        "limits": {"max_points": 12, "max_cube": 3},
        "expected": {
            "shattering": (True, 9324),
            "layers": (True, 80),
        },
    },
}
WORKLOADS = (*SWEEPS, "queries")

# Grids outside the verification family (an arity above 4, or four
# non-binary coordinates), 50 to 512 points.  6,9 is not su2, so its
# closure queries may legitimately print agree=no.
GRID_POOL = ("5,5,2", "6,9", "3,3,3,3", "2,3,4,5", "5,5,5", "6,6,6", "8,8,8")
# Queries per grid and command; a downset query is an sm and ordstr pair.
PER_GRID = {"hilbert": 6, "closure": 5, "downset": 3}
# Work bounds in the units of _cost.  The floors keep tiny queries out, so
# the eliminations are few and large; the caps keep every query well
# under 1 s: the slowest, the first sm on 8,8,8, which builds its
# |grid|^2 footprint table, takes 0.3 to 0.5 s on a 2-core machine.
WORK = {"hilbert": (20_000, 1_000_000), "closure": (40_000, 2_000_000),
        "downset": (30_000, 1_000_000)}
MAX_DOWNSET_POINTS = 64

# sha256 of every query's stdout, in order, at DEFAULT_SEED.
DEFAULT_SEED_DIGEST = "cee05127c16d0cbe86296f090887da63d280ae336787849cab527c444e5209fb"


def layer_sizes(arities: tuple[int, ...]) -> tuple[int, ...]:
    """Points per weight of the grid with the given arities."""
    sizes = [1]
    for k in arities:
        out = [0] * (len(sizes) + k - 1)
        for i, v in enumerate(sizes):
            for j in range(k):
                out[i + j] += v
        sizes = out
    return tuple(sizes)


def _cost(command: str, sizes: tuple[int, ...], degree: int, weights: list[int]) -> int:
    """Rough elimination work: rows x columns x rank bound, plus the scan."""
    r = sum(sizes[: degree + 1])
    c = sum(sizes[w] for w in weights)
    if command == "hilbert":
        return r * c * min(r, c)
    return r * (c + r) * min(r, c) + sum(sizes) * r * r


def _templates() -> tuple[tuple, ...]:
    """(command, grid, degree, weights or point count), in the order run.

    Drawn once from a fixed seed, so every run seed asks for the same work
    and the same queries hit and miss the per-grid caches: the first
    closure or sm on a grid (or grid and degree) fills a cache that later
    ones reuse.  The costs spread smoothly from a few ms to the caps, so
    the latency percentiles do not jump between a few distinct queries.
    """
    rng = random.Random("gridhilbert-bench:templates")
    out = []
    for spec in GRID_POOL:
        sizes = layer_sizes(tuple(int(k) for k in spec.split(",")))
        top = len(sizes) - 1
        for command, count in PER_GRID.items():
            made = 0
            while made < count:
                if command == "downset":
                    if rng.random() < 0.5:
                        layer = rng.randint(0, top)
                        n, arg = sizes[layer], str(layer)
                    else:
                        n = arg = rng.randint(2, MAX_DOWNSET_POINTS)
                    if n > min(MAX_DOWNSET_POINTS, sum(sizes)):
                        continue
                    cost = n * n * sum(sizes)
                    entry = (command, spec, None, arg)
                else:
                    degree = rng.randint(0, top)
                    weights = sorted(rng.sample(range(top + 1), rng.randint(1, top + 1)))
                    cost = _cost(command, sizes, degree, weights)
                    entry = (command, spec, degree, ",".join(map(str, weights)))
                low, high = WORK[command]
                if low <= cost <= high:
                    out.append(entry)
                    made += 1
    rng.shuffle(out)
    return tuple(out)


QUERY_TEMPLATES = _templates()


def make_queries(seed: int) -> list[dict]:
    """The seeded list of CLI queries, each with what its check needs.

    The seed permutes each grid's coordinates and draws the explicit point
    sets.  A downset template yields an ``sm`` query immediately followed
    by an ``ordstr`` query on the same points; ``size`` is the number of
    distinct points, which both must print as that many lines.
    """
    rng = random.Random(f"gridhilbert-bench:{seed}")
    specs = {}
    for spec in GRID_POOL:
        arities = [int(k) for k in spec.split(",")]
        rng.shuffle(arities)
        specs[spec] = ",".join(map(str, arities))
    queries = []
    for command, base, degree, arg in QUERY_TEMPLATES:
        spec = specs[base]
        arities = tuple(int(k) for k in spec.split(","))
        if command != "downset":
            argv = [command, "--grid", spec, "--degree", str(degree), "--set", arg]
            queries.append({"argv": argv, "kind": command, "grid": spec})
            continue
        if isinstance(arg, str):
            where = ["--set", arg]
            size = layer_sizes(arities)[int(arg)]
        else:
            points = list(itertools.product(*(range(k) for k in arities)))
            chosen = sorted(rng.sample(points, arg))
            where = ["--points", ";".join(",".join(map(str, p)) for p in chosen)]
            size = arg
        queries.extend(
            {"argv": [kind, "--grid", spec, *where], "kind": kind,
             "grid": spec, "size": size}
            for kind in ("sm", "ordstr")
        )
    return queries


def check_query(query: dict, code: int, out: str, su2: bool, partner: str | None) -> bool:
    """Whether one query's output agrees with the package's second route.

    ``partner`` is the ``sm`` output for an ``ordstr`` query and None
    otherwise; ``su2`` says whether the query's grid is su2.
    """
    if code != 0:
        return False
    kind = query["kind"]
    if kind == "hilbert":
        match = re.fullmatch(r"closed=(\d+), oracle=(\d+)\n", out)
        return match is not None and match[1] == match[2]
    if kind == "closure":
        return not su2 or "agree=yes" in out.splitlines()
    lines = out.splitlines()
    if len(lines) != query["size"]:
        return False
    return kind == "sm" or out == partner


def check_queries(queries: list[dict], results: list[tuple[int, str]], su2: set[str]) -> list[bool]:
    """Per query, whether its exit status and output pass every check."""
    ok = []
    for i, (query, (code, out)) in enumerate(zip(queries, results)):
        partner = results[i - 1][1] if query["kind"] == "ordstr" else None
        good = check_query(query, code, out, query["grid"] in su2, partner)
        if query["kind"] == "ordstr" and not good:
            ok[-1] = False
        ok.append(good)
    return ok


def stdout_digest(outputs: list[str]) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(out.encode())
        h.update(b"\0")
    return h.hexdigest()
