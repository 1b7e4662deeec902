"""Verification suites: each claim checked against an independent route.

A suite is data.  Its entry in SUITES pairs the grids it sweeps, as a
function of Limits, with a per-grid check generator checks(grid,
limits).  The generator yields one item per check, in a fixed order:
None when the check holds, or the counterexample payload when it fails.
A payload is built only on failure.  It is a plain dict ready for JSON
emission, with values that can exceed 64 bits (ranks, layer sizes,
Hilbert values) rendered as decimal strings.  A law's preconditions (an
su2 grid, a size bound) are early returns inside its generator, so any
generator can be run on any grid, also one outside the family.

verify_suite is the one runner.  Its answer is that of walking the
suite's grids in order, counting the items and stopping at the first
payload: the reported counterexample is the first one in sweep order and
the count includes it.  Comparisons are exact integer and set equality.
It splits the grids into one shard per usable CPU, longest first by size
onto the least-loaded shard.  Shard 0 runs in the calling process and
each other shard in a forked child, which sends one record per grid back
through a pipe with marshal; marshal keeps a payload dict's key order.
The merge reads the records in sweep order, so splitting changes the
wall time and nothing else.

Suites that visit every subset in mask order read the brute-force side
from a sweep that shares each subset's prefix on one linalg.Span:
grid-hilbert from hilbert.rank_oracle_sweep, and zstar-lbar and
closure-laws from closure.zstar_sweep, which reads the z*-closures off
those ranks; closure-laws holds its grid's tables, one per degree and
indexed by mask, for the grid's checks only.  Shattering compares
ord_str with standard_monomials: on grids of at most 16 points through
their sweeps, shattering_sweep and footprint_sweep, which answer every
point set in mask order as an integer mask, the footprint side from an
elimination tree whose levels also hold the lower points' rows already
reduced; on grids of 17 to 27 points
one call each per seeded point set, compared as the point sets they
return.  Either way the counts and first counterexample are the routes'.

Two suites ask a repeated exact question once, in a dict that lives as
long as one grid's generator: interval-rank ranks each distinct drawn
block once per grid, and closure-laws computes the Hilbert value of
each distinct closure once per degree.  Both answers are functions of
their arguments, so every check, count and counterexample is the one a
fresh call would give.  Each first question is still looked up on its
module at call time, so a patched route is seen.
"""

from __future__ import annotations

import itertools
import marshal
import math
import os
import random
import threading
from typing import Iterator, NamedTuple

from . import closure, hilbert, linalg, shattering
from .errors import UnknownSuite
from .grid import UniformGrid


class Limits(NamedTuple):
    """Size caps and seeds bounding the verification sweeps."""

    max_points: int = 36
    max_cube: int = 6
    seed: int = 1729


# Seeded draws per grid of the interval-rank and sampled shattering suites.
_INTERVAL_SAMPLES = 200
_SHATTER_SAMPLES = 500


class SuiteResult(NamedTuple):
    name: str
    passed: bool
    checked: int
    counterexample: dict | None = None


def verification_family(
    max_points: int = Limits().max_points, max_cube: int = Limits().max_cube
) -> tuple[UniformGrid, ...]:
    """The default grid family, smallest first.

    All grids of dimension at most 3 with arities between 2 and 4 and at
    most ``max_points`` points, one representative per multiset of
    arities, plus the binary grids of dimension up to ``max_cube``.
    """
    specs = set()
    for dim in (1, 2, 3):
        for arities in itertools.combinations_with_replacement((2, 3, 4), dim):
            if math.prod(arities) <= max_points:
                specs.add(arities)
    for n in range(1, max_cube + 1):
        specs.add((2,) * n)
    ordered = sorted(specs, key=lambda t: (math.prod(t), len(t), t))
    return tuple(UniformGrid(t) for t in ordered)


def _family(limits: Limits) -> tuple[UniformGrid, ...]:
    return verification_family(limits.max_points, limits.max_cube)


def _cubes(limits: Limits) -> list[UniformGrid]:
    return [hilbert.cube(n) for n in range(1, limits.max_cube + 1)]


def _weight_subsets(N: int) -> list[tuple[int, ...]]:
    return [
        tuple(j for j in range(N + 1) if mask >> j & 1)
        for mask in range(1 << (N + 1))
    ]


def _mask(E) -> int:
    return sum(1 << j for j in E)


def _points_json(points) -> list[list[int]]:
    return [list(p) for p in sorted(points)]


def _grid_hilbert(grid: UniformGrid, limits: Limits) -> Iterator[dict | None]:
    """Closed-form Hilbert function against the rank oracle, every weight set."""
    subsets = _weight_subsets(grid.max_weight)
    for d in range(grid.max_weight + 1):
        for E, oracle in zip(subsets, hilbert.rank_oracle_sweep(grid, d)):
            closed = hilbert.hilbert_closed(grid, d, E)
            yield None if closed == oracle else dict(
                grid=grid.spec(), degree=d, set=list(E),
                closed=str(closed), oracle=str(oracle),
            )


def _cube(grid: UniformGrid, limits: Limits) -> Iterator[dict | None]:
    """Binomial cube formula against the general closed form."""
    n = grid.dimension
    subsets = _weight_subsets(n)
    for d in range(n + 1):
        for E in subsets:
            binom = hilbert.hilbert_cube_closed(n, d, E)
            general = hilbert.hilbert_closed(grid, d, E)
            yield None if binom == general else dict(
                cube=n, degree=d, set=list(E),
                binomial=str(binom), general=str(general),
            )


def _wilson(grid: UniformGrid, limits: Limits) -> Iterator[dict | None]:
    """Single-layer Hilbert values: the min display and complement duality.

    Both laws make one check per (d, w); duality is computed only once the
    display holds.
    """
    N = grid.max_weight
    for d in range(N + 1):
        for w in range(N + 1):
            value = hilbert.hilbert_closed(grid, d, (w,))
            display = hilbert.hilbert_layer(grid, d, w)
            if value != display:
                yield dict(
                    grid=grid.spec(), degree=d, weight=w, law="single-layer",
                    hilbert=str(value), display=str(display),
                )
                continue
            dual = hilbert.hilbert_closed(grid, d, (N - w,))
            yield None if value == dual else dict(
                grid=grid.spec(), degree=d, weight=w, law="duality",
                hilbert=str(value), complement=str(dual),
            )


def _up_rank(grid: UniformGrid, limits: Limits) -> Iterator[dict | None]:
    """Full rank of every consecutive-layer up operator."""
    sizes = grid.layer_sizes
    for d in range(grid.max_weight):
        got = linalg.rank(linalg.up_matrix(grid, d)).rank
        want = min(sizes[d], sizes[d + 1])
        yield None if got == want else dict(
            grid=grid.spec(), degree=d, rank=str(got), expected=str(want),
        )


def _factorization(grid: UniformGrid, limits: Limits) -> Iterator[dict | None]:
    """Evaluation blocks as scaled chains of up operators, entrywise.

    Also checks the pointwise identity behind the chain: on a layer of
    weight w, (w-d) times a weight-d falling-factorial function equals
    the sum of its weight-(d+1) covers.
    """
    N = grid.max_weight
    ups = [linalg.up_matrix(grid, d) for d in range(N)]
    for d in range(N):
        chain = None
        for w in range(d + 1, N + 1):
            chain = ups[w - 1] if chain is None else chain @ ups[w - 1]
            lhs = linalg.eval_matrix(grid, (d,), (w,)).scale(math.factorial(w - d))
            rhs = chain @ linalg.factorial_diag(grid, (w,))
            yield None if lhs == rhs else dict(
                grid=grid.spec(), degree=d, weight=w, law="chain",
            )
    for d in range(N):
        for w in range(d + 1, N + 1):
            for alpha in grid.layer(d):
                covers = [
                    alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :]
                    for i in range(grid.dimension)
                    if alpha[i] + 1 < grid.arities[i]
                ]
                for x in grid.layer(w):
                    lhs = (w - d) * linalg.falling_factorial_value(alpha, x)
                    rhs = sum(
                        linalg.falling_factorial_value(beta, x) for beta in covers
                    )
                    yield None if lhs == rhs else dict(
                        grid=grid.spec(), function=list(alpha), point=list(x),
                        weight=w, law="cover-sum", lhs=str(lhs), rhs=str(rhs),
                    )


def _tail_collapse(grid: UniformGrid, limits: Limits) -> Iterator[dict | None]:
    """Rank against a top-interval set collapses to its smallest weight."""
    N = grid.max_weight
    for d in range(N // 2 + 1):
        top = list(range(N - d + 1, N + 1))
        for mask in range(1, 1 << len(top)):
            E = tuple(w for i, w in enumerate(top) if mask >> i & 1)
            got = hilbert.rank_block(grid, (d,), E)
            want = hilbert.rank_block(grid, (d,), (min(E),))
            yield None if got == want else dict(
                grid=grid.spec(), degree=d, set=list(E),
                rank=str(got), collapsed=str(want),
            )


def _interval_rank(grid: UniformGrid, limits: Limits) -> Iterator[dict | None]:
    """Block rank of random interval-compatible sets against the min sum.

    Every draw is checked, but each distinct block, keyed by its interval
    [c, d] and its sorted column weights E, is ranked once per grid: the
    rank is a function of the block alone, so a repeated draw reuses it.
    """
    N = grid.max_weight
    sizes = grid.layer_sizes
    rng = random.Random(f"{limits.seed}:interval-rank:{grid.spec()}")
    ranks = {}
    for _ in range(_INTERVAL_SAMPLES):
        d = rng.randint(0, N)
        c = rng.randint(0, d)
        span = list(range(c, d + 1))
        n_high = rng.randint(0, min(N - d, len(span)))
        high_pos = sorted(rng.sample(span, n_high))
        high_vals = sorted(rng.sample(range(d + 1, N + 1), n_high), reverse=True)
        assign = {t: t for t in span}
        for t, v in zip(high_pos, high_vals):
            assign[t] = v
        values = [assign[t] for t in span]
        E = sorted(assign.values())
        compatible = hilbert.is_interval_compatible(c, d, values)
        key = (c, d, *E)
        if key not in ranks:
            ranks[key] = hilbert.rank_block(grid, span, E)
        got = ranks[key]
        want = sum(min(sizes[t], sizes[assign[t]]) for t in span)
        yield None if compatible and got == want else dict(
            grid=grid.spec(), interval=[c, d],
            assignment=[[t, assign[t]] for t in span],
            compatible=compatible, rank=str(got), expected=str(want),
        )


def _zstar_lbar(grid: UniformGrid, limits: Limits) -> Iterator[dict | None]:
    """Brute-force weight-determined closure against the one-step fixpoint,
    on su2 grids."""
    if not grid.is_su2():
        return
    N = grid.max_weight
    subsets = _weight_subsets(N)
    for d in range(N + 1):
        for E, zs in zip(subsets, closure.zstar_sweep(grid, d)):
            lb = closure.l_bar(N, d, E)
            yield None if zs == lb else dict(
                grid=grid.spec(), degree=d, set=list(E),
                zstar=sorted(zs), lbar=sorted(lb),
            )


def _closure_laws(grid: UniformGrid, limits: Limits) -> Iterator[dict | None]:
    """Closure-operator laws of the weight-determined closure.

    Many sets of one degree share a closure, so hilbert-invariance asks
    hilbert_closed for each set once but for each distinct closure once
    per degree, kept by the closure's mask, which idempotence looks up
    too.  The value is a function of (grid, degree, set), so a kept value
    is the one a fresh call would return.
    """
    N = grid.max_weight
    subsets = _weight_subsets(N)

    def fail(d, E, law, **extra):
        return dict(grid=grid.spec(), degree=d, set=list(E), law=law, **extra)

    tables = [tuple(closure.zstar_sweep(grid, d)) for d in range(N + 1)]
    for d in range(N + 1):
        closures = tables[d]
        closed_values = {}
        for mask, (E, cl) in enumerate(zip(subsets, closures)):
            yield None if set(E) <= cl else fail(
                d, E, "extensive", closure=sorted(cl)
            )
            before = hilbert.hilbert_closed(grid, d, E)
            cl_mask = _mask(cl)
            if cl_mask not in closed_values:
                closed_values[cl_mask] = hilbert.hilbert_closed(grid, d, cl)
            after = closed_values[cl_mask]
            yield None if before == after else fail(
                d, E, "hilbert-invariance",
                hilbert=str(before), closed_hilbert=str(after),
            )
            yield None if closures[cl_mask] == cl else fail(
                d, E, "idempotent", closure=sorted(cl)
            )
            if len(E) >= d + 1:
                hull = set(range(min(E) + 1)) | set(range(max(E), N + 1))
                yield None if hull <= cl else fail(
                    d, E, "closure-builder", closure=sorted(cl)
                )
            if d < N:
                yield None if tables[d + 1][mask] <= cl else fail(
                    d, E, "degree-antitone"
                )
        for mask in range(len(subsets)):
            sub = (mask - 1) & mask
            while sub:
                yield None if closures[sub] <= closures[mask] else fail(
                    d, subsets[sub], "monotone", superset=list(subsets[mask])
                )
                sub = (sub - 1) & mask
    if not grid.is_su2():
        return
    full = frozenset(range(N + 1))
    for i in range(N + 1):
        T = closure.t_set(N, i)
        for d in range(N + 1):
            cl = tables[d][_mask(T)]
            want = T if i <= d else full
            yield None if cl == want else fail(
                d, sorted(T), "two-sided-interval",
                closure=sorted(cl), expected=sorted(want),
            )


def _shattering(grid: UniformGrid, limits: Limits) -> Iterator[dict | None]:
    """Order shattering against the footprint scan, point set by point set:
    every set on grids of at most 16 points, a seeded sample on grids of
    at most 27, none on larger grids."""
    pts = list(grid.points())
    n = len(pts)

    # A sweep's answer is a mask: bit i is the i-th point in lex order.
    def points(mask: int) -> list:
        return [p for i, p in enumerate(pts) if mask >> i & 1]

    def fail(A, shattered, sm) -> dict:
        return dict(
            grid=grid.spec(),
            points=_points_json(A),
            ordstr=_points_json(shattered),
            sm=_points_json(sm),
        )

    if n <= 16:
        pairs = zip(shattering.shattering_sweep(grid), shattering.footprint_sweep(grid))
        for mask, (shattered, sm) in enumerate(pairs):
            holds = shattered == sm and shattered.bit_count() == mask.bit_count()
            yield None if holds else fail(points(mask), points(shattered), points(sm))
    elif n <= 27:
        rng = random.Random(f"{limits.seed}:shattering:{grid.spec()}")
        for _ in range(_SHATTER_SAMPLES):
            A = rng.sample(pts, rng.randint(0, n))
            shattered = shattering.ord_str(grid, A)
            sm = shattering.standard_monomials(grid, A)
            holds = shattered == sm and len(shattered) == len(A)
            yield None if holds else fail(A, shattered, sm)


def _layers(grid: UniformGrid, limits: Limits) -> Iterator[dict | None]:
    """Shattered sets and standard monomials of layers, nested up the middle,
    on grids of at most limits.max_points points."""
    if grid.size > limits.max_points:
        return
    layers = [set(grid.layer(i)) for i in range(grid.max_weight // 2 + 1)]
    shattered = [shattering.ord_str(grid, A) for A in layers]
    sm = [shattering.standard_monomials(grid, A) for A in layers]
    for j in range(len(layers)):
        for i in range(j + 1):
            restricted = frozenset(b for b in shattered[j] if sum(b) <= i)
            yield None if shattered[i] == restricted else dict(
                grid=grid.spec(), low=i, high=j, law="restriction",
                low_layer=_points_json(shattered[i]),
                high_restricted=_points_json(restricted),
            )
            yield None if sm[i] <= sm[j] else dict(
                grid=grid.spec(), low=i, high=j, law="nesting",
                low_layer=_points_json(sm[i]), high_layer=_points_json(sm[j]),
            )


def _digression(grid: UniformGrid, limits: Limits) -> Iterator[dict | None]:
    """Hilbert values separate sets the weight multiset alone cannot: on
    the 3x3 grid at degree 1, adding any other layer to {2} raises it."""
    base = hilbert.hilbert_closed(grid, 1, (2,))
    for a in (0, 1, 3, 4):
        enlarged = hilbert.hilbert_closed(grid, 1, (a, 2))
        yield None if enlarged > base else dict(
            grid=grid.spec(), degree=1, added=a,
            pair=str(enlarged), single=str(base),
        )


# Suite name -> (the grids it sweeps, its per-grid check generator).
SUITES = {
    "grid-hilbert": (_family, _grid_hilbert),
    "cube": (_cubes, _cube),
    "wilson": (_family, _wilson),
    "up-rank": (_family, _up_rank),
    "factorization": (_family, _factorization),
    "tail-collapse": (_family, _tail_collapse),
    "interval-rank": (_family, _interval_rank),
    "zstar-lbar": (_family, _zstar_lbar),
    "closure-laws": (_family, _closure_laws),
    "shattering": (_family, _shattering),
    "layers": (_family, _layers),
    "digression": (lambda limits: (UniformGrid((3, 3)),), _digression),
}


# SIGKILL's number, which POSIX fixes; signal is not imported for it.
_SIGKILL = 9


def _shard_count(n_grids: int) -> int:
    """One shard per usable CPU, at most one per grid, and only one where
    os.fork is missing or another thread is alive: a fork taken while
    another thread holds a lock can deadlock the child."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return max(1, min(n_grids, cpus))


def _partition(family, k: int) -> list[list[int]]:
    """The family's indices in k shards, each in family order.

    Longest processing time first: grids in decreasing size, each onto
    the least-loaded shard, ties to the lowest shard index.  The split is
    a function of the family and k alone.
    """
    shards, loads = [[] for _ in range(k)], [0] * k
    for i in sorted(range(len(family)), key=lambda i: -family[i].size):
        j = loads.index(min(loads))
        shards[j].append(i)
        loads[j] += family[i].size
    return [sorted(shard) for shard in shards]


def _run_grid(checks, grid, limits) -> tuple[int, dict | None]:
    """One grid's item count up to and including its first counterexample."""
    checked = 0
    for counterexample in checks(grid, limits):
        checked += 1
        if counterexample is not None:
            return checked, counterexample
    return checked, None


def _run_shard(checks, family, shard, limits) -> list[tuple]:
    """A record (index, checked, counterexample, raised) per grid of the
    shard, in family order, up to its first grid that fails or raises."""
    records = []
    for i in shard:
        try:
            checked, counterexample = _run_grid(checks, family[i], limits)
        except Exception:
            records.append((i, 0, None, True))
            break
        records.append((i, checked, counterexample, False))
        if counterexample is not None:
            break
    return records


def _fork_shard(checks, family, shard, limits) -> tuple[int, int]:
    """Fork a child that writes the shard's records to a pipe with
    marshal; return its pid and the pipe's read end.  The child leaves by
    os._exit, never returning into the caller or flushing inherited stdio,
    with status 0 only once every byte is written."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(r)
            with open(w, "wb") as out:
                out.write(marshal.dumps(_run_shard(checks, family, shard, limits)))
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, r


def verify_suite(name: str, limits: Limits = Limits()) -> SuiteResult:
    """Run one registered suite; the result carries the first counterexample.

    The result is the serial loop's: walk the grids in order, count every
    item and stop at the first counterexample.  Each shard (_partition)
    runs its grids in family order and stops at its first grid that fails
    or raises; shard 0 runs here, each other one in a child (_fork_shard).
    The merge walks the family in order, adds up the counts and returns at
    the first counterexample.  No shard stops before its own first
    failure, so every grid before the first failure in family order was
    run in full.  A grid whose check raised is run again here when the
    merge reaches it, so its exception keeps its type, message and
    traceback, and never propagates past an earlier counterexample.

    Every child is reaped before the call returns or raises, and killed
    first if this process's shard or a read raises (KeyboardInterrupt
    too).  A child that exits nonzero or sends short data makes the call
    raise, so a partial count is never reported.
    """
    try:
        grids, checks = SUITES[name]
    except KeyError:
        known = ", ".join(SUITES)
        raise UnknownSuite(f"unknown suite {name!r}; choose from: {known}, all")
    family = tuple(grids(limits))
    shards = _partition(family, _shard_count(len(family)))
    children, blobs, codes = [], None, []
    try:
        for shard in shards[1:]:
            children.append(_fork_shard(checks, family, shard, limits))
        runs = [_run_shard(checks, family, shards[0], limits)]
        # Each read end is closed below, not by its file object.
        blobs = [open(r, "rb", closefd=False).read() for _, r in children]
    finally:
        for pid, r in children:
            os.close(r)
            if blobs is None:
                os.kill(pid, _SIGKILL)
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for code, blob in zip(codes, blobs):
        if code:
            raise RuntimeError(f"suite {name!r}: a shard's child exited with {code}")
        runs.append(marshal.loads(blob))
    records = {record[0]: record for run in runs for record in run}
    checked = 0
    for i, grid in enumerate(family):
        if i not in records:
            raise RuntimeError(f"suite {name!r}: no record for grid {grid.spec()}")
        _, n, counterexample, raised = records[i]
        if raised:
            n, counterexample = _run_grid(checks, grid, limits)
        checked += n
        if counterexample is not None:
            return SuiteResult(name, False, checked, counterexample)
    return SuiteResult(name, True, checked)
