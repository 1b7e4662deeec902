"""Verification suites sweeping the grid family against independent oracles.

Every suite walks a deterministic family of grids and compares a closed
form against a brute-force route (or checks a structural law) with
exact integer and set equality.  Sweeps are ordered, and a suite stops
at the first failing instance, so the reported counterexample is the
minimal one in sweep order.  Counterexample payloads are plain dicts
ready for JSON emission; values that can exceed 64 bits (ranks, layer
sizes, Hilbert values) are rendered as decimal strings.

Suites that visit every subset in mask order read the brute-force side
from a sweep that shares each subset's prefix on one linalg.Span:
grid-hilbert from hilbert.rank_oracle_sweep, shattering (on grids of at
most 16 points) from shattering.footprint_sweep with each mask passed
straight to the recursion, and zstar-lbar and closure-laws from one
table of z*-closures per grid and degree, filled by closure.zstar_sweep
and indexed by mask.  The sweeps give the one-shot routes' answers in
the same order, so the checks, their counts and the first
counterexample are those of the one-shot routes.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache

from . import closure, hilbert, linalg, shattering
from .errors import UnknownSuite
from .grid import UniformGrid, make_grid, weight


@dataclass(frozen=True)
class Limits:
    """Size caps and seeds bounding the verification sweeps."""

    max_points: int = 36
    max_cube: int = 6
    seed: int = 1729
    interval_samples: int = 200
    shatter_samples: int = 500


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    checked: int
    counterexample: dict | None = None


def verification_family(
    max_points: int = 36, max_cube: int = 6
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
    return tuple(make_grid(t) for t in ordered)


def _weight_subsets(N: int) -> list[tuple[int, ...]]:
    return [
        tuple(j for j in range(N + 1) if mask >> j & 1)
        for mask in range(1 << (N + 1))
    ]


def _mask(E) -> int:
    return sum(1 << j for j in E)


# The z*-closure of every weight set of one grid and degree, indexed by
# mask.  A default-Limits() pass has 108 (grid, degree) pairs, so the
# zstar-lbar and closure-laws suites share every table without eviction.
@lru_cache(maxsize=128)
def _zstar_table(grid: UniformGrid, d: int) -> tuple[frozenset[int], ...]:
    return tuple(closure.zstar_sweep(grid, d))


def _points_json(points) -> list[list[int]]:
    return [list(p) for p in sorted(points)]


def _suite_grid_hilbert(limits: Limits) -> SuiteResult:
    """Closed-form Hilbert function against the rank oracle, full sweep."""
    checked = 0
    for grid in verification_family(limits.max_points, limits.max_cube):
        N = grid.max_weight
        subsets = _weight_subsets(N)
        for d in range(N + 1):
            for E, oracle in zip(subsets, hilbert.rank_oracle_sweep(grid, d)):
                checked += 1
                closed = hilbert.hilbert_closed(grid, d, E)
                if closed != oracle:
                    return SuiteResult(
                        "grid-hilbert",
                        False,
                        checked,
                        {
                            "grid": grid.spec(),
                            "degree": d,
                            "set": list(E),
                            "closed": str(closed),
                            "oracle": str(oracle),
                        },
                    )
    return SuiteResult("grid-hilbert", True, checked)


def _suite_cube(limits: Limits) -> SuiteResult:
    """Binomial cube formula against the general closed form."""
    checked = 0
    for n in range(1, limits.max_cube + 1):
        grid = hilbert.cube(n)
        subsets = _weight_subsets(n)
        for d in range(n + 1):
            for E in subsets:
                checked += 1
                binom = hilbert.hilbert_cube_closed(n, d, E)
                general = hilbert.hilbert_closed(grid, d, E)
                if binom != general:
                    return SuiteResult(
                        "cube",
                        False,
                        checked,
                        {
                            "cube": n,
                            "degree": d,
                            "set": list(E),
                            "binomial": str(binom),
                            "general": str(general),
                        },
                    )
    return SuiteResult("cube", True, checked)


def _suite_wilson(limits: Limits) -> SuiteResult:
    """Single-layer Hilbert values: the min display and complement duality."""
    checked = 0
    for grid in verification_family(limits.max_points, limits.max_cube):
        N = grid.max_weight
        for d in range(N + 1):
            for w in range(N + 1):
                checked += 1
                value = hilbert.hilbert_closed(grid, d, (w,))
                display = hilbert.hilbert_layer(grid, d, w)
                if value != display:
                    return SuiteResult(
                        "wilson",
                        False,
                        checked,
                        {
                            "grid": grid.spec(),
                            "degree": d,
                            "weight": w,
                            "law": "single-layer",
                            "hilbert": str(value),
                            "display": str(display),
                        },
                    )
                dual = hilbert.hilbert_closed(grid, d, (N - w,))
                if value != dual:
                    return SuiteResult(
                        "wilson",
                        False,
                        checked,
                        {
                            "grid": grid.spec(),
                            "degree": d,
                            "weight": w,
                            "law": "duality",
                            "hilbert": str(value),
                            "complement": str(dual),
                        },
                    )
    return SuiteResult("wilson", True, checked)


def _suite_up_rank(limits: Limits) -> SuiteResult:
    """Full rank of every consecutive-layer up operator."""
    checked = 0
    for grid in verification_family(limits.max_points, limits.max_cube):
        sizes = grid.layer_sizes
        for d in range(grid.max_weight):
            checked += 1
            got = linalg.rank(linalg.up_matrix(grid, d)).rank
            want = min(sizes[d], sizes[d + 1])
            if got != want:
                return SuiteResult(
                    "up-rank",
                    False,
                    checked,
                    {
                        "grid": grid.spec(),
                        "degree": d,
                        "rank": str(got),
                        "expected": str(want),
                    },
                )
    return SuiteResult("up-rank", True, checked)


def _suite_factorization(limits: Limits) -> SuiteResult:
    """Evaluation blocks as scaled chains of up operators, entrywise.

    Also checks the pointwise identity behind the chain: on a layer of
    weight w, (w-d) times a weight-d falling-factorial function equals
    the sum of its weight-(d+1) covers.
    """
    checked = 0
    for grid in verification_family(limits.max_points, limits.max_cube):
        N = grid.max_weight
        ups = [linalg.up_matrix(grid, d) for d in range(N)]
        for d in range(N):
            chain = None
            for w in range(d + 1, N + 1):
                chain = ups[w - 1] if chain is None else chain @ ups[w - 1]
                checked += 1
                lhs = linalg.eval_matrix(grid, (d,), (w,)).scale(
                    math.factorial(w - d)
                )
                rhs = chain @ linalg.factorial_diag(grid, (w,))
                if lhs != rhs:
                    return SuiteResult(
                        "factorization",
                        False,
                        checked,
                        {
                            "grid": grid.spec(),
                            "degree": d,
                            "weight": w,
                            "law": "chain",
                        },
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
                        checked += 1
                        lhs = (w - d) * linalg.falling_factorial_value(alpha, x)
                        rhs = sum(
                            linalg.falling_factorial_value(beta, x)
                            for beta in covers
                        )
                        if lhs != rhs:
                            return SuiteResult(
                                "factorization",
                                False,
                                checked,
                                {
                                    "grid": grid.spec(),
                                    "function": list(alpha),
                                    "point": list(x),
                                    "weight": w,
                                    "law": "cover-sum",
                                    "lhs": str(lhs),
                                    "rhs": str(rhs),
                                },
                            )
    return SuiteResult("factorization", True, checked)


def _suite_tail_collapse(limits: Limits) -> SuiteResult:
    """Rank against a top-interval set collapses to its smallest weight."""
    checked = 0
    for grid in verification_family(limits.max_points, limits.max_cube):
        N = grid.max_weight
        for d in range(N // 2 + 1):
            top = list(range(N - d + 1, N + 1))
            for mask in range(1, 1 << len(top)):
                E = tuple(w for i, w in enumerate(top) if mask >> i & 1)
                checked += 1
                got = hilbert.rank_block(grid, (d,), E)
                want = hilbert.rank_block(grid, (d,), (min(E),))
                if got != want:
                    return SuiteResult(
                        "tail-collapse",
                        False,
                        checked,
                        {
                            "grid": grid.spec(),
                            "degree": d,
                            "set": list(E),
                            "rank": str(got),
                            "collapsed": str(want),
                        },
                    )
    return SuiteResult("tail-collapse", True, checked)


def _suite_interval_rank(limits: Limits) -> SuiteResult:
    """Block rank of random interval-compatible sets against the min sum."""
    checked = 0
    for grid in verification_family(limits.max_points, limits.max_cube):
        N = grid.max_weight
        sizes = grid.layer_sizes
        rng = random.Random(f"{limits.seed}:interval-rank:{grid.spec()}")
        for _ in range(limits.interval_samples):
            d = rng.randint(0, N)
            c = rng.randint(0, d)
            span = list(range(c, d + 1))
            n_high = rng.randint(0, min(N - d, len(span)))
            high_pos = sorted(rng.sample(span, n_high))
            high_vals = sorted(
                rng.sample(range(d + 1, N + 1), n_high), reverse=True
            )
            assign = {t: t for t in span}
            for t, v in zip(high_pos, high_vals):
                assign[t] = v
            values = [assign[t] for t in span]
            E = sorted(assign.values())
            checked += 1
            compatible = hilbert.is_interval_compatible(c, d, values)
            got = hilbert.rank_block(grid, span, E)
            want = sum(min(sizes[t], sizes[assign[t]]) for t in span)
            if not compatible or got != want:
                return SuiteResult(
                    "interval-rank",
                    False,
                    checked,
                    {
                        "grid": grid.spec(),
                        "interval": [c, d],
                        "assignment": [[t, assign[t]] for t in span],
                        "compatible": compatible,
                        "rank": str(got),
                        "expected": str(want),
                    },
                )
    return SuiteResult("interval-rank", True, checked)


def _suite_zstar_lbar(limits: Limits) -> SuiteResult:
    """Brute-force weight-determined closure against the one-step fixpoint."""
    checked = 0
    for grid in verification_family(limits.max_points, limits.max_cube):
        if not grid.is_su2():
            continue
        N = grid.max_weight
        subsets = _weight_subsets(N)
        for d in range(N + 1):
            for E, zs in zip(subsets, _zstar_table(grid, d)):
                checked += 1
                lb = closure.l_bar(N, d, E)
                if zs != lb:
                    return SuiteResult(
                        "zstar-lbar",
                        False,
                        checked,
                        {
                            "grid": grid.spec(),
                            "degree": d,
                            "set": list(E),
                            "zstar": sorted(zs),
                            "lbar": sorted(lb),
                        },
                    )
    return SuiteResult("zstar-lbar", True, checked)


def _suite_closure_laws(limits: Limits) -> SuiteResult:
    """Closure-operator laws of the weight-determined closure."""
    checked = 0

    def fail(grid, d, E, law, **extra):
        payload = {"grid": grid.spec(), "degree": d, "set": list(E), "law": law}
        payload.update(extra)
        return SuiteResult("closure-laws", False, checked, payload)

    for grid in verification_family(limits.max_points, limits.max_cube):
        N = grid.max_weight
        subsets = _weight_subsets(N)
        n_masks = len(subsets)
        for d in range(N + 1):
            closures = _zstar_table(grid, d)
            for mask, (E, cl) in enumerate(zip(subsets, closures)):
                checked += 1
                if not set(E) <= cl:
                    return fail(grid, d, E, "extensive", closure=sorted(cl))
                checked += 1
                before = hilbert.hilbert_closed(grid, d, E)
                after = hilbert.hilbert_closed(grid, d, cl)
                if before != after:
                    return fail(
                        grid, d, E, "hilbert-invariance",
                        hilbert=str(before), closed_hilbert=str(after),
                    )
                checked += 1
                if closures[_mask(cl)] != cl:
                    return fail(grid, d, E, "idempotent", closure=sorted(cl))
                if len(E) >= d + 1:
                    checked += 1
                    hull = set(range(min(E) + 1)) | set(range(max(E), N + 1))
                    if not hull <= cl:
                        return fail(
                            grid, d, E, "closure-builder", closure=sorted(cl)
                        )
                if d < N:
                    checked += 1
                    if not _zstar_table(grid, d + 1)[mask] <= cl:
                        return fail(grid, d, E, "degree-antitone")
            for mask in range(n_masks):
                sub = (mask - 1) & mask
                while sub:
                    checked += 1
                    if not closures[sub] <= closures[mask]:
                        return fail(
                            grid, d, subsets[sub], "monotone",
                            superset=list(subsets[mask]),
                        )
                    sub = (sub - 1) & mask
        if grid.is_su2():
            full = frozenset(range(N + 1))
            for i in range(N + 1):
                T = closure.t_set(N, i)
                for d in range(N + 1):
                    checked += 1
                    cl = _zstar_table(grid, d)[_mask(T)]
                    want = T if i <= d else full
                    if cl != want:
                        return fail(
                            grid, d, sorted(T), "two-sided-interval",
                            closure=sorted(cl), expected=sorted(want),
                        )
    return SuiteResult("closure-laws", True, checked)


def _sampled_instance(grid: UniformGrid, pts: list, picks: list[int]) -> tuple:
    """A sampled point set, by the one-shot routes: (mask, ord_str, footprint)."""
    A = [pts[i] for i in picks]
    return (
        _mask(picks),
        shattering.ord_str(grid, A).members,
        shattering.standard_monomials(grid, A).members,
    )


def _suite_shattering(limits: Limits) -> SuiteResult:
    """Order shattering against the footprint scan, point set by point set."""
    checked = 0
    for grid in verification_family(limits.max_points, limits.max_cube):
        pts = list(grid.points())
        n = len(pts)
        # Point sets as masks: bit i is the i-th point in lex order.
        if n <= 16:
            instances = (
                (mask, shattering.ord_str_mask(grid, mask), sm)
                for mask, sm in enumerate(shattering.footprint_sweep(grid))
            )
        elif n <= 27:
            rng = random.Random(f"{limits.seed}:shattering:{grid.spec()}")
            instances = (
                _sampled_instance(grid, pts, rng.sample(range(n), rng.randint(0, n)))
                for _ in range(limits.shatter_samples)
            )
        else:
            continue
        for mask, shattered, sm in instances:
            checked += 1
            if shattered != sm or len(shattered) != mask.bit_count():
                return SuiteResult(
                    "shattering",
                    False,
                    checked,
                    {
                        "grid": grid.spec(),
                        "points": _points_json(
                            p for i, p in enumerate(pts) if mask >> i & 1
                        ),
                        "ordstr": _points_json(shattered),
                        "sm": _points_json(sm),
                    },
                )
    return SuiteResult("shattering", True, checked)


def _suite_layers(limits: Limits) -> SuiteResult:
    """Shattered sets and standard monomials of layers, nested up the middle."""
    checked = 0
    for grid in verification_family(limits.max_points, limits.max_cube):
        if grid.size > limits.max_points:
            continue
        mid = grid.max_weight // 2
        shattered = [
            shattering.ord_str(grid, set(grid.layer(i))).members
            for i in range(mid + 1)
        ]
        sm = [
            shattering.standard_monomials(grid, set(grid.layer(i))).members
            for i in range(mid + 1)
        ]
        for j in range(mid + 1):
            for i in range(j + 1):
                checked += 1
                restricted = frozenset(
                    b for b in shattered[j] if weight(b) <= i
                )
                if shattered[i] != restricted:
                    return SuiteResult(
                        "layers",
                        False,
                        checked,
                        {
                            "grid": grid.spec(),
                            "low": i,
                            "high": j,
                            "law": "restriction",
                            "low_layer": _points_json(shattered[i]),
                            "high_restricted": _points_json(restricted),
                        },
                    )
                checked += 1
                if not sm[i] <= sm[j]:
                    return SuiteResult(
                        "layers",
                        False,
                        checked,
                        {
                            "grid": grid.spec(),
                            "low": i,
                            "high": j,
                            "law": "nesting",
                            "low_layer": _points_json(sm[i]),
                            "high_layer": _points_json(sm[j]),
                        },
                    )
    return SuiteResult("layers", True, checked)


def _suite_digression(limits: Limits) -> SuiteResult:
    """Hilbert values separate sets the weight multiset alone cannot."""
    grid = make_grid((3, 3))
    base = hilbert.hilbert_closed(grid, 1, (2,))
    checked = 0
    for a in (0, 1, 3, 4):
        checked += 1
        enlarged = hilbert.hilbert_closed(grid, 1, (a, 2))
        if enlarged <= base:
            return SuiteResult(
                "digression",
                False,
                checked,
                {
                    "grid": grid.spec(),
                    "degree": 1,
                    "added": a,
                    "pair": str(enlarged),
                    "single": str(base),
                },
            )
    return SuiteResult("digression", True, checked)


SUITES = {
    "grid-hilbert": _suite_grid_hilbert,
    "cube": _suite_cube,
    "wilson": _suite_wilson,
    "up-rank": _suite_up_rank,
    "factorization": _suite_factorization,
    "tail-collapse": _suite_tail_collapse,
    "interval-rank": _suite_interval_rank,
    "zstar-lbar": _suite_zstar_lbar,
    "closure-laws": _suite_closure_laws,
    "shattering": _suite_shattering,
    "layers": _suite_layers,
    "digression": _suite_digression,
}


def verify_suite(name: str, limits: Limits = Limits()) -> SuiteResult:
    """Run one registered suite; the result carries the first counterexample."""
    try:
        runner = SUITES[name]
    except KeyError:
        known = ", ".join(SUITES)
        raise UnknownSuite(f"unknown suite {name!r}; choose from: {known}, all")
    return runner(limits)
