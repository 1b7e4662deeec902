"""Finite-degree closures of weight-determined sets.

Two routes to the same object.  The brute-force route declares a point
x closed into A when no polynomial of degree at most d vanishing on A
separates x, i.e. when the evaluation column of x under the binomials
C(x, alpha) = x^(alpha) / alpha! of weight <= d, the falling factorials
rescaled, lies in the exact span of the columns of A
(linalg.layer_span); applied layerwise this gives the weight-set
closure of one set.  Its sweep form answers every weight set of a grid
and degree by the equivalent rank criterion: weight j is in the closure
of E exactly when adding layer j leaves the rank unchanged, which it
reads off the ranks of hilbert.rank_oracle_sweep.  The combinatorial
route iterates an interval-filling step operator on the weight set until
it stabilizes.  On grids whose layer-size table is strictly unimodal
with a flat middle pair the two routes agree, and the package keeps both
so the agreement is observable rather than assumed.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, NamedTuple

from .errors import WeightOutOfRange
from .grid import Point, UniformGrid, _in_range, check_degree, check_weight_set
from .hilbert import rank_oracle_sweep
from .linalg import layer_span


def l_step(N: int, d: int, E: Iterable[int]) -> frozenset[int]:
    """One interval-filling step on a weight set inside [0, N].

    With E = {t_1 < ... < t_s}: sets of at most d weights are fixed;
    otherwise the result is [0, t_{s-d}] together with E together with
    [t_{d+1}, N].
    """
    check_degree(d, N)
    t = check_weight_set(E, N)
    s = len(t)
    if s <= d:
        return frozenset(t)
    out = set(t)
    out.update(range(t[s - d - 1] + 1))
    out.update(range(t[d], N + 1))
    return frozenset(out)


def _l_fixpoint(N: int, d: int, E: Iterable[int]) -> tuple[frozenset[int], int]:
    cur = frozenset(check_weight_set(E, N))
    steps = 0
    while True:
        nxt = l_step(N, d, cur)
        if nxt == cur:
            return cur, steps
        cur = nxt
        steps += 1


def l_bar(N: int, d: int, E: Iterable[int]) -> frozenset[int]:
    """Fixpoint of the step operator, reached in at most N + 1 steps."""
    return _l_fixpoint(N, d, E)[0]


def t_set(N: int, i: int) -> frozenset[int]:
    """The two end blocks [0, i-1] and [N-i+1, N] as one weight set."""
    _in_range(i, N, "block size", WeightOutOfRange)
    return frozenset(range(i)) | frozenset(range(N - i + 1, N + 1))


def z_closure_points(
    grid: UniformGrid, d: int, points: Iterable[Point]
) -> frozenset[Point]:
    """All grid points every degree-<=d polynomial vanishing on the set kills."""
    span, layers = layer_span(grid, d)
    pts = {grid.check_point(p) for p in points}
    columns = dict(zip(grid.unfold(range(grid.max_weight + 1)), chain(*layers)))
    span.extend(v for x, v in columns.items() if x in pts)
    return frozenset(x for x, v in columns.items() if x in pts or v in span)


def zstar_closure(grid: UniformGrid, d: int, E: Iterable[int]) -> frozenset[int]:
    """Weights whose whole layer lies in the point closure of the unfolded set."""
    E = tuple(E)
    span, layers = layer_span(grid, d, E)
    return frozenset(
        j for j, layer in enumerate(layers) if j in E or all(v in span for v in layer)
    )


def zstar_sweep(grid: UniformGrid, d: int) -> Iterator[frozenset[int]]:
    """zstar_closure(grid, d, E) for every weight set E, E given by the bits
    of mask in range(1 << (N + 1)), in mask order.

    Layer j's columns all lie in the span of E's exactly when adding
    them leaves the rank unchanged, h_d(E | {j}) == h_d(E), so the
    closures are read off the ranks of rank_oracle_sweep with no
    membership test; a weight of E passes at once.
    """
    ranks = list(rank_oracle_sweep(grid, d))
    weights = range(grid.max_weight + 1)
    for mask, r in enumerate(ranks):
        yield frozenset(j for j in weights if ranks[mask | 1 << j] == r)


class ClosureReport(NamedTuple):
    """Both closure routes for one input, plus the step count to the fixpoint."""

    input: tuple[int, ...]
    lbar: tuple[int, ...]
    zstar: tuple[int, ...]
    iterations: int


def closure_report(grid: UniformGrid, d: int, E: Iterable[int]) -> ClosureReport:
    N = grid.max_weight
    members = check_weight_set(E, N)
    fix, steps = _l_fixpoint(N, d, members)
    zs = zstar_closure(grid, d, members)
    return ClosureReport(
        input=members,
        lbar=tuple(sorted(fix)),
        zstar=tuple(sorted(zs)),
        iterations=steps,
    )
