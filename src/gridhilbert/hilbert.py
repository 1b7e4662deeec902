"""Affine Hilbert functions of weight-determined sets.

The dimension of the space of functions cut out on a union of layers by
polynomials of degree at most d has a closed form: layers of weight at
most d contribute their full size, and the remaining layers are matched
against the unused weights of [0, d], largest against smallest, each
pair contributing the smaller layer size.  be_enumeration is that
pairing, and hilbert_profile lists it by layer weight.  The rank oracle
computes the same dimension directly as the rank of the points'
evaluation columns (linalg.layer_span) under the binomials C(x, alpha) =
x^(alpha) / alpha! of weight at most d, which span the same functions as
the falling factorials, and exists so the closed form is checkable
instance by instance.  Its sweep form
answers every weight set of one grid and degree in mask order, sharing
each set's prefix on one Span (linalg.subset_sweep).  rank_block ranks
the rows that linalg.binomial_rows builds for its own exponents and
points, so no table layout is known here.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import linalg
from .errors import (
    DegreeOutOfRange,
    DuplicateEntries,
    LengthMismatch,
    SetTooSmall,
)
from .grid import UniformGrid, check_degree, check_weight_set


class BEEnumeration(NamedTuple):
    """Pairing data for a degree d and weight set E inside [0, N].

    t_desc lists [0, d] minus E in decreasing order, w_asc lists E minus
    [0, d] in increasing order, and kept is the intersection of E with
    [0, d].
    """

    t_desc: tuple[int, ...]
    w_asc: tuple[int, ...]
    kept: tuple[int, ...]


def be_enumeration(N: int, d: int, E: Iterable[int]) -> BEEnumeration:
    check_degree(d, N)
    members = check_weight_set(E, N)
    kept = tuple(w for w in members if w <= d)
    return BEEnumeration(
        t_desc=tuple(t for t in range(d, -1, -1) if t not in kept),
        w_asc=members[len(kept):],
        kept=kept,
    )


def hilbert_layer(grid: UniformGrid, d: int, w: int) -> int:
    """min(sizes[d], sizes[w]) for two weights of the grid.

    This display equals the single-layer Hilbert value
    hilbert_closed(grid, d, (w,)) whenever d <= N // 2 or w >= d.
    Otherwise it can undershoot: the value is sizes[w] whenever w <= d,
    so the display is exact there only when sizes[w] <= sizes[d].  The
    smallest gap is the 2x2 grid at d = 2 and w = 1, where the value is
    2 and the display is min(1, 2) = 1.
    """
    sizes = grid.layer_sizes
    return min(sizes[check_degree(d, grid.max_weight)], sizes[grid.check_weight(w)])


def hilbert_closed(grid: UniformGrid, d: int, E: Iterable[int]) -> int:
    """Closed-form Hilbert function of the weight-determined set E at degree d."""
    N = grid.max_weight
    sizes = grid.layer_sizes
    be = be_enumeration(N, d, E)
    total = sum(sizes[w] for w in be.kept)
    total += sum(min(sizes[t], sizes[w]) for t, w in zip(be.t_desc, be.w_asc))
    return total


def hilbert_rank_oracle(grid: UniformGrid, d: int, E: Iterable[int]) -> int:
    """The same dimension as an exact matrix rank, computed independently."""
    return linalg.layer_span(grid, d, E)[0].rank


def rank_oracle_sweep(grid: UniformGrid, d: int) -> Iterator[int]:
    """hilbert_rank_oracle(grid, d, E) for every weight set E, E given by
    the bits of mask in range(1 << (N + 1)), in mask order."""
    yield from linalg.subset_sweep(*linalg.layer_span(grid, d))


def hilbert_cube_closed(n: int, d: int, E: Iterable[int]) -> int:
    """Closed form specialized to the Boolean cube: layer sizes are binomials."""
    cube(n)
    be = be_enumeration(n, d, E)
    total = sum(comb(n, w) for w in be.kept)
    total += sum(min(comb(n, t), comb(n, w)) for t, w in zip(be.t_desc, be.w_asc))
    return total


def hilbert_profile(N: int, d: int, E: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """Pairs (u, v) of be_enumeration(N, d, E) in increasing u.

    Each kept weight u pairs with itself, and the members of E beyond d,
    increasing, pair with t_desc.  So the u's are the d+1 smallest
    members of E and the v's a rearrangement of [0, d].  Requires
    |E| >= d + 1.
    """
    be = be_enumeration(N, d, E)
    size = len(be.kept) + len(be.w_asc)
    if size < d + 1:
        raise SetTooSmall(f"need {d + 1} or more weights, got {size}")
    return tuple((u, u) for u in be.kept) + tuple(zip(be.w_asc, be.t_desc))


def is_interval_compatible(c: int, d: int, values: Sequence[int]) -> bool:
    """Whether (w_t) for t in [c, d] is a compatible assignment of weights.

    The conditions: w_t >= t for every t; any w_t different from t lies
    beyond d; and the off-interval values strictly decrease as t grows.
    The interval may be empty (c == d + 1) but may not start below 0.
    """
    if c < 0 or c > d + 1:
        raise LengthMismatch(f"invalid interval [{c}, {d}]")
    values = tuple(values)
    if len(values) != d - c + 1:
        raise LengthMismatch(
            f"expected {d - c + 1} values for [{c}, {d}], got {len(values)}"
        )
    if len(set(values)) != len(values):
        raise DuplicateEntries("interval assignment repeats a value")
    ts = range(c, d + 1)
    for t, w in zip(ts, values):
        if w < t:
            return False
        if w != t and w <= d:
            return False
    off = [w for w in values if not c <= w <= d]
    return all(a > b for a, b in zip(off, off[1:]))


def rank_block(
    grid: UniformGrid, row_weights: Iterable[int], col_weights: Iterable[int]
) -> int:
    """Exact rank of the evaluation matrix between two weight-determined sets."""
    rows, cols = grid.unfold(row_weights), grid.unfold(col_weights)
    return len(linalg.Span(len(cols)).extend(linalg.binomial_rows(rows, cols)))


def cube(n: int) -> UniformGrid:
    """The Boolean cube as a grid: n binary coordinates."""
    if not isinstance(n, int) or n < 1:
        raise DegreeOutOfRange(f"cube dimension {n!r} must be a positive integer")
    return UniformGrid((2,) * n)
