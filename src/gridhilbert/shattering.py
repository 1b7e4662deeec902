"""Order shattering over grid multisets and standard monomials.

A grid point b is read as a multiset over the coordinate positions:
position i occurs b(i) times, and tau(b) is the largest position that
occurs at all.  Order shattering is defined recursively: every nonempty
set shatters the empty multiset, and A shatters b when, among the
members of A sharing one fixed tail beyond tau(b), a cut at coordinate
tau(b) produces an upper part and a lower part whose sizes sum to at
least the number of sub-multisets of b, with the upper part shattering
b with position tau(b) deleted and the lower part shattering b with one
copy of tau(b) removed.  On binary coordinates both recursion targets
coincide and the cut forces the upper part to contain tau(b) and the
lower part to avoid it, which is the classical set-family notion.

The recursion runs on bitmasks: bit i of a Python int stands for the
i-th grid point in lex order.  Per coordinate t, a grid's tables hold
the masks G of the tail groups (points sharing a[t+1:]) and the cut
masks {a : a[t] < v} for v = 1 .. k_t - 1.  A group of S is S & G, its
size a popcount, and A shatters b when some group and cut, tried by
ascending v, give two parts that shatter their targets.  No cut needs
to be skipped: the empty set shatters nothing, so a cut that leaves a
part empty fails, and a cut whose parts repeat the previous cut's gives
the same answer again.  The downset size prod(b_i + 1) is the sum of
the two targets' downset sizes, so by induction a set that shatters b
has at least that many points.  ord_str is the one-shot route: that
recursion one set at a time, with the downset size as a bound on the
set and on each group, and a memo that lives for one call;
order_shatters asks whether b is in its answer.  The shattering sweep
answers every point set of a grid of at most 16 points in mask order.
It runs the same recursion, without the bounds, on every set at once:
per multiset, one truth table with a bit per point set, filled in lex
index order, since both recursion targets come earlier.  A part of a
cut is a restriction of the set to the part's mask, so a part's answers
are the target's table read at S & mask.

Standard monomials are computed by a separate route with no shattering
in it: scan the monomials X^alpha for alpha in the grid in ascending lex
order, add each one's evaluation column over A to an exact linalg.Span,
keep those that enlarge it, and stop once |A| are kept.  The columns
hold binomial values C(x, alpha) = x^(alpha) / alpha!
(linalg.binomial_rows), not powers, and both scans keep the same
exponents: the falling factorial x^(alpha) is x^alpha plus multiples of
x^beta with beta <= alpha componentwise and beta != alpha, each
lex-smaller than alpha, so the first m exponents in lex order span the
same column space in either basis, and dividing each column by the
nonzero alpha! changes no span.  The footprint sweep gives the same
sets, as masks, for every point set of a grid in mask order by plain
linear algebra: it feeds each point's row of all grid binomials to
linalg.pivot_sweep, and the row pivots, the lex-first column basis, are
the standard monomials.  The two routes coincide on every set of grid
points, and that equality is part of the verification surface of this
package rather than an assumption of the code.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import GridTooLarge
from .grid import Point, UniformGrid
from .linalg import _GRID_CACHE_SIZE, Span, binomial_rows, pivot_sweep

# The binary digits of a truth table, as one byte per set.
_BITS = bytes.maketrans(b"01", b"\0\1")


@lru_cache(maxsize=_GRID_CACHE_SIZE)
def _shatter_tables(grid: UniformGrid) -> tuple[dict[Point, int], tuple]:
    """Bit of each point, and per multiset b, indexed like the points, its
    downset size prod(b_i + 1), the group and cut masks of its last
    nonzero position t, and the indices of b with b[t] lowered to 0 and
    to b[t] - 1."""
    n = grid.size
    tables = []
    for t, k in enumerate(grid.arities):
        s = math.prod(grid.arities[t + 1 :])
        groups = tuple(sum(1 << i for i in range(r, n, s)) for r in range(s))
        cuts = tuple(sum(1 << i for i in range(n) if i // s % k < v) for v in range(1, k))
        tables.append((s, groups, cuts))
    bit = {p: i for i, p in enumerate(grid.points())}
    steps: list[tuple | None] = [None]
    for b, j in list(bit.items())[1:]:
        t = max(i for i, v in enumerate(b) if v)
        s, groups, cuts = tables[t]
        steps.append((math.prod(v + 1 for v in b), groups, cuts, j - b[t] * s, j - s))
    return bit, tuple(steps)


def _shatters(steps: tuple, S: int, j: int, memo: dict[tuple[int, int], bool]) -> bool:
    """Whether the point set with mask S order-shatters the multiset of index j."""
    if not j:
        return S != 0
    need, groups, cuts, j_deleted, j_removed = steps[j]
    if S.bit_count() < need:
        return False
    if (cached := memo.get((S, j))) is not None:
        return cached
    for G in groups:
        group = S & G
        if group.bit_count() >= need:
            for cut in cuts:
                lower = group & cut
                if _shatters(steps, group ^ lower, j_deleted, memo) and _shatters(
                    steps, lower, j_removed, memo
                ):
                    memo[S, j] = True
                    return True
    memo[S, j] = False
    return False


def ord_str(grid: UniformGrid, A: Iterable[Point]) -> frozenset[Point]:
    """All multisets the point set order-shatters.

    Every multiset of the grid is tested on its own, with one memo for
    the call.
    """
    bit, steps = _shatter_tables(grid)
    S = sum({1 << bit[grid.check_point(p)] for p in A})
    memo: dict[tuple[int, int], bool] = {}
    return frozenset(b for b, j in bit.items() if _shatters(steps, S, j, memo))


def order_shatters(grid: UniformGrid, A: Iterable[Point], b: Iterable[int]) -> bool:
    """Whether the point set A order-shatters the multiset b: b in ord_str(grid, A).

    A's points are checked before b, so a foreign point of A is the one
    reported.
    """
    shattered = ord_str(grid, A)
    return grid.check_point(b) in shattered


def shattering_sweep(grid: UniformGrid) -> Iterator[int]:
    """ord_str(grid, A) as a mask, for every point set A in mask order.

    Bit i of a mask, both of A's and of the answer, is the i-th grid point
    in lex order.  This is _shatters run on every set at once, with truth
    tables as integers (Knuth, TAOCP 4A, 7.1.3): bit S of the 2^n-bit
    table T[j] says whether the set S order-shatters multiset j.  T[0]
    holds every nonempty set, and T[j] is the OR over each group G and
    cut of restrict(T[j_deleted], G & ~cut) & restrict(T[j_removed],
    G & cut), where restrict(T, M) reads bit S of T at S & M: for each
    point outside M it copies the half of T without the point onto the
    half with it.  Both targets have lower indices, so the tables fill in
    index order.  An empty part reads bit 0, which no table holds.
    The tables are then transposed: multiset j goes to bit j & 7 of byte
    plane j >> 3, which holds one byte per set.  Grids of more than 16
    points are refused before any table is built.
    """
    n = grid.size
    if n > 16:
        raise GridTooLarge(f"the shattering sweep takes at most 16 points, not {n}")
    steps = _shatter_tables(grid)[1]
    sets = 1 << n
    # clear[i] holds the sets without point i: runs of 2^i ones and 2^i zeros.
    clear = [
        ((1 << sets) - 1) // ((1 << (2 << i)) - 1) * ((1 << (1 << i)) - 1) for i in range(n)
    ]

    def restrict(t: int, M: int) -> int:
        for i in range(n):
            if not M >> i & 1:
                t &= clear[i]
                t |= t << (1 << i)
        return t

    T = [(1 << sets) - 2]
    for _, groups, cuts, j_deleted, j_removed in steps[1:]:
        t = 0
        for G in groups:
            for cut in cuts:
                t |= restrict(T[j_deleted], G & ~cut) & restrict(T[j_removed], G & cut)
        T.append(t)
    planes = [0, 0]
    for j, t in enumerate(T):
        row = format(t, f"0{sets}b")[::-1].encode().translate(_BITS)
        planes[j >> 3] |= int.from_bytes(row, "big") << (j & 7)
    lo, hi = (plane.to_bytes(sets, "big") for plane in planes)
    for a, b in zip(lo, hi):
        yield a | b << 8


def standard_monomials(grid: UniformGrid, A: Iterable[Point]) -> frozenset[Point]:
    """Exponents of the monomials surviving the greedy lex footprint scan over A.

    One column per grid exponent, scanned in ascending lex order; a
    monomial is kept when its evaluation vector over A is independent of
    the vectors of the monomials kept before it.  The result has exactly
    |A| members and is downward closed.
    """
    pts = tuple(sorted({grid.check_point(p) for p in A}))
    exponents = tuple(grid.points())
    kept = Span(len(pts)).extend(binomial_rows(exponents, pts))
    return frozenset(exponents[j] for j in kept)


def footprint_sweep(grid: UniformGrid) -> Iterator[int]:
    """standard_monomials(grid, A) as a mask, for every point set A in mask
    order.  Bit i of a mask, both of A's and of the answer, is the i-th
    grid point in lex order, and so is row i, point i's values under every
    grid binomial: the full grid's table is unitriangular, so the rows are
    independent, as linalg.pivot_sweep asks.
    """
    exponents = tuple(grid.points())
    yield from pivot_sweep(tuple(zip(*binomial_rows(exponents, exponents))))
