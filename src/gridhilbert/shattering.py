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
size a popcount, and its cuts are tried by ascending v, skipping a cut
whose lower part repeats the previous one and stopping once the lower
part is the whole group.  ord_str is the one-shot route, the plain
recursion with a memo that lives for one call, and order_shatters asks
whether b is in its answer.  The shattering sweep answers every point
set of a grid of at most 16 points in mask order: both parts of a cut
are nonempty proper submasks of the set, so one table filled in
increasing mask order holds both recursive answers before they are read.
Since order shattering is monotone in the set, the sweep seeds each
set's row with the rows of two of its proper submasks and tests a
multiset only when the row already holds both its recursion targets.

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
from array import array
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import EmptyMultiset, GridTooLarge
from .grid import Point, UniformGrid
from .linalg import _GRID_CACHE_SIZE, Span, binomial_rows, pivot_sweep


def tau(b: Iterable[int]) -> int:
    """Largest position (1-based) with a nonzero entry."""
    b = tuple(b)
    for i in range(len(b) - 1, -1, -1):
        if b[i] >= 1:
            return i + 1
    raise EmptyMultiset("the all-zero multiset has no largest element")


def downset_size(b: Iterable[int]) -> int:
    """Number of componentwise-smaller-or-equal exponents: prod (b_i + 1)."""
    return math.prod(v + 1 for v in b)


@lru_cache(maxsize=_GRID_CACHE_SIZE)
def _shatter_tables(grid: UniformGrid) -> tuple[dict[Point, int], tuple]:
    """Bit of each point, and per multiset b, indexed like the points, its
    downset size, the group and cut masks of t = tau(b) - 1, and the
    indices of b with b[t] lowered to 0 and to b[t] - 1."""
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
        t = tau(b) - 1
        s, groups, cuts = tables[t]
        steps.append((downset_size(b), groups, cuts, j - b[t] * s, j - s))
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
        if group.bit_count() < need:
            continue
        prev = 0
        for cut in cuts:
            lower = group & cut
            if lower == prev:
                continue
            if lower == group:
                break
            prev = lower
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
    the call.  This route keeps the plain recursion, without the
    monotonicity pruning of shattering_sweep: the sweep is checked
    against it, so it must not rest on the lemma that prunes the sweep.
    A one-shot call tests each multiset once, so pruning would save it
    little.
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
    in lex order.  The answers fill one table sh[S] in increasing mask
    order.  Each cut of _shatters splits a group of S into a nonempty
    upper and lower part, both proper submasks of S, so both recursive
    calls become bit tests on entries already filled.  The cut loop is
    _shatters' own, inlined: a generator of splits shared by the two gave
    the same answers but made the 4,4 sweep 1.4 to 2.4 times as slow.
    Grids of more than 16 points are refused: the table has 2^|grid|
    entries of 16 bits.

    Most tests are pruned by one lemma: if S is a subset of S' and S
    order-shatters b, then S' order-shatters b.  Proof, by induction on
    b's lex index (b = 0 is S' being nonempty): S' & G contains S & G, so
    the size bound still holds.  At the cut where S shatters b, the parts
    of S' contain the parts of S, which are nonempty and, by induction,
    still shatter their targets, whose indices are lower.  So the
    `lower == group` break cannot come first, and a `lower == prev` skip
    only repeats a split already tried.  Hence if S shatters b != 0, S
    also shatters both recursion targets, since a part of S shatters
    each.  The row of S starts as the union of the rows of S without its
    lowest bit and S without its highest, two proper submasks already
    filled.  Only the multisets outside it whose downset fits in |S|,
    fits[|S|], are tested, in ascending index, and one is skipped unless
    the row already holds both its targets: their indices are lower, so
    the row is final there.
    """
    n = grid.size
    if n > 16:
        raise GridTooLarge(f"the shattering sweep takes at most 16 points, not {n}")
    steps = _shatter_tables(grid)[1]
    fits = [sum(1 << j for j in range(1, n) if steps[j][0] <= s) for s in range(n + 1)]
    sh = array("H", bytes(2 << n))
    yield sh[0]
    for S in range(1, 1 << n):
        row = 1 | sh[S & (S - 1)] | sh[S ^ 1 << S.bit_length() - 1]
        todo = fits[S.bit_count()] & ~row
        while todo:
            j = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            need, groups, cuts, j_deleted, j_removed = steps[j]
            if not row >> j_deleted & row >> j_removed & 1:
                continue
            for G in groups:
                group = S & G
                if group.bit_count() < need:
                    continue
                prev = 0
                for cut in cuts:
                    lower = group & cut
                    if lower == prev:
                        continue
                    if lower == group:
                        break
                    prev = lower
                    if sh[group ^ lower] >> j_deleted & 1 and sh[lower] >> j_removed & 1:
                        row |= 1 << j
                        break
                if row >> j & 1:
                    break
        sh[S] = row
        yield row


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
