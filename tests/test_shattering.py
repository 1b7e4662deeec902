import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mask_points, off_family
from test_linalg import _greedy_columns

from gridhilbert import (
    EmptyMultiset,
    PointNotInGrid,
    UniformGrid,
    ord_str,
    order_shatters,
    standard_monomials,
)
from gridhilbert.shattering import downset_size, tau


def is_downward_closed(points):
    """Whether every coordinate decrement of a member is a member too."""
    members = set(points)
    return all(
        p[:i] + (v - 1,) + p[i + 1 :] in members
        for p in members
        for i, v in enumerate(p)
        if v
    )


def test_tau():
    assert tau((1, 0)) == 1
    assert tau((0, 1)) == 2
    assert tau((2, 1, 0)) == 2
    assert tau((0, 0, 3)) == 3
    with pytest.raises(EmptyMultiset):
        tau((0, 0))
    with pytest.raises(EmptyMultiset):
        tau(())


def test_downset_size():
    assert downset_size(()) == 1
    assert downset_size((0, 0)) == 1
    assert downset_size((1, 1)) == 4
    assert downset_size((2, 0, 3)) == 12


def test_shatters_small_cases():
    grid = UniformGrid((2, 2))
    pts = list(grid.points())
    assert order_shatters(grid, pts, (1, 1))
    assert order_shatters(grid, ((0, 0),), (0, 0))
    assert not order_shatters(grid, (), (0, 0))
    assert not order_shatters(grid, ((0, 0),), (1, 0))
    corners = ((0, 0), (0, 1), (1, 0))
    assert order_shatters(grid, corners, (1, 0))
    assert order_shatters(grid, corners, (0, 1))
    assert not order_shatters(grid, corners, (1, 1))


def test_shatters_rejects_foreign_multisets():
    grid = UniformGrid((2, 2))
    with pytest.raises(PointNotInGrid):
        order_shatters(grid, ((0, 0),), (0, 2))
    # A foreign point of A is reported before a foreign multiset.
    with pytest.raises(PointNotInGrid, match=r"^\(0, 2\) is not a point"):
        order_shatters(grid, ((0, 0), (0, 2)), (3, 0))


def test_ord_str_frozen_examples():
    grid = UniformGrid((2, 2))
    assert set(ord_str(grid, ())) == set()
    assert set(ord_str(grid, grid.layer(1))) == {(0, 0), (0, 1)}
    grid = UniformGrid((3, 3))
    assert set(ord_str(grid, grid.points())) == set(grid.points())


def test_standard_monomials_frozen_examples():
    grid = UniformGrid((3, 3))
    assert set(standard_monomials(grid, ((1, 2),))) == {(0, 0)}
    assert set(standard_monomials(grid, grid.layer(2))) == {(0, 0), (0, 1), (0, 2)}
    grid = UniformGrid((2, 2))
    assert set(standard_monomials(grid, ((0, 0), (1, 1)))) == {(0, 0), (0, 1)}


def _power_basis_footprint(grid, A):
    """The definition: the greedy lex scan over the values x**alpha, by
    Fraction rank, one column per grid exponent in lex order."""
    exponents = list(grid.points())
    pts = sorted(set(A))
    entries = [
        [math.prod(a**e for a, e in zip(x, alpha)) for alpha in exponents]
        for x in pts
    ]
    return {exponents[j] for j in _greedy_columns(entries, len(exponents))}


def test_standard_monomials_match_the_power_basis_scan():
    for arities in [(2, 2), (3, 2), (2, 3), (2, 2, 2)]:
        grid = UniformGrid(arities)
        pts = list(grid.points())
        for mask in range(1 << len(pts)):
            A = mask_points(pts, mask)
            assert set(standard_monomials(grid, A)) == _power_basis_footprint(grid, A)
    rng = random.Random(20261018)
    grid = UniformGrid((4, 3, 2))
    pts = list(grid.points())
    for _ in range(16):
        A = rng.sample(pts, rng.randint(0, len(pts)))
        assert set(standard_monomials(grid, A)) == _power_basis_footprint(grid, A)


def test_downset_container_protocol():
    grid = UniformGrid((2, 2))
    ds = ord_str(grid, grid.layer(1))
    assert len(ds) == 2
    assert (0, 1) in ds
    assert (1, 0) not in ds
    assert sorted(ds) == [(0, 0), (0, 1)]


def test_routes_agree_exhaustively():
    """Shattering recursion vs the lex footprint scan, every subset.

    The two-coordinate grids deliberately put the larger arity first so
    the coordinate order in the recursion gets exercised both ways.
    """
    for arities in [(3, 2), (4, 2), (2, 2, 2)]:
        grid = UniformGrid(arities)
        pts = list(grid.points())
        for mask in range(1 << len(pts)):
            A = frozenset(mask_points(pts, mask))
            shattered = set(ord_str(grid, A))
            assert shattered == set(standard_monomials(grid, A))
            assert len(shattered) == len(A)
            assert is_downward_closed(shattered)


def _reference_shatters(S, b, memo):
    """Order shattering on frozensets of points, straight from the definition."""
    if not any(b):
        return bool(S)
    need = downset_size(b)
    if len(S) < need:
        return False
    key = (S, b)
    cached = memo.get(key)
    if cached is not None:
        return cached
    t = tau(b) - 1
    b_deleted = b[:t] + (0,) + b[t + 1 :]
    b_removed = b[:t] + (b[t] - 1,) + b[t + 1 :]
    by_tail = {}
    for a in S:
        by_tail.setdefault(a[t + 1 :], []).append(a)
    result = False
    for group in by_tail.values():
        if len(group) < need:
            continue
        cuts = sorted({a[t] for a in group})
        for v in cuts[1:]:
            lower = frozenset(a for a in group if a[t] < v)
            upper = frozenset(a for a in group if a[t] >= v)
            if _reference_shatters(upper, b_deleted, memo) and _reference_shatters(
                lower, b_removed, memo
            ):
                result = True
                break
        if result:
            break
    memo[key] = result
    return result


def test_bitmask_recursion_matches_frozenset_reference():
    """ord_str and order_shatters against the frozenset recursion, every subset."""
    for arities in [(2, 3), (3, 3)]:
        grid = UniformGrid(arities)
        pts = list(grid.points())
        for mask in range(1 << len(pts)):
            A = frozenset(mask_points(pts, mask))
            memo = {}
            expected = {b for b in pts if _reference_shatters(A, b, memo)}
            assert set(ord_str(grid, A)) == expected
            for b in pts:
                assert order_shatters(grid, list(A) * 2, b) == (b in expected)


def test_routes_agree_random_larger_grids():
    rng = random.Random(91125)
    for arities in [(3, 3), (2, 3, 2), (4, 3)]:
        grid = UniformGrid(arities)
        pts = list(grid.points())
        for _ in range(60):
            A = frozenset(rng.sample(pts, rng.randint(0, len(pts))))
            assert set(ord_str(grid, A)) == set(standard_monomials(grid, A))


def _classical_shatters(family, S):
    """Set-family order shattering, written directly from the set recursion."""
    if not S:
        return bool(family)
    s = max(S)
    rest = S - {s}
    groups = {}
    for member in family:
        groups.setdefault(frozenset(x for x in member if x > s), []).append(member)
    for group in groups.values():
        g_in = frozenset(m for m in group if s in m)
        g_out = frozenset(m for m in group if s not in m)
        if _classical_shatters(g_in, rest) and _classical_shatters(g_out, rest):
            return True
    return False


def _as_set(point):
    return frozenset(i + 1 for i, v in enumerate(point) if v)


def test_cube_recursion_matches_classical_set_version():
    grid = UniformGrid((2, 2, 2))
    pts = list(grid.points())
    for mask in range(1 << len(pts)):
        A = mask_points(pts, mask)
        family = frozenset(_as_set(p) for p in A)
        for b in grid.points():
            assert order_shatters(grid, A, b) == _classical_shatters(
                family, set(_as_set(b))
            )


def test_cube_recursion_matches_classical_random():
    grid = UniformGrid((2, 2, 2, 2))
    pts = list(grid.points())
    rng = random.Random(163)
    for _ in range(120):
        A = rng.sample(pts, rng.randint(0, len(pts)))
        family = frozenset(_as_set(p) for p in A)
        for b in grid.points():
            assert order_shatters(grid, A, b) == _classical_shatters(
                family, set(_as_set(b))
            )


def test_shattering_monotone_in_the_set():
    grid = UniformGrid((3, 3))
    pts = list(grid.points())
    rng = random.Random(5)
    for _ in range(40):
        B = rng.sample(pts, rng.randint(1, len(pts)))
        A = rng.sample(B, rng.randint(0, len(B)))
        assert set(ord_str(grid, A)) <= set(ord_str(grid, B))


def test_layer_standard_monomials_are_complement_stable():
    for arities in [(3, 3), (2, 3), (2, 2, 2)]:
        grid = UniformGrid(arities)
        N = grid.max_weight
        for i in range(N + 1):
            low = set(standard_monomials(grid, grid.layer(i)))
            high = set(standard_monomials(grid, grid.layer(N - i)))
            assert low == high


def test_is_downward_closed():
    assert is_downward_closed([])
    assert is_downward_closed([(0, 0), (0, 1), (1, 0)])
    assert not is_downward_closed([(0, 1)])
    assert not is_downward_closed([(0, 0), (1, 1)])


@st.composite
def _grid_and_points(draw):
    grid = UniformGrid(draw(st.sampled_from(off_family(40, 6, False))))
    pool = st.sampled_from(list(grid.points()))
    points = draw(st.lists(pool, max_size=10, unique=True))
    return grid, points


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(_grid_and_points())
def test_routes_agree_on_grids_outside_the_family(case):
    grid, A = case
    shattered = ord_str(grid, A)
    assert shattered == standard_monomials(grid, A)
    assert len(shattered) == len(A)


@st.composite
def _grid_set_and_member(draw):
    grid, points = draw(_grid_and_points().filter(lambda case: case[1]))
    return grid, points, draw(st.sampled_from(points))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_grid_set_and_member())
def test_shattering_is_monotone_and_holds_both_recursion_targets(case):
    """The lemma that prunes shattering_sweep, on the one-shot route: a
    subset shatters no more than its set, and a set that shatters b != 0
    also shatters both recursion targets of b."""
    grid, A, x = case
    shattered = ord_str(grid, A)
    assert ord_str(grid, [p for p in A if p != x]) <= shattered
    for b in shattered:
        if any(b):
            t = tau(b) - 1
            assert b[:t] + (0,) + b[t + 1 :] in shattered
            assert b[:t] + (b[t] - 1,) + b[t + 1 :] in shattered
