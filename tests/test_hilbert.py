"""Closed-form Hilbert function against the rank oracle, plus its corollaries.

The exhaustive sweeps here stay on grids small enough that a full pass over
all weight subsets takes well under a second; the wider randomized sweeps
live in the verification suites.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import off_family

from gridhilbert import (
    DegreeOutOfRange,
    DuplicateEntries,
    LengthMismatch,
    SetTooSmall,
    WeightOutOfRange,
    UniformGrid,
    be_enumeration,
    cube,
    hilbert_closed,
    hilbert_cube_closed,
    hilbert_layer,
    hilbert_profile,
    hilbert_rank_oracle,
    is_interval_compatible,
    l_bar,
    rank_block,
    zstar_closure,
)


def _subsets(n):
    for mask in range(1 << (n + 1)):
        yield tuple(w for w in range(n + 1) if mask >> w & 1)


def test_be_enumeration_frozen_example():
    be = be_enumeration(6, 3, (1, 5, 6))
    assert be.kept == (1,)
    assert be.t_desc == (3, 2, 0)
    assert be.w_asc == (5, 6)


def test_be_enumeration_partitions():
    for d in range(7):
        for E in _subsets(6):
            be = be_enumeration(6, d, E)
            assert sorted(be.kept + be.w_asc) == sorted(E)
            assert sorted(be.kept + be.t_desc) == list(range(d + 1))
            assert list(be.t_desc) == sorted(be.t_desc, reverse=True)
            assert list(be.w_asc) == sorted(be.w_asc)


def test_closed_form_frozen_values():
    grid = UniformGrid((3, 3))
    assert grid.layer_sizes == (1, 2, 3, 2, 1)
    assert hilbert_closed(grid, 1, (2,)) == 2
    assert hilbert_closed(grid, 2, (0, 4)) == 2
    assert hilbert_closed(grid, 1, (1, 3)) == 3
    assert hilbert_closed(grid, 4, (0, 1, 2, 3, 4)) == 9
    assert hilbert_closed(grid, 0, (1, 2, 3)) == 1
    assert hilbert_closed(grid, 3, ()) == 0


def test_closed_form_matches_rank_oracle_exhaustively():
    for arities in [(4,), (3, 3), (2, 4), (2, 2, 2)]:
        grid = UniformGrid(arities)
        N = grid.max_weight
        for d in range(N + 1):
            for E in _subsets(N):
                assert hilbert_closed(grid, d, E) == hilbert_rank_oracle(grid, d, E)


def test_cube_closed_form_agrees_with_general():
    for n in range(1, 5):
        grid = cube(n)
        for d in range(n + 1):
            for E in _subsets(n):
                assert hilbert_cube_closed(n, d, E) == hilbert_closed(grid, d, E)


def test_degenerate_values():
    grid = UniformGrid((2, 3))
    N = grid.max_weight
    for E in _subsets(N):
        assert hilbert_closed(grid, N, E) == sum(grid.layer_sizes[w] for w in E)
        assert hilbert_closed(grid, 0, E) == (1 if E else 0)
        for d in range(N + 1):
            assert hilbert_closed(grid, d, ()) == 0


def test_monotone_in_degree_and_set():
    grid = UniformGrid((3, 3))
    N = grid.max_weight
    for E in _subsets(N):
        values = [hilbert_closed(grid, d, E) for d in range(N + 1)]
        assert values == sorted(values)
    for d in range(N + 1):
        for E in _subsets(N):
            for w in range(N + 1):
                if w not in E:
                    bigger = hilbert_closed(grid, d, E + (w,))
                    assert hilbert_closed(grid, d, E) <= bigger


def test_single_layer_display():
    """min(sizes[d], sizes[w]) is the true value for d in the lower half or w >= d."""
    for arities in [(2, 2), (3, 3), (2, 3), (2, 2, 2), (2, 4), (4, 4)]:
        grid = UniformGrid(arities)
        N = grid.max_weight
        sizes = grid.layer_sizes
        for d in range(N + 1):
            for w in range(N + 1):
                true = hilbert_closed(grid, d, (w,))
                assert true == (sizes[w] if w <= d else min(sizes[d], sizes[w]))
                if d <= N // 2 or w >= d:
                    assert hilbert_layer(grid, d, w) == true


def test_single_layer_display_gap():
    """Above the middle degree the min display can undershoot; the smallest case."""
    grid = UniformGrid((2, 2))
    assert hilbert_closed(grid, 2, (1,)) == 2
    assert hilbert_layer(grid, 2, 1) == 1


def test_single_layer_duality():
    for arities in [(2, 2), (3, 3), (2, 4), (2, 2, 2), (4, 4)]:
        grid = UniformGrid(arities)
        N = grid.max_weight
        for d in range(N + 1):
            for w in range(N + 1):
                assert hilbert_closed(grid, d, (w,)) == hilbert_closed(grid, d, (N - w,))


def test_bad_arguments():
    grid = UniformGrid((3, 3))
    with pytest.raises(DegreeOutOfRange):
        hilbert_closed(grid, 5, (1,))
    with pytest.raises(DegreeOutOfRange):
        hilbert_closed(grid, -1, (1,))
    with pytest.raises(WeightOutOfRange):
        hilbert_closed(grid, 1, (7,))
    with pytest.raises(DegreeOutOfRange, match=r"^degree 5 outside \[0, 4\]$"):
        hilbert_layer(grid, 5, 1)
    with pytest.raises(WeightOutOfRange, match=r"^weight 5 outside \[0, 4\]$"):
        hilbert_layer(grid, 1, 5)
    with pytest.raises(DegreeOutOfRange):
        cube(0)
    with pytest.raises(DegreeOutOfRange, match=r"^degree 4 outside \[0, 3\]$"):
        hilbert_cube_closed(3, 4, (1,))
    with pytest.raises(
        DegreeOutOfRange, match="^cube dimension 0 must be a positive integer$"
    ):
        hilbert_cube_closed(0, 1, ())


def test_profile_frozen_example():
    assert hilbert_profile(4, 2, (1, 3, 4)) == ((1, 1), (3, 2), (4, 0))
    assert hilbert_profile(5, 0, (5,)) == ((5, 0),)
    assert hilbert_profile(6, 2, (0, 1, 2, 6)) == ((0, 0), (1, 1), (2, 2))


def test_profile_structure():
    for d in range(4):
        for E in _subsets(8):
            if len(E) < d + 1:
                continue
            pairs = hilbert_profile(8, d, E)
            assert len(pairs) == d + 1
            us = [u for u, _ in pairs]
            vs = [v for _, v in pairs]
            assert us == sorted(set(E))[: d + 1]
            assert sorted(vs) == list(range(d + 1))
            assert all(v == u for u, v in pairs if u <= d)


def test_profile_requires_enough_weights():
    with pytest.raises(SetTooSmall, match="^need 3 or more weights, got 2$"):
        hilbert_profile(3, 2, (1, 3))


def test_interval_compatibility():
    assert is_interval_compatible(1, 3, (1, 2, 3))
    assert is_interval_compatible(1, 3, (1, 5, 3))
    assert not is_interval_compatible(1, 3, (5, 2, 6))
    assert not is_interval_compatible(1, 3, (0, 2, 3))
    assert not is_interval_compatible(0, 2, (1, 0, 2))
    assert is_interval_compatible(3, 2, ())
    with pytest.raises(LengthMismatch):
        is_interval_compatible(1, 3, (1, 2))
    with pytest.raises(DuplicateEntries):
        is_interval_compatible(1, 3, (1, 5, 5))
    with pytest.raises(LengthMismatch):
        is_interval_compatible(4, 2, ())
    with pytest.raises(LengthMismatch, match=r"invalid interval \[-1, 0\]"):
        is_interval_compatible(-1, 0, (-1, 0))


def test_interval_rank_hand_instance():
    grid = UniformGrid((3, 3))
    assert is_interval_compatible(1, 2, (1, 4))
    assert rank_block(grid, (1, 2), (1, 4)) == 3


def test_tail_collapse_hand_instance():
    """Columns deep in the tail add no rank beyond the lowest of them."""
    grid = UniformGrid((4, 4))
    assert rank_block(grid, (2,), (5, 6)) == rank_block(grid, (2,), (5,)) == 2
    grid = UniformGrid((3, 3))
    assert rank_block(grid, (1,), (4,)) == rank_block(grid, (1,), (3, 4)) - 1


def test_rank_block_full_degree_is_total_size():
    grid = UniformGrid((2, 3))
    N = grid.max_weight
    assert rank_block(grid, range(N + 1), range(N + 1)) == grid.size


@st.composite
def _grid_degree_and_set(draw):
    grid = UniformGrid(draw(st.sampled_from(off_family(100, 6, False))))
    N = grid.max_weight
    d = draw(st.integers(0, N))
    E = draw(st.sets(st.integers(0, N)))
    return grid, d, tuple(sorted(E))


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(_grid_degree_and_set())
def test_routes_agree_on_grids_outside_the_family(case):
    grid, d, E = case
    assert hilbert_closed(grid, d, E) == hilbert_rank_oracle(grid, d, E)
    if grid.is_su2():
        assert zstar_closure(grid, d, E) == l_bar(grid.max_weight, d, E)


def test_rank_oracle_and_zstar_closure_ignore_the_order_of_the_arities():
    """h_d(E) and the z*-closure depend only on the multiset of arities,
    though each order of the arities puts the pivots in other places."""
    rng = random.Random(2021)
    for arities in [(2, 3, 4), (2, 2, 5), (3, 4, 2, 2), (2, 6), (3, 3, 5)]:
        grid = UniformGrid(arities)
        N = grid.max_weight
        for _ in range(6):
            d = rng.randint(0, N)
            E = tuple(sorted(rng.sample(range(N + 1), rng.randint(0, N + 1))))
            value, closure = hilbert_closed(grid, d, E), zstar_closure(grid, d, E)
            for order in sorted(set(itertools.permutations(arities))):
                reordered = UniformGrid(order)
                assert hilbert_rank_oracle(reordered, d, E) == value, (order, d, E)
                assert zstar_closure(reordered, d, E) == closure, (order, d, E)
