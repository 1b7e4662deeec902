"""Each sweep equals its one-shot route on every mask.

rank_oracle_sweep and zstar_sweep answer every weight set of one grid
and degree, footprint_sweep and shattering_sweep every point set of one
grid; mask bit j is weight j, or the j-th grid point in lex order, and
the point-set sweeps answer with masks of grid points too.  zstar_sweep
reads its closures off the ranks and zstar_closure tests span
membership, so that pair compares two exact criteria.  A mismatch is
reported with its grid, degree and set.  The sweeps' memory is bounded
too: the shattering sweep refuses a large grid before allocating and
holds one bit per set in each table, and the footprint sweep keeps
nothing per mask, stores a row only for a set without points 0 and 1
and takes a Bareiss step only on a pending row that the new row writes.
"""

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mask_points, off_family

from gridhilbert import (
    GridError,
    UniformGrid,
    hilbert_rank_oracle,
    ord_str,
    standard_monomials,
    zstar_closure,
)
from gridhilbert.closure import zstar_sweep
from gridhilbert.hilbert import rank_oracle_sweep
from gridhilbert.linalg import Span
from gridhilbert.shattering import footprint_sweep, shattering_sweep


def _assert_sweeps_match_one_shot_routes(grid):
    N = grid.max_weight
    for d in range(N + 1):
        ranks = list(rank_oracle_sweep(grid, d))
        closures = list(zstar_sweep(grid, d))
        assert len(ranks) == len(closures) == 1 << (N + 1)
        for mask, (rank, closed) in enumerate(zip(ranks, closures)):
            E = [j for j in range(N + 1) if mask >> j & 1]
            assert rank == hilbert_rank_oracle(grid, d, E), (grid.spec(), d, E)
            assert closed == zstar_closure(grid, d, E), (grid.spec(), d, E)
    pts = list(grid.points())
    footprints = list(footprint_sweep(grid))
    shattered = list(shattering_sweep(grid))
    assert len(footprints) == len(shattered) == 1 << len(pts)
    for mask, (footprint, sh) in enumerate(zip(footprints, shattered)):
        A = mask_points(pts, mask)
        sm = set(mask_points(pts, footprint))
        assert sm == standard_monomials(grid, A), (grid.spec(), A)
        assert set(mask_points(pts, sh)) == ord_str(grid, A), (grid.spec(), A)


def test_sweeps_match_one_shot_routes_on_small_family_grids():
    for arities in [(2, 3), (3, 3), (2, 2, 2)]:
        _assert_sweeps_match_one_shot_routes(UniformGrid(arities))


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(st.sampled_from(off_family(10, 10, True)))
def test_sweeps_match_one_shot_routes_off_the_family(arities):
    _assert_sweeps_match_one_shot_routes(UniformGrid(arities))


def test_shattering_sweep_refuses_more_than_16_points_before_allocating():
    for arities in [(17,), (3, 6), (2, 2, 2, 2, 2)]:
        with pytest.raises(GridError, match="at most 16 points"):
            next(shattering_sweep(UniformGrid(arities)))
    # The tables for 24 points would take 48 MB.
    grid = UniformGrid((2,) * 24)
    tracemalloc.start()
    try:
        with pytest.raises(GridError):
            next(shattering_sweep(grid))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_shattering_sweep_of_16_points_peaks_below_768_kb():
    """The sweep holds one 2^16-bit truth table per multiset, 128 KB in
    all, the binary digits of one table at a time and two byte planes of
    one byte per set."""
    gc.collect()
    tracemalloc.start()
    try:
        for _ in shattering_sweep(UniformGrid((4, 4))):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 768 << 10


def test_footprint_sweep_of_16_points_peaks_below_256_kb():
    """The elimination tree holds one level per point of the set above
    point 1, each with the pending rows of the points below it, and
    nothing per mask."""
    gc.collect()
    tracemalloc.start()
    try:
        for _ in footprint_sweep(UniformGrid((4, 4))):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 << 10


@pytest.mark.parametrize(
    "arities, stores, reduces", [((2, 2, 2), 63, 117), ((3, 4), 1023, 2082)]
)
def test_footprint_sweep_stores_rows_only_for_sets_above_point_1(
    monkeypatch, arities, stores, reduces
):
    """A set whose lowest point is 0 or 1 stores nothing: a set holding
    point 0 is a leaf of the elimination tree, and a set whose lowest
    point is 1 answers, with its one leaf, from its parent's pending rows
    of points 0 and 1.  So an n-point grid stores 2^(n-2) - 1 rows, one
    per nonempty set of the points above point 1.  A pending row that the
    new row does not write is shared with the parent level and costs no
    Bareiss step."""
    calls = {"_store": 0, "_reduce": 0}

    def counted(name):
        method = getattr(Span, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)

        monkeypatch.setattr(Span, name, wrapper)

    counted("_store")
    counted("_reduce")
    grid = UniformGrid(arities)
    assert sum(1 for _ in footprint_sweep(grid)) == 1 << grid.size
    assert calls["_store"] == stores == (1 << grid.size - 2) - 1
    assert calls["_reduce"] == reduces
