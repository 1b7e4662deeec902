import itertools
import tracemalloc

import pytest

from gridhilbert import (
    AritySmallerThanTwo,
    EmptyArities,
    ParseError,
    PointNotInGrid,
    UniformGrid,
    WeightOutOfRange,
    parse_grid,
    parse_weight_set,
)


def test_construction_rejects_bad_arities():
    with pytest.raises(EmptyArities):
        UniformGrid(())
    with pytest.raises(AritySmallerThanTwo):
        UniformGrid((3, 1))
    with pytest.raises(AritySmallerThanTwo):
        UniformGrid((0,))


def test_construction_coerces_any_iterable_of_arities():
    """A list or an iterator of arities builds the grid a tuple builds,
    with the same checks; parse_grid passes a list."""
    want = UniformGrid((3, 3))
    for arities in ([3, 3], iter((3, 3))):
        grid = UniformGrid(arities)
        assert grid.arities == (3, 3)
        assert grid == want and hash(grid) == hash(want)
    with pytest.raises(AritySmallerThanTwo, match=r"^arity 1 is smaller than two$"):
        UniformGrid([3, 1])
    with pytest.raises(EmptyArities):
        UniformGrid([])


def test_basic_dimensions():
    grid = UniformGrid((3, 3))
    assert grid.dimension == 2
    assert grid.max_weight == 4
    assert grid.size == 9
    assert UniformGrid((2, 3, 4)).max_weight == 6


def test_layer_sizes_match_enumeration():
    for arities in [(2,), (4,), (3, 3), (2, 4), (2, 3, 4), (2, 2, 2, 2)]:
        grid = UniformGrid(arities)
        counts = [0] * (grid.max_weight + 1)
        for p in itertools.product(*(range(k) for k in arities)):
            counts[sum(p)] += 1
        assert list(grid.layer_sizes) == counts
        assert sum(counts) == grid.size


def test_layer_sizes_symmetric_and_unimodal():
    for arities in [(3, 3), (2, 2, 4), (2, 3, 4), (4, 4)]:
        sizes = UniformGrid(arities).layer_sizes
        assert sizes == sizes[::-1]
        mid = len(sizes) // 2
        for j in range(mid):
            assert sizes[j] <= sizes[j + 1]


def test_layer_enumeration_is_lex_sorted():
    grid = UniformGrid((3, 3))
    assert grid.layer(2) == ((0, 2), (1, 1), (2, 0))
    for j in range(grid.max_weight + 1):
        layer = grid.layer(j)
        assert all(sum(p) == j for p in layer)
        assert list(layer) == sorted(layer)


def test_unfold_orders_by_weight_then_lex():
    grid = UniformGrid((2, 3))
    assert grid.unfold((2, 0)) == ((0, 0), (0, 2), (1, 1))
    assert grid.unfold(()) == ()


def test_layer_and_unfold_reject_bad_weights():
    grid = UniformGrid((2, 2))
    with pytest.raises(WeightOutOfRange):
        grid.layer(3)
    with pytest.raises(WeightOutOfRange):
        grid.unfold((0, 5))
    with pytest.raises(WeightOutOfRange):
        grid.layer(-1)


def test_contains_and_check_point():
    grid = UniformGrid((2, 3))
    assert (1, 2) in grid
    assert (2, 0) not in grid
    assert (0,) not in grid
    with pytest.raises(PointNotInGrid):
        grid.check_point((0, 3))


def test_contains_accepts_only_int_tuples_inside_the_ranges():
    grid = UniformGrid((2, 3))
    for point in [(0, 0), (1, 2), (True, 0), (0, True)]:
        assert point in grid
    for point in [
        (1.0, 0),
        (0, 2.0),
        (-1, 0),
        (0, -1),
        (2, 0),
        (0, 3),
        (),
        (0,),
        (0, 0, 0),
        [0, 0],
        "00",
        None,
    ]:
        assert point not in grid


def test_su2_classification():
    assert UniformGrid((2, 2)).is_su2()
    assert UniformGrid((2, 3)).is_su2()
    assert UniformGrid((3, 3)).is_su2()
    assert UniformGrid((2, 2, 2)).is_su2()
    assert not UniformGrid((3,)).is_su2()
    assert not UniformGrid((4,)).is_su2()
    assert not UniformGrid((2, 4)).is_su2()

    def su2(sizes):
        n = len(sizes) - 1
        mid, hi = n // 2, n - n // 2
        return (
            all(sizes[j] < sizes[j + 1] for j in range(mid))
            and sizes[mid] == sizes[hi]
            and all(sizes[j] > sizes[j + 1] for j in range(hi, n))
        )

    grids = [
        UniformGrid(arities)
        for n in range(1, 5)
        for arities in itertools.product(range(2, 7), repeat=n)
    ]
    assert len(grids) == 780
    for grid in grids:
        assert grid.is_su2() == su2(grid.layer_sizes), grid.arities


def test_spec_and_parse_round_trip():
    grid = UniformGrid((2, 3, 4))
    assert grid.spec() == "2,3,4"
    assert parse_grid(grid.spec()) == grid
    with pytest.raises(ParseError):
        parse_grid("3,x")
    with pytest.raises(ParseError):
        parse_grid("")


def test_parse_weight_set():
    grid = UniformGrid((8,))
    assert parse_weight_set("0,2-4,7", grid) == (0, 2, 3, 4, 7)
    assert parse_weight_set("3", grid) == (3,)
    assert parse_weight_set("", grid) == ()
    assert parse_weight_set("4,1,1", grid) == (1, 4)
    with pytest.raises(ParseError):
        parse_weight_set("2-", grid)
    with pytest.raises(ParseError):
        parse_weight_set("5-3", grid)
    with pytest.raises(ParseError):
        parse_weight_set("a", grid)


def test_parse_weight_set_bounds_tokens_by_the_grid():
    grid = UniformGrid((3, 3))
    assert parse_weight_set("0-4", grid) == (0, 1, 2, 3, 4)
    for text, smallest in [("5", 5), ("7,0-9", 5), ("3-4,9,6-8", 6), ("0-3000000", 5)]:
        message = rf"^weight {smallest} outside \[0, 4\]$"
        with pytest.raises(WeightOutOfRange, match=message):
            parse_weight_set(text, grid)
    with pytest.raises(ParseError):
        parse_weight_set("0-3000000,x", grid)
    tracemalloc.start()
    try:
        with pytest.raises(WeightOutOfRange):
            parse_weight_set("0-3000000", grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
