import itertools
import random

import pytest

from gridhilbert import (
    DegreeOutOfRange,
    PointNotInGrid,
    WeightOutOfRange,
    UniformGrid,
    closure_report,
    falling_factorial_value,
    l_bar,
    l_step,
    rank,
    t_set,
    z_closure_points,
    zstar_closure,
)
from gridhilbert.linalg import ExactMatrix


def _evaluation_matrix(funcs, pts):
    """Falling-factorial evaluation matrix of explicit exponent and point lists."""
    entries = tuple(
        tuple(falling_factorial_value(alpha, x) for x in pts) for alpha in funcs
    )
    return ExactMatrix(funcs, pts, entries)


def _closure_by_rank(grid, d, pts):
    """Literal point closure: x joins when its column adds no rank.

    Rebuilds the evaluation matrix of the set with and without x and
    compares the two ranks, so the production tester (which adds the
    set's columns to one incremental span once and then asks whether
    each point's column lies in it) is checked against a second, slower
    route.
    """
    funcs = grid.unfold(range(d + 1))
    pts = tuple(sorted(set(pts)))
    base = rank(_evaluation_matrix(funcs, pts)).rank
    out = set(pts)
    for x in grid.points():
        if x in out:
            continue
        if rank(_evaluation_matrix(funcs, pts + (x,))).rank == base:
            out.add(x)
    return frozenset(out)


def test_step_frozen_examples():
    assert l_step(6, 2, (1, 3, 5)) == {0, 1, 3, 5, 6}
    assert l_step(6, 2, (2, 3)) == {2, 3}
    assert l_step(4, 1, (1, 3)) == {0, 1, 3, 4}
    assert l_step(4, 1, ()) == frozenset()
    assert l_step(4, 0, (2,)) == {0, 1, 2, 3, 4}


def test_step_fixes_small_sets():
    for d in range(5):
        for size in range(d + 1):
            E = tuple(range(0, 2 * size, 2))[:size]
            assert l_step(9, d, E) == set(E)


def test_fixpoint_frozen_example():
    assert l_bar(4, 1, (1, 3)) == {0, 1, 2, 3, 4}
    assert l_bar(4, 1, (2,)) == {2}
    assert l_bar(6, 2, (1, 3, 5)) == set(range(7))


def test_fixpoint_is_fixed_and_extensive():
    N = 6
    for d in range(N + 1):
        for mask in range(1 << (N + 1)):
            E = frozenset(w for w in range(N + 1) if mask >> w & 1)
            fix = l_bar(N, d, E)
            assert E <= fix
            assert l_step(N, d, fix) == fix


def test_step_rejects_bad_arguments():
    with pytest.raises(WeightOutOfRange):
        l_step(6, 2, (7,))
    with pytest.raises(DegreeOutOfRange):
        l_step(6, 7, (1,))
    with pytest.raises(DegreeOutOfRange):
        l_bar(6, -1, (1,))


def test_t_set_values():
    assert t_set(6, 2) == {0, 1, 5, 6}
    assert t_set(6, 0) == frozenset()
    assert t_set(4, 3) == {0, 1, 2, 3, 4}
    with pytest.raises(WeightOutOfRange, match=r"^block size 7 outside \[0, 6\]$"):
        t_set(6, 7)
    with pytest.raises(WeightOutOfRange, match=r"^block size -1 outside \[0, 6\]$"):
        t_set(6, -1)


def test_point_closure_degenerate_degrees():
    grid = UniformGrid((2, 3))
    pts = ((0, 1), (1, 2))
    assert z_closure_points(grid, grid.max_weight, pts) == set(pts)
    assert z_closure_points(grid, 0, pts) == set(grid.points())
    assert z_closure_points(grid, 1, ()) == frozenset()


def test_point_closure_hand_example():
    grid = UniformGrid((2, 2))
    assert z_closure_points(grid, 1, ((0, 0),)) == {(0, 0)}
    # Three corners of the square force the fourth at degree 1.
    corners = ((0, 0), (0, 1), (1, 0))
    assert z_closure_points(grid, 1, corners) == set(grid.points())


def test_point_closure_matches_rank_route_exhaustively():
    for arities in [(3,), (2, 2), (2, 3)]:
        grid = UniformGrid(arities)
        pts = list(grid.points())
        for d in range(grid.max_weight + 1):
            for r in range(len(pts) + 1):
                for chosen in itertools.combinations(pts, r):
                    got = z_closure_points(grid, d, chosen)
                    assert got == _closure_by_rank(grid, d, chosen)


def test_point_closure_matches_rank_route_random():
    grid = UniformGrid((2, 2, 2))
    rng = random.Random(4061)
    pts = list(grid.points())
    for _ in range(40):
        chosen = tuple(rng.sample(pts, rng.randint(0, len(pts))))
        d = rng.randint(0, grid.max_weight)
        assert z_closure_points(grid, d, chosen) == _closure_by_rank(grid, d, chosen)


def test_point_closure_rejects_foreign_points():
    grid = UniformGrid((2, 2))
    with pytest.raises(PointNotInGrid):
        z_closure_points(grid, 1, ((0, 2),))


def test_weight_closure_frozen_examples():
    grid = UniformGrid((3, 3))
    assert zstar_closure(grid, 1, (1, 3)) == {0, 1, 2, 3, 4}
    assert zstar_closure(grid, 4, (1, 3)) == {1, 3}
    assert zstar_closure(grid, 2, ()) == frozenset()
    assert zstar_closure(grid, 1, (2,)) == {2}


def test_weight_closure_is_layerwise_point_closure():
    for arities in [(3, 3), (2, 4)]:
        grid = UniformGrid(arities)
        N = grid.max_weight
        for d in range(N + 1):
            for mask in range(1 << (N + 1)):
                E = tuple(w for w in range(N + 1) if mask >> w & 1)
                closed_pts = z_closure_points(grid, d, grid.unfold(E))
                expected = frozenset(
                    j for j in range(N + 1)
                    if set(grid.layer(j)) <= closed_pts
                ) | set(E)
                assert zstar_closure(grid, d, E) == expected


def test_weight_closure_extensive_and_idempotent():
    grid = UniformGrid((3, 3))
    N = grid.max_weight
    for d in range(N + 1):
        for mask in range(1 << (N + 1)):
            E = frozenset(w for w in range(N + 1) if mask >> w & 1)
            cl = zstar_closure(grid, d, E)
            assert E <= cl
            assert zstar_closure(grid, d, cl) == cl


def test_two_block_sets_are_closed_exactly_up_to_degree():
    grid = UniformGrid((3, 3))
    N = grid.max_weight
    for i in range(1, N // 2 + 1):
        T = t_set(N, i)
        for d in range(N + 1):
            expected = T if i <= d else frozenset(range(N + 1))
            assert zstar_closure(grid, d, T) == expected


def test_routes_disagree_off_the_flat_middle():
    """On a grid with a flat layer-size table the step operator undershoots."""
    grid = UniformGrid((3,))
    assert not grid.is_su2()
    report = closure_report(grid, 1, (0, 2))
    assert report.lbar == (0, 2)
    assert report.zstar == (0, 1, 2)


def test_report_fields():
    grid = UniformGrid((3, 3))
    report = closure_report(grid, 1, (3, 1))
    assert report.input == (1, 3)
    assert report.lbar == (0, 1, 2, 3, 4)
    assert report.zstar == (0, 1, 2, 3, 4)
    assert report.iterations == 2
    fixed = closure_report(grid, 2, (1, 3))
    assert fixed.iterations == 0
    assert fixed.lbar == (1, 3)
    assert fixed.zstar == (1, 3)
