"""A third reference for the lex footprint: the fibre recursion.

Group a point set A by the tail y = x[1:] of its points and let f(y)
count the points over y.  Then the lex standard monomials, coordinate 1
most significant as in grid.points(), are

    SM(A) = { (k,) + m : k >= 0, m in SM(W_k) },  W_k = { y : f(y) > k },

and SM of a nonempty set of empty tuples is {()}.  On A, the monomials
with alpha_1 < k span every function that is a polynomial of degree < k
in x_1 on each fibre; x_1^k m adds a direction only on the fibres of
more than k points, and there it acts as m does on W_k.  This is the
Cerlienco-Mureddu correspondence (Discrete Math., 1995), the lex game of
Felszeghy, Rath and Ronyai (J. Symbolic Comput., 2006).  It uses no
linear algebra and no shattering, so it checks the footprint sweep, the
footprint scan and the shattering recursion from outside both routes.
It sees only which points agree in which coordinates, so permuting
each coordinate's values leaves the footprint of a set unchanged, and
then the shattered multisets too, though the recursion's cuts read
value order.
"""

import random
from collections import Counter

from conftest import mask_points

from gridhilbert import UniformGrid, ord_str, standard_monomials
from gridhilbert.shattering import footprint_sweep


def _fibre_footprint(A):
    """Lex standard monomials of the point set A, by the fibre recursion."""
    A = set(A)
    if not A:
        return set()
    if next(iter(A)) == ():
        return {()}
    counts = Counter(x[1:] for x in A)
    return {
        (k,) + m
        for k in range(max(counts.values()))
        for m in _fibre_footprint(y for y, f in counts.items() if f > k)
    }


def test_fibre_recursion_small_cases():
    assert _fibre_footprint([]) == set()
    assert _fibre_footprint([()]) == {()}
    assert _fibre_footprint([(0, 0), (1, 1)]) == {(0, 0), (0, 1)}
    assert _fibre_footprint([(0, 2), (1, 2), (2, 2)]) == {(0, 0), (1, 0), (2, 0)}
    assert _fibre_footprint([(1, 0), (1, 1), (1, 2)]) == {(0, 0), (0, 1), (0, 2)}


def test_footprint_sweep_matches_the_fibre_recursion():
    """Every mask of five off-family grids of at most 12 points, reorderings
    included, and a seeded 2,000-mask sample of the 16-point 2,8."""
    for arities in [(12,), (2, 6), (6, 2), (4, 3), (3, 2, 2)]:
        grid = UniformGrid(arities)
        pts = list(grid.points())
        for mask, answer in enumerate(footprint_sweep(grid)):
            A = mask_points(pts, mask)
            assert set(mask_points(pts, answer)) == _fibre_footprint(A), (arities, A)
    grid = UniformGrid((2, 8))
    pts = list(grid.points())
    sample = set(random.Random(2021).sample(range(1 << len(pts)), 2000))
    for mask, answer in enumerate(footprint_sweep(grid)):
        if mask in sample:
            A = mask_points(pts, mask)
            assert set(mask_points(pts, answer)) == _fibre_footprint(A), A


def test_standard_monomials_match_the_fibre_recursion_on_larger_sets():
    """Both footprint routes, on seeded sets of up to 64 points, on grids up
    to 8,8,8."""
    rng = random.Random(1995)
    for arities in [(6, 7), (2, 5, 7), (8, 8, 8), (3, 3, 3, 3)]:
        grid = UniformGrid(arities)
        pts = list(grid.points())
        for _ in range(8):
            A = rng.sample(pts, rng.randint(0, min(64, len(pts))))
            footprint = _fibre_footprint(A)
            assert set(standard_monomials(grid, A)) == footprint, (arities, A)
            assert set(ord_str(grid, A)) == footprint, (arities, A)


def test_footprint_and_shattering_ignore_the_order_of_each_coordinates_values():
    """Permuting each coordinate's values maps a set to one with the same
    standard monomials and the same shattered multisets."""
    rng = random.Random(2006)
    for arities in [(3, 3), (4, 2), (2, 5), (3, 2, 2), (4, 3, 2), (5, 5), (2, 2, 2, 3)]:
        grid = UniformGrid(arities)
        pts = list(grid.points())
        for _ in range(20):
            perms = [rng.sample(range(k), k) for k in arities]
            A = rng.sample(pts, rng.randint(0, len(pts)))
            B = [tuple(perm[a] for perm, a in zip(perms, x)) for x in A]
            sm = standard_monomials(grid, A)
            assert standard_monomials(grid, B) == sm == _fibre_footprint(A), (arities, A, B)
            assert ord_str(grid, B) == ord_str(grid, A), (arities, A, B)
