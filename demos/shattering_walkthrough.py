"""
Order shattering and standard monomials
=======================================

Run with:  python3 demos/shattering_walkthrough.py
"""

from gridhilbert import (
    UniformGrid,
    ord_str,
    order_shatters,
    standard_monomials,
)

# Points of a grid can shatter multisets of coordinate positions, the way
# set families shatter sets.  On binary coordinates the notion is the
# classical one; the recursion cuts along the largest occupied position.
square = UniformGrid((2, 2))
pts = list(square.points())
print("the full 2x2 square shatters (1,1):", order_shatters(square, pts, (1, 1)))

corners = ((0, 0), (0, 1), (1, 0))
print("three corners shatter (1,0):", order_shatters(square, corners, (1, 0)))
print("three corners shatter (1,1):", order_shatters(square, corners, (1, 1)))

# The collection of everything a point set shatters is downward closed and
# has exactly as many members as the set itself.
ds = ord_str(square, corners)
print("everything the corners shatter:", sorted(ds))

# The same downset arrives by a completely different road: scan ordinary
# monomials in ascending lex order and keep those whose value vectors on
# the point set stay linearly independent.
sm = standard_monomials(square, corners)
print("surviving monomial exponents  :", sorted(sm))

# On a bigger grid, take the middle layer of the 3x3 grid.
grid = UniformGrid((3, 3))
layer = grid.layer(2)
print()
print("middle layer of 3x3:", layer)
print(" shatters ->", sorted(ord_str(grid, layer)))
print(" monomials ->", sorted(standard_monomials(grid, layer)))

# Layers are complement-stable: layer i and layer N - i give the same
# downset, even though the point sets differ.
print()
for i in (0, 1, 2):
    low = sorted(standard_monomials(grid, grid.layer(i)))
    high = sorted(standard_monomials(grid, grid.layer(grid.max_weight - i)))
    print(" layers", i, "and", grid.max_weight - i, "->", low, "==", high, ":", low == high)

# A quick sanity sweep: on every subset of a small grid both routes agree.
grid = UniformGrid((3, 2))
pts = list(grid.points())
mismatches = 0
for mask in range(1 << len(pts)):
    A = [p for i, p in enumerate(pts) if mask >> i & 1]
    if set(ord_str(grid, A)) != set(standard_monomials(grid, A)):
        mismatches += 1
print()
print("subsets of the 3x2 grid checked:", 1 << len(pts), " mismatches:", mismatches)
