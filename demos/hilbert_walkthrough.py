"""
Counting functions on unions of grid layers
===========================================

Run with:  python3 demos/hilbert_walkthrough.py
"""

from gridhilbert import (
    UniformGrid,
    be_enumeration,
    eval_matrix,
    hilbert_closed,
    hilbert_profile,
    hilbert_rank_oracle,
)

# The running example is the 3x3 grid: points (a, b) with 0 <= a, b <= 2,
# sliced into layers by the coordinate sum a + b.
grid = UniformGrid((3, 3))
print("grid", grid.spec(), "has layer sizes", grid.layer_sizes)
for j in range(grid.max_weight + 1):
    print(" layer", j, "=", grid.layer(j))

# How many independent functions do polynomials of degree <= d cut out on
# a union of layers E?  The closed form pairs the unused degrees [0, d] \ E
# (largest first) with the high layers E \ [0, d] (smallest first) and sums
# min(layer sizes) over the pairs; layers already below d count in full.
d, E = 1, (2,)
print()
print("degree", d, "on layer set", E)
be = be_enumeration(grid.max_weight, d, E)
print(" pairing: t_desc =", be.t_desc, " w_asc =", be.w_asc, " kept =", be.kept)
print(" closed form  :", hilbert_closed(grid, d, E))

# The same number is the rank of an explicit evaluation matrix: one row per
# low-degree basis function, one column per point of the chosen layers.
print(" rank oracle  :", hilbert_rank_oracle(grid, d, E))
m = eval_matrix(grid, range(d + 1), E)
print(" the matrix, rows = degree-<=1 basis, cols = layer-2 points:")
for line in m.to_lines():
    print("   ", line)

# A richer set: two layers, degree 2.
d, E = 2, (0, 3, 4)
print()
print("degree", d, "on layer set", E)
print(" closed form  :", hilbert_closed(grid, d, E))
print(" rank oracle  :", hilbert_rank_oracle(grid, d, E))

# When E has at least d + 1 members the same pairing, listed by layer, is a
# profile: the d + 1 smallest members of E, each with a degree from [0, d].
# The closed form is the sum of min(sizes[u], sizes[v]) over its pairs.
d, E = 1, (1, 3)
pairs = hilbert_profile(grid.max_weight, d, E)
print()
print("profile of", E, "at degree", d, "->", pairs)
print(" closed form  :", hilbert_closed(grid, d, E))

# One caution about single layers.  The display min(sizes[d], sizes[w]) is
# correct whenever d is at most half the top weight, and whenever w >= d,
# but it can undershoot past the middle: on the 2x2 grid at degree 2 the
# layer {1} supports 2 independent functions, not min(1, 2) = 1.
small = UniformGrid((2, 2))
print()
print("2x2 grid, degree 2, layer {1}:")
print(" true value   :", hilbert_closed(small, 2, (1,)))
print(" min display  :", min(small.layer_sizes[2], small.layer_sizes[1]))
