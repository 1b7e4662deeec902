"""
Degree-d closures of layer sets, two ways
=========================================

Run with:  python3 demos/closure_walkthrough.py
"""

from gridhilbert import (
    UniformGrid,
    closure_report,
    l_bar,
    l_step,
    t_set,
    z_closure_points,
    zstar_closure,
)

# A set of layers is closed at degree d when no further layer is forced to
# vanish by every degree-<=d polynomial that vanishes on it.  There are two
# routes to the closure and this demo walks both.

# Route one is combinatorial: repeatedly apply a step operator that fills
# the interval below the (d+1)-th largest member and above the (d+1)-th
# smallest one, until nothing changes.
N, d = 4, 1
E = (1, 3)
print("step operator on [0, %d], degree %d, starting from %s" % (N, d, E))
cur = frozenset(E)
step = 0
while True:
    nxt = l_step(N, d, cur)
    if nxt == cur:
        break
    step += 1
    cur = nxt
    print(" after step", step, "->", sorted(cur))
print(" fixpoint:", sorted(l_bar(N, d, E)))

# Route two is algebraic, on the 3x3 grid whose top weight is that same N:
# close the actual point set layer by layer, using rank arithmetic over the
# exact integers.
grid = UniformGrid((3, 3))
print()
print("algebraic closure on grid", grid.spec())
print(" zstar of", set(E), "at degree", d, "->", sorted(zstar_closure(grid, d, E)))

# Both routes in one report, with the step count and an agreement flag.
report = closure_report(grid, d, E)
print(" report:", report)

# The agreement is a property of the grid: it needs the layer sizes to rise
# strictly to a flat middle pair and then fall strictly.  A single line of
# 3 points fails that, and there the two routes genuinely differ.
line = UniformGrid((3,))
print()
print("grid", line.spec(), "layer sizes", line.layer_sizes, "su2:", line.is_su2())
report = closure_report(line, 1, (0, 2))
print(" lbar  =", report.lbar)
print(" zstar =", report.zstar)

# The closed sets of the two-block shape [0, i-1] u [N-i+1, N] mark where
# the degree crosses the block size: closed once i <= d, everything below.
print()
for i in (1, 2):
    T = t_set(grid.max_weight, i)
    for dd in (0, 1, 2):
        closed = sorted(zstar_closure(grid, dd, T))
        print(" blocks", sorted(T), "degree", dd, "->", closed)

# The point-level closure behind all of this: three corners of the 2x2
# square force the fourth corner at degree 1.
square = UniformGrid((2, 2))
corners = ((0, 0), (0, 1), (1, 0))
print()
print("corners", corners, "close to", sorted(z_closure_points(square, 1, corners)))
