"""Every grid-generic law, run exhaustively on grids outside the family.

A suite's check generator takes any grid, so each law can be run on
grids the acceptance sweeps never visit.  The grids here are
off_family(12, 6, True) from conftest.py: every arity order with
arities at most 6 and at most 12 points that is not in
verification_family(), that is one-dimensional grids of 5 and 6
points, and orders the family's sorted representatives leave out.
Every check of every suite but cube and digression (which are tied to
the binary cubes and to the 3x3 grid) must pass, with one documented
exception: the wilson min display, which undershoots the single-layer
value sizes[min(d, w, N - w)] past the middle degree (criterion 3).
"""

import math

import pytest

from conftest import FAMILY, off_family
from test_linalg import _OFF_FAMILY

from gridhilbert.grid import UniformGrid
from gridhilbert.verify import SUITES, Limits

GRID_GENERIC = [name for name in SUITES if name not in ("cube", "digression")]


def _display_gap(grid, payload):
    """Whether a wilson payload is the min display undershooting the value
    the closed form gives, sizes[min(d, w, N - w)]."""
    d, w, N = payload["degree"], payload["weight"], grid.max_weight
    return (
        payload["law"] == "single-layer"
        and payload["hilbert"] == str(grid.layer_sizes[min(d, w, N - w)])
    )


def test_off_family_yields_only_grids_outside_the_family_within_its_bounds():
    for max_points, max_arity in [(10, 10), (12, 6), (40, 6), (100, 6)]:
        with_orders = off_family(max_points, max_arity, True)
        sorted_only = off_family(max_points, max_arity, False)
        assert list(with_orders) == sorted(set(with_orders), key=lambda a: (len(a), a))
        for arities in with_orders:
            assert arities not in FAMILY
            assert all(2 <= k <= max_arity for k in arities)
            assert math.prod(arities) <= max_points
        for arities in sorted_only:
            assert tuple(sorted(arities)) not in FAMILY
    for arities in _OFF_FAMILY:
        assert tuple(sorted(arities)) not in FAMILY
    assert len(off_family(12, 6, True)) == 11


@pytest.mark.parametrize(
    "arities", off_family(12, 6, True), ids=lambda a: ",".join(map(str, a))
)
def test_every_law_holds_off_the_family(arities):
    grid = UniformGrid(arities)
    limits = Limits()
    for name in GRID_GENERIC:
        checks = SUITES[name][1]
        failures = [p for p in checks(grid, limits) if p is not None]
        if name == "wilson":
            failures = [p for p in failures if not _display_gap(grid, p)]
        assert failures == [], (name, failures[:3])
