"""Every grid-generic law, run exhaustively on grids outside the family.

A suite's check generator takes any grid, so each law can be run on
grids the acceptance sweeps never visit.  The grids here are every arity
order with arities at most 6 and at most 12 points that is not in
verification_family(): one-dimensional grids of 5 and 6 points, and
orders the family's sorted representatives leave out.  Every check of
every suite but cube and digression (which are tied to the binary cubes
and to the 3x3 grid) must pass, with one documented exception: the
wilson min display, which undershoots the single-layer value
sizes[min(d, w, N - w)] past the middle degree (criterion 3).
"""

import pytest

from gridhilbert.grid import UniformGrid
from gridhilbert.verify import SUITES, Limits, verification_family

OFF_FAMILY = [
    (5,),
    (6,),
    (2, 5),
    (2, 6),
    (3, 2),
    (4, 2),
    (4, 3),
    (5, 2),
    (6, 2),
    (2, 3, 2),
    (3, 2, 2),
]
GRID_GENERIC = [name for name in SUITES if name not in ("cube", "digression")]


def _display_gap(grid, payload):
    """Whether a wilson payload is the min display undershooting the value
    the closed form gives, sizes[min(d, w, N - w)]."""
    d, w, N = payload["degree"], payload["weight"], grid.max_weight
    return (
        payload["law"] == "single-layer"
        and payload["hilbert"] == str(grid.layer_sizes[min(d, w, N - w)])
    )


def test_off_family_grids_are_outside_the_family():
    family = {grid.arities for grid in verification_family()}
    for arities in OFF_FAMILY:
        assert arities not in family
        assert UniformGrid(arities).size <= 12


@pytest.mark.parametrize("arities", OFF_FAMILY, ids=lambda a: ",".join(map(str, a)))
def test_every_law_holds_off_the_family(arities):
    grid = UniformGrid(arities)
    limits = Limits()
    for name in GRID_GENERIC:
        checks = SUITES[name][1]
        failures = [p for p in checks(grid, limits) if p is not None]
        if name == "wilson":
            failures = [p for p in failures if not _display_gap(grid, p)]
        assert failures == [], (name, failures[:3])
