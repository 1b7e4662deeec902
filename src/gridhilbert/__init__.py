"""Exact Hilbert functions, closures, and standard monomials on uniform grids.

The package computes, in exact integer arithmetic, the affine Hilbert
function of weight-determined sets in uniform grids, finite-degree
closures of such sets, and order shattering / standard monomials of
arbitrary point sets.  Every closed form ships next to an independent
brute-force route, and the verification suites sweep a family of small
grids comparing the two.

The suites (verify, and the runner it splits a suite with) are imported
only when first asked for: by ``gridhilbert verify``, by
``gridhilbert.verify`` or by one of the names re-exported from it.
"""

import importlib

from .closure import (
    ClosureReport,
    closure_report,
    l_bar,
    l_step,
    t_set,
    z_closure_points,
    zstar_closure,
)
from .errors import (
    AritySmallerThanTwo,
    DegreeOutOfRange,
    DuplicateEntries,
    EmptyArities,
    GridError,
    GridTooLarge,
    LengthMismatch,
    ParseError,
    PointNotInGrid,
    SetTooSmall,
    UnknownSuite,
    WeightOutOfRange,
)
from .grid import (
    Point,
    UniformGrid,
    parse_grid,
    parse_points,
    parse_weight_set,
)
from .hilbert import (
    BEEnumeration,
    be_enumeration,
    cube,
    hilbert_closed,
    hilbert_cube_closed,
    hilbert_layer,
    hilbert_profile,
    hilbert_rank_oracle,
    is_interval_compatible,
    rank_block,
)
from .linalg import (
    RankResult,
    eval_matrix,
    falling_factorial_value,
    rank,
    up_matrix,
)
from .shattering import ord_str, order_shatters, standard_monomials

__version__ = "0.1.0"


def __getattr__(name: str):
    """verify and the five names re-exported from it, imported on first use
    so that importing the package does not load the suites.  import_module,
    not ``from . import verify``, which would ask this function for verify
    again before the import is done."""
    if name not in {
        "verify", "SUITES", "Limits", "SuiteResult", "verification_family", "verify_suite"
    }:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    verify = importlib.import_module(".verify", __name__)
    return verify if name == "verify" else getattr(verify, name)
