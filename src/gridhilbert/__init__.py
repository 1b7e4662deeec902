"""Exact Hilbert functions, closures, and standard monomials on uniform grids.

The package computes, in exact integer arithmetic, the affine Hilbert
function of weight-determined sets in uniform grids, finite-degree
closures of such sets, and order shattering / standard monomials of
arbitrary point sets.  Every closed form ships next to an independent
brute-force route, and the verification suites sweep a family of small
grids comparing the two.
"""

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
    EmptyMultiset,
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
from .verify import (
    SUITES,
    Limits,
    SuiteResult,
    verification_family,
    verify_suite,
)

__version__ = "0.1.0"
