"""Exception types shared across the package.

Everything is a subclass of GridError, which is itself a ValueError, so
callers can catch the whole domain with one except clause while still
seeing meaningful class names in diagnostics.
"""


class GridError(ValueError):
    """Base class for every domain error raised by this package."""


class EmptyArities(GridError):
    """A grid was requested with no coordinates at all."""


class AritySmallerThanTwo(GridError):
    """Every grid coordinate must take at least two values."""


class WeightOutOfRange(GridError):
    """A weight fell outside [0, N] for the grid at hand."""


class DegreeOutOfRange(GridError):
    """A degree bound fell outside the admissible range."""


class PointNotInGrid(GridError):
    """A point has the wrong length or a coordinate outside its range."""


class LengthMismatch(GridError):
    """Two aligned sequences disagree in length."""


class DuplicateEntries(GridError):
    """A sequence that must be duplicate-free repeats a value."""


class SetTooSmall(GridError):
    """A weight set does not have the cardinality the operation needs."""


class EmptyMultiset(GridError):
    """The all-zero multiset has no largest element."""


class GridTooLarge(GridError):
    """A grid has more points than an exhaustive sweep over it allows."""


class ParseError(GridError):
    """A textual grid or weight-set spec is malformed."""


class UnknownSuite(GridError):
    """The verification suite registry has no suite by this name."""
