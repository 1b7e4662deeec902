"""Uniform grids: weights, layers, the lex order, and the text grammar.

A uniform grid is a product of integer ranges [0, k_1 - 1] x ... x
[0, k_n - 1] with every arity k_i >= 2.  Points are plain tuples of
ints and double as monomial exponent vectors.  The weight of a point is
the sum of its coordinates; N denotes the largest weight.  A
weight-determined subset of the grid is a union of full layers (all
points of one weight) and is identified with its set of weights, a
subset of [0, N].  The degree and weight-set validators here are the
package's one set of range checks for degrees and weights.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Iterable, Iterator

from .errors import (
    AritySmallerThanTwo,
    DegreeOutOfRange,
    EmptyArities,
    GridError,
    ParseError,
    PointNotInGrid,
    WeightOutOfRange,
)

Point = tuple[int, ...]
LayerSizes = tuple[int, ...]


def _in_range(value: int, top: int, what: str, error: type[GridError]) -> int:
    if not isinstance(value, int) or not 0 <= value <= top:
        raise error(f"{what} {value!r} outside [0, {top}]")
    return value


def check_degree(d: int, top: int) -> int:
    """The degree d, checked to lie in [0, top]."""
    return _in_range(d, top, "degree", DegreeOutOfRange)


def check_weight_set(weights: Iterable[int], top: int) -> tuple[int, ...]:
    """Weights checked to lie in [0, top], as a sorted duplicate-free tuple."""
    return tuple(
        sorted({_in_range(w, top, "weight", WeightOutOfRange) for w in weights})
    )


def _immutable(self: object, name: str, *value: object) -> None:
    """__setattr__ and __delattr__ of the immutable value classes."""
    raise AttributeError(f"{type(self).__name__} is immutable: {name!r} cannot change")


class UniformGrid:
    """Product of the ranges [0, k_i - 1] for arities k_i >= 2, given as any
    iterable and stored as a tuple.

    Immutable, and equal only to a grid with the same arities in the same
    order.  cached_property writes the instance __dict__, past __setattr__.
    """

    arities: tuple[int, ...]
    __setattr__ = __delattr__ = _immutable

    def __init__(self, arities: Iterable[int]) -> None:
        arities = tuple(arities)
        if not arities:
            raise EmptyArities("a grid needs at least one coordinate")
        for k in arities:
            if not isinstance(k, int) or k < 2:
                raise AritySmallerThanTwo(f"arity {k!r} is smaller than two")
        vars(self)["arities"] = arities

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.arities == other.arities

    def __hash__(self) -> int:
        return hash(self.arities)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(arities={self.arities!r})"

    @property
    def dimension(self) -> int:
        return len(self.arities)

    @cached_property
    def max_weight(self) -> int:
        """Largest point weight N = sum of (k_i - 1)."""
        return sum(k - 1 for k in self.arities)

    @cached_property
    def size(self) -> int:
        return math.prod(self.arities)

    def points(self) -> Iterator[Point]:
        """All grid points in ascending lex order, coordinate 1 most significant."""
        return itertools.product(*(range(k) for k in self.arities))

    def __contains__(self, point: object) -> bool:
        if not isinstance(point, tuple) or len(point) != len(self.arities):
            return False
        for a, k in zip(point, self.arities):
            if not isinstance(a, int) or not 0 <= a < k:
                return False
        return True

    def check_point(self, point: Iterable[int]) -> Point:
        p = tuple(point)
        if p not in self:
            raise PointNotInGrid(f"{p} is not a point of the grid {self.spec()}")
        return p

    def check_weight(self, j: int) -> int:
        return _in_range(j, self.max_weight, "weight", WeightOutOfRange)

    @cached_property
    def layer_sizes(self) -> LayerSizes:
        """Points per weight: coefficients of prod_i (1 + x + ... + x^(k_i-1)).

        The table is symmetric (sizes[j] == sizes[N-j]) and unimodal, and
        sums to the number of grid points.
        """
        sizes = [1]
        for k in self.arities:
            out = [0] * (len(sizes) + k - 1)
            for i, v in enumerate(sizes):
                for j in range(k):
                    out[i + j] += v
            sizes = out
        return tuple(sizes)

    @cached_property
    def _layers(self) -> tuple[tuple[Point, ...], ...]:
        buckets: list[list[Point]] = [[] for _ in range(self.max_weight + 1)]
        for p in self.points():
            buckets[sum(p)].append(p)
        return tuple(tuple(b) for b in buckets)

    def layer(self, j: int) -> tuple[Point, ...]:
        """Points of weight j, in ascending lex order."""
        return self._layers[self.check_weight(j)]

    def unfold(self, weights: Iterable[int]) -> tuple[Point, ...]:
        """Points of a weight-determined set: ascending weight, lex within a layer."""
        js = check_weight_set(weights, self.max_weight)
        return tuple(p for j in js for p in self._layers[j])

    def is_su2(self) -> bool:
        """Strictly unimodal with a flat middle pair: sizes strictly increase
        up to floor(N/2), sizes[floor(N/2)] == sizes[ceil(N/2)], and strictly
        decrease afterwards.  Only the increase is tested: the sizes are
        symmetric, so the flat pair and the decrease follow from it."""
        sizes = self.layer_sizes
        return all(sizes[j] < sizes[j + 1] for j in range(self.max_weight // 2))

    def spec(self) -> str:
        """Canonical text form, e.g. '3,3'."""
        return ",".join(str(k) for k in self.arities)


def _decimal(token: str, error: str = "not a decimal integer") -> int:
    """The value of a token of decimal digits, else ParseError(error).

    The one integer grammar of the text forms and the CLI flags: int()
    also takes signs, underscores and spaces, and fails past its digit limit.
    """
    if token.isdecimal():
        try:
            return int(token)
        except ValueError:
            pass
    raise ParseError(error)


def parse_grid(text: str) -> UniformGrid:
    """Parse a comma-separated arity list such as '3,3'."""
    error = f"bad grid spec {text!r}: expected comma-separated integers"
    return UniformGrid([_decimal(t.strip(), error) for t in text.split(",")])


def parse_points(text: str) -> tuple[Point, ...]:
    """Parse semicolon-separated points of comma-separated coordinates: '0,0;1,2'.

    Coordinates are nonnegative decimal integers, as in parse_grid; the
    empty string denotes no points.  Grid membership is left to the caller.
    """
    text = text.strip()
    if not text:
        return ()
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        error = f"bad point {chunk!r} in {text!r}"
        points.append(tuple(_decimal(t.strip(), error) for t in chunk.split(",")))
    return tuple(points)


def parse_weight_set(text: str, grid: UniformGrid) -> tuple[int, ...]:
    """Parse a weight set of the grid such as '0,2-4,7' into a sorted tuple.

    Tokens are nonnegative integers or inclusive dash ranges; the empty
    string denotes the empty set.  Every token is checked against the
    grid's weights before any range is expanded, and the smallest weight
    outside them is the one reported.
    """
    text = text.strip()
    if not text:
        return ()
    spans = []
    for token in text.split(","):
        token = token.strip()
        lo, dash, hi = token.partition("-")
        error = f"bad weight-set token {token!r}"
        a = _decimal(lo, error)
        b = _decimal(hi, error) if dash else a
        if a > b:
            raise ParseError(f"{error}: empty range")
        spans.append((a, b))
    for a, b in sorted(spans):
        if b > grid.max_weight:
            grid.check_weight(max(a, grid.max_weight + 1))
    return tuple(sorted({w for a, b in spans for w in range(a, b + 1)}))
