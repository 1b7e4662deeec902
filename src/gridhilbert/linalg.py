"""Exact integer linear algebra: one incremental span kernel and exact matrices.

Every exact rank question of the package goes through Span, an
incremental fraction-free (Bareiss) span of integer vectors: the rank
oracle adds evaluation columns to it and the block ranks exponent rows,
the closure routes ask whether a column lies in it, and the footprint
scan keeps the monomial columns that enlarge it.  Nothing here ever
rounds.  A Bareiss step writes only the stored row's nonzero positions;
every other entry is only rescaled, and the scale is applied once, when
the row is stored, and only to its nonzeros, so a step costs the row's
nonzeros, not the vector's length.  An entry that needs no rescale is
read as it stands, and a step between two unit pivots is a plain
subtraction; both write the general step's integer.  A stored row, one
record of one list, depends only on the rows before it, so
Span.truncate(r) leaves exactly the span of the first r stored rows;
subset_sweep uses that to yield the rank of every union of a list of
blocks in increasing mask order with about two span operations per mask
instead of a fresh elimination.
pivot_sweep, the footprint sweep's walk, visits every subset of a list
of independent rows the same way, keeping each lower row reduced ahead,
one Bareiss step per stored row that writes it.  A subset whose lowest
row is 0 or 1 stores no row and pushes no level: it reads its pivots
off its parent's pending rows 0 and 1, and when both lead at one
position, row 0's pivot is the first later position where one Bareiss
step by row 1 would leave a nonzero, found by a zero test per entry.  So
a subset with lowest row b >= 2 pops b - 2 levels, and n rows store
2^(n-2) - 1 rows in all.
The pivot positions of a Span fed the rows of a matrix are the matrix's
lex-first column basis, the same set a column scan keeps.  One builder,
binomial_rows, makes every evaluation table, in the binomial basis
C(x, alpha) = x^(alpha) / alpha!, one exponent's row at a time.  Each
grid holds one table of point columns over the exponents in runs of
descending weight, lex order inside a run, so a lower degree's table is
a suffix of every column: a higher degree prepends only the new weight
runs, with no products for the runs of weight above a layer's, which
are zero, and eval_columns cuts a lower degree from it.  Scaling each
exponent's entries by the nonzero alpha! changes no rank, no span
membership and no pivot position, so every route answers as on the
paper's falling factorials and keeps the same lex-first exponents.
C(x, alpha) vanishes unless alpha <= x componentwise, which lex order
extends, and C(x, x) = 1, so the full grid's table is unitriangular,
hence unimodular, and the Span's entries, minors of it, stay small.
Every other alpha <= x has a lower weight than x, so the column of a
point x with |x| <= d leads with its own diagonal 1, and a Span fed the
layers in ascending weight pivots each such column there.  The held
table has one reader, eval_columns, which alone knows its layout, and
layer_span returns a Span of chosen layers' columns from it for the rank
oracle, its sweep and the closure routes.  eval_matrix and
hilbert.rank_block call binomial_rows on their own exponents and points,
as the footprint routes do; eval_matrix scales row alpha by alpha!, so
the matrix dumps keep falling-factorial entries.  ExactMatrix is a
plain record of labels and entry rows, with no arithmetic: the dumps
and demos print it, rank adds its columns left to right to a Span, and
the factorization suite multiplies and scales its entries itself.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import comb, factorial, perm, prod
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import LengthMismatch
from .grid import Point, UniformGrid, check_degree, check_weight_set

# Cache bound per grid: a sweep uses one grid at a time.  In one process,
# a default "verify all" hit _shatter_tables 1,533 of 1,568 calls; the
# benchmark query list at seed 1729, 77 tables on 7 grids, builds 22
# weight-run growths of 130,682 cells in all, where a cache of 8 (grid,
# degree) tables built 67 tables of 619,672 cells.
_GRID_CACHE_SIZE = 8

_Columns = tuple[tuple[tuple[int, ...], ...], ...]


def falling_factorial_value(alpha: Sequence[int], beta: Sequence[int]) -> int:
    """Product over coordinates of beta_i (beta_i - 1) ... (beta_i - alpha_i + 1).

    This is the evaluation of the falling-factorial monomial with exponent
    alpha at the point beta; it vanishes whenever some alpha_i > beta_i.
    A negative coordinate raises ValueError, from math.perm.
    """
    if len(alpha) != len(beta):
        raise LengthMismatch(
            f"exponent length {len(alpha)} != point length {len(beta)}"
        )
    return prod(map(perm, beta, alpha))


class ExactMatrix(NamedTuple):
    """Dense exact matrix with grid-point labels on its rows and columns."""

    row_labels: tuple[Point, ...]
    col_labels: tuple[Point, ...]
    entries: tuple[tuple[int, ...], ...]

    @property
    def n_rows(self) -> int:
        return len(self.row_labels)

    @property
    def n_cols(self) -> int:
        return len(self.col_labels)

    def to_lines(self) -> list[str]:
        """One line per row, entries separated by single spaces."""
        return [" ".join(str(e) for e in row) for row in self.entries]


class RankResult(NamedTuple):
    rank: int


class Span:
    """Exact span of integer vectors of one length, grown one vector at a time.

    Each stored row is an added vector after reduction by the rows stored
    before it, with Bareiss's two-term update v = (p*v - v[c]*row) // prev,
    where c and p are the row's pivot position and entry and prev is the
    previous row's pivot entry (1 for the first row).  Every entry of the
    reduced vector is then a minor of the vectors seen so far, whatever the
    pivot positions, and by Sylvester's identity each division is exact.

    A step writes only the row's support, its nonzero positions from c on,
    which the row's record (c, p, support, row) in _rows holds, and only
    when v[c] != 0: at every other entry the update multiplies by p / prev,
    and these factors telescope.  So _reduce keeps, per entry, the pivot
    entry q at which it was last written (1 if never), and the entry's
    current value is v[i] * prev // q, exact because that value is a minor.
    Only _store needs the values, and only at the support: it writes them
    into a row of zeros, since a zero entry rescales to zero.  Membership
    needs only whether every entry is zero, which no rescaling changes.  add
    is _reduce then _store, and membership _reduce then a zero test.

    Two cases of a step need less arithmetic, and each writes the integer
    the general formula writes.  An entry last written at q == prev has the
    lazy factor prev / q = 1, so its value is v[i] as it stands; f is read
    the same way.  A step with p == prev == 1 divides by 1, so it writes
    the plain difference value - f * row[i] at scale 1 = p.  The binomial
    tables are unimodular, so both are common on the layer spans.
    """

    __slots__ = ("length", "_rows")

    def __init__(self, length: int) -> None:
        self.length = length
        self._rows: list[tuple[int, int, list[int], list[int]]] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _check_length(self, v: Sequence[int]) -> None:
        if len(v) != self.length:
            raise LengthMismatch(f"vector length {len(v)} != span length {self.length}")

    def _reduce(self, v: list[int], scale: list[int], start: int = 0) -> None:
        """Reduce v in place by the stored rows from start on.

        v and scale are the entries and the pivot entry at which each was
        last written, as a call that stopped at start left them, so a
        reduction can be resumed when more rows are stored: a fresh vector
        starts with scale all 1 and start 0.  The records are walked by
        index, so no call copies the list; an entry at scale prev is read
        as it stands, and a step with p == prev == 1 only subtracts.
        """
        rows = self._rows
        prev = rows[start - 1][1] if start else 1
        for k in range(start, len(rows)):
            c, p, support, row = rows[k]
            f = v[c]
            if f:
                if scale[c] != prev:
                    f = f * prev // scale[c]
                if p == prev == 1:
                    for i in support:
                        q = scale[i]
                        v[i] = (v[i] if q == 1 else v[i] // q) - f * row[i]
                        scale[i] = 1
                else:
                    for i in support:
                        q = scale[i]
                        cur = v[i] if q == prev else v[i] * prev // q
                        v[i] = (p * cur - f * row[i]) // prev
                        scale[i] = p
            prev = p

    def _store(self, v: Sequence[int], scale: Sequence[int]) -> int | None:
        """Store v, reduced by every stored row as _reduce leaves it; its
        pivot position, its first nonzero entry, or None when v is zero.

        The stored row is zero off v's support, and each entry on it is
        rescaled once, to v[i] * prev // scale[i].
        """
        support = list(compress(range(len(v)), v))
        if not support:
            return None
        c = support[0]
        prev = self._rows[-1][1] if self._rows else 1
        row = [0] * len(v)
        for i in support:
            row[i] = v[i] * prev // scale[i]
        self._rows.append((c, row[c], support, row))
        return c

    def add(self, v: Sequence[int]) -> int | None:
        """Store v; its pivot position, or None when v is already in the span.

        A full span reduces every vector to zero, so on a full span add
        returns None.
        """
        self._check_length(v)
        v = list(v)
        scale = [1] * len(v)
        self._reduce(v, scale)
        return self._store(v, scale)

    def __contains__(self, v: Sequence[int]) -> bool:
        self._check_length(v)
        if len(self._rows) == self.length:
            return True
        v = list(v)
        self._reduce(v, [1] * len(v))
        return not any(v)

    def extend(self, vectors: Iterable[Sequence[int]]) -> list[int]:
        """Add vectors in order until the span is full; the positions kept."""
        kept: list[int] = []
        if len(self._rows) == self.length:
            return kept
        for i, v in enumerate(vectors):
            if self.add(v) is not None:
                kept.append(i)
                if len(self._rows) == self.length:
                    break
        return kept

    def truncate(self, rank: int) -> None:
        """Keep the first rank stored rows, as if nothing had been added after them."""
        if not 0 <= rank <= len(self._rows):
            raise LengthMismatch(
                f"cannot truncate a span of rank {len(self._rows)} to {rank}"
            )
        del self._rows[rank:]


def subset_sweep(
    span: Span, blocks: Sequence[Sequence[Sequence[int]]]
) -> Iterator[int]:
    """For every mask in range(1 << len(blocks)), in increasing order, the
    rank of span with its initial rows and the blocks whose bits are set.

    The blocks in the span form a stack, highest index at the bottom.  From
    mask m - 1 to m, the blocks of the bits below m's lowest set bit b are
    popped by one truncate and block b is pushed.  Each block is added in
    its own order, highest block first, so the span holds the same rows a
    fresh span fed the blocks in that order would hold.
    """
    floors = [span.rank]
    yield floors[0]
    for mask in range(1, 1 << len(blocks)):
        b = (mask & -mask).bit_length() - 1
        del floors[len(floors) - b :]
        span.truncate(floors[-1])
        span.extend(blocks[b])
        floors.append(span.rank)
        yield span.rank


def pivot_sweep(rows: Sequence[Sequence[int]]) -> Iterator[int]:
    """For every mask in range(1 << len(rows)), in increasing order, the
    pivot positions, as a mask, of a Span fed the rows whose bits are set.
    The rows are linearly independent and of one length.

    The sets form an elimination tree: a stack of levels, one per row of
    the set above row 1, highest at the bottom, popped and pushed as in
    subset_sweep, which yields ranks.  A level is its answer and, per row
    below its lowest one, that row (v, scale) as _reduce leaves it after
    the level's stored rows, whose number is its depth.  Mask m with
    lowest bit b >= 2 stores row b's pending row on the parent level, adds
    its pivot c to the parent's answer and resumes a copy of each lower
    pending row with v[c] != 0 by that row.  The parent keeps its lists
    for m's siblings and shares each row with v[c] == 0: no list is
    written once on a level, since _store only reads it and _reduce runs
    only on fresh copies.  Each row gets add's steps, in order, so the
    rows, pivots and answers are a fresh Span's.  subset_sweep holds no
    rows ahead, since a block can fill its span and extend then stops;
    here every pending row is nonzero, since the rows are independent.

    A mask m whose lowest bit is row 0 or row 1, three masks in four,
    stores nothing and pushes no level: no row lies below rows 0 and 1,
    so no row it stored would ever be read.  It answers off the level of
    m & ~3, on top of the stack, whose pending[0] and pending[1] are
    already reduced by every row of that level.  _store pivots a row at
    its first nonzero entry, and the entries left unscaled differ from the
    stored ones only by the nonzero factors prev / q, which change no zero
    pattern.  So mask m & ~3 | 1, a leaf, adds c0, the first nonzero
    position of pending[0], and m & ~3 | 2 adds c1, that of pending[1].
    Its one child m & ~3 | 3 is a leaf under it and adds c1 and the first
    nonzero of pending[0] after one Bareiss step by row 1's stored row.
    That row is zero before c1, so the step writes nothing before c1, and
    nothing at all when pending[0] is zero at c1: if c0 != c1, c0 stays
    the first nonzero.  If c0 == c1, the step cancels c1, and row 0's
    pivot is the first i > c1 with p * cur0[i] != f * cur1[i], where cur
    is an entry's value v * prev // scale, p = cur1[c1] and f = cur0[c1];
    the step's exact division by prev changes no zero.  Multiplied by the
    four scales and divided by prev**2, none of them zero, the test reads
    v1[c1] * s0[c1] * v0[i] * s1[i] != v0[c1] * s1[c1] * v1[i] * s0[i]
    on the entries as they stand, and the scan builds nothing.  The three
    masks come in order, so the third reads c0 and c1 as the first two
    found them.  The third is m & ~3 | 3, so the next mask has lowest bit
    b >= 2 and pops b - 2 levels, those of bits 2 to b - 1, where a level
    per mask would make it pop b.  Popping two levels fewer, rather than
    pushing placeholders, keeps only levels that are read on the stack.
    """
    n = len(rows)
    positions = range(len(rows[0]) if rows else 0)
    span = Span(len(positions))
    stack = [(0, [(list(row), [1] * len(positions)) for row in rows])]
    yield 0
    for mask in range(1, 1 << n):
        low = mask & 3
        if low:
            answer, pending = stack[-1]
            if low == 1:
                c0 = next(compress(positions, pending[0][0]))
                yield answer | 1 << c0
            elif low == 2:
                c1 = next(compress(positions, pending[1][0]))
                yield answer | 1 << c1
            else:
                if c0 == c1:
                    (v0, s0), (v1, s1) = pending[0], pending[1]
                    x, y = v1[c1] * s0[c1], v0[c1] * s1[c1]
                    c0 = next(
                        i
                        for i in positions[c1 + 1 :]
                        if x * v0[i] * s1[i] != y * v1[i] * s0[i]
                    )
                yield answer | 1 << c1 | 1 << c0
            continue
        b = (mask & -mask).bit_length() - 1
        del stack[len(stack) - b + 2 :]
        answer, pending = stack[-1]
        rank = len(stack) - 1
        span.truncate(rank)
        c = span._store(*pending[b])
        answer |= 1 << c
        lower = []
        for v, scale in pending[:b]:
            if v[c]:
                v, scale = v[:], scale[:]
                span._reduce(v, scale, rank)
            lower.append((v, scale))
        stack.append((answer, lower))
        yield answer


def rank(matrix: ExactMatrix) -> RankResult:
    """Exact rank of the matrix, its columns added left to right to a Span."""
    return RankResult(len(Span(matrix.n_rows).extend(zip(*matrix.entries))))


def binomial_rows(
    exponents: Iterable[Point], points: Sequence[Point]
) -> Iterator[list[int]]:
    """Per exponent alpha, in the order given, the values C(x, alpha) =
    x^(alpha) / alpha! at the points: the product of the rows C(x_i, alpha_i)
    over the coordinates with alpha_i > 0, each row built once.
    """
    coordinate_rows: dict[tuple[int, int], list[int]] = {}
    ones = [1] * len(points)
    for alpha in exponents:
        out = ones
        for i, a in enumerate(alpha):
            if a:
                row = coordinate_rows.get((i, a))
                if row is None:
                    row = coordinate_rows[i, a] = [comb(x[i], a) for x in points]
                out = list(map(mul, out, row))
        yield out


@lru_cache(maxsize=_GRID_CACHE_SIZE)
def _binomial_table(grid: UniformGrid) -> list:
    """The grid's held table, [degree, columns by weight]; degree -1, with
    empty columns, until eval_columns grows it."""
    return [-1, tuple(((),) * size for size in grid.layer_sizes)]


def eval_columns(grid: UniformGrid, d: int) -> _Columns:
    """Per weight w, the columns of layer w's points in lex order.

    A column holds the point's values under the binomials of weight <= d,
    in runs of descending exponent weight, lex order inside a run.  The
    grid's held table is first grown to degree at least d by prepending
    the runs of exponent weights d down to held + 1, one layer of points
    at a time, as new tuples: a table a caller holds never changes.
    C(x, alpha) = 0 unless alpha <= x, so unless |alpha| <= |x|: in a
    layer w, the runs of weight above w are zeros, prepended as zeros,
    and binomial_rows makes only the runs min(d, w) down to held + 1.  A
    layer with w <= held gets zeros only.  The columns are the held table
    cut to its last sum(grid.layer_sizes[:d+1]) entries; at the held
    degree, the table itself.
    """
    table = _binomial_table(grid)
    held, layers = table
    if d > held:
        grown = []
        for w, layer in enumerate(layers):
            top = max(min(d, w), held)
            zeros = (0,) * sum(grid.layer_sizes[top + 1 : d + 1])
            if top > held:
                exponents = [a for t in range(top, held, -1) for a in grid.layer(t)]
                runs = zip(*binomial_rows(exponents, grid.layer(w)))
                grown.append(tuple(zeros + new + old for new, old in zip(runs, layer)))
            else:
                grown.append(tuple(zeros + old for old in layer))
        layers = tuple(grown)
        table[:] = d, layers
    cut = len(layers[0][0]) - sum(grid.layer_sizes[: d + 1])
    if not cut:
        return layers
    return tuple(tuple(v[cut:] for v in layer) for layer in layers)


def layer_span(
    grid: UniformGrid, d: int, weights: Iterable[int] = ()
) -> tuple[Span, _Columns]:
    """A Span of the given layers' columns, and eval_columns(grid, d).

    The degree is checked before the weights.  The span's length is the
    number of exponents of weight <= d, the length of every column.
    """
    check_degree(d, grid.max_weight)
    weights = check_weight_set(weights, grid.max_weight)
    layers = eval_columns(grid, d)
    span = Span(sum(grid.layer_sizes[: d + 1]))
    span.extend(v for w in weights for v in layers[w])
    return span, layers


def eval_matrix(
    grid: UniformGrid, row_weights: Iterable[int], col_weights: Iterable[int]
) -> ExactMatrix:
    """Evaluation matrix between two weight-determined sets.

    Rows are the exponents of the unfolded row weight set, columns the
    points of the unfolded column weight set, both in canonical order.
    Entry (alpha, x) is the falling factorial x^(alpha): the binomial
    C(x, alpha) of binomial_rows with row alpha scaled by alpha!.
    """
    rows, cols = grid.unfold(row_weights), grid.unfold(col_weights)
    entries = tuple(
        tuple(prod(map(factorial, alpha)) * e for e in row)
        for alpha, row in zip(rows, binomial_rows(rows, cols))
    )
    return ExactMatrix(rows, cols, entries)


def up_matrix(grid: UniformGrid, d: int) -> ExactMatrix:
    """0/1 matrix from layer d to layer d+1: entry 1 iff row <= col componentwise."""
    rows = grid.layer(d)
    cols = grid.layer(d + 1)
    entries = tuple(
        tuple(int(all(a <= b for a, b in zip(alpha, beta))) for beta in cols)
        for alpha in rows
    )
    return ExactMatrix(rows, cols, entries)

