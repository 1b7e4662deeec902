import gc
import random
import tracemalloc
from fractions import Fraction
from math import comb, factorial, prod

import pytest

from gridhilbert import (
    LengthMismatch,
    WeightOutOfRange,
    UniformGrid,
    eval_matrix,
    falling_factorial_value,
    rank,
    rank_block,
    up_matrix,
)
from gridhilbert.hilbert import rank_oracle_sweep
from gridhilbert.linalg import (
    ExactMatrix,
    Span,
    _binomial_table,
    binomial_rows,
    eval_columns,
    layer_span,
    pivot_sweep,
    subset_sweep,
)
from gridhilbert.verify import verification_family


def _reference_rank(entries):
    """Textbook Gaussian elimination over Fraction, used as an oracle."""
    rows = [[Fraction(e) for e in row] for row in entries]
    if not rows or not rows[0]:
        return 0
    r = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col] / rows[r][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def _labels(n):
    return tuple((i,) for i in range(n))


def _matrix(entries):
    rows = tuple(tuple(row) for row in entries)
    return ExactMatrix(_labels(len(rows)), _labels(len(rows[0])), rows)


def test_falling_factorial_values():
    assert falling_factorial_value((0,), (5,)) == 1
    assert falling_factorial_value((2,), (4,)) == 12
    assert falling_factorial_value((3,), (2,)) == 0
    assert falling_factorial_value((1, 2), (3, 3)) == 18
    assert falling_factorial_value((2, 1), (2, 0)) == 0
    assert falling_factorial_value((), ()) == 1
    with pytest.raises(LengthMismatch):
        falling_factorial_value((1,), (1, 2))


def test_falling_factorial_vanishing_characterization():
    grid = UniformGrid((4, 3))
    for alpha in grid.points():
        for x in grid.points():
            value = falling_factorial_value(alpha, x)
            dominates = all(a <= b for a, b in zip(alpha, x))
            assert (value != 0) == dominates
            if alpha == x:
                assert value == _point_factorial(alpha)


def _point_factorial(alpha):
    out = 1
    for a in alpha:
        out *= factorial(a)
    return out


def test_rank_hand_examples():
    assert rank(_matrix([[1, 2], [2, 4]])).rank == 1
    assert rank(_matrix([[1, 2], [3, 4]])).rank == 2
    assert rank(_matrix([[0, 0], [0, 0]])).rank == 0
    assert rank(_matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])).rank == 2
    assert rank(_matrix([[2, 2, 2]])).rank == 1
    entries = [[0, 1, 1], [0, 2, 2]]
    assert rank(_matrix(entries)).rank == 1
    assert Span(2).extend(zip(*entries)) == [1]


def test_rank_matches_reference_on_random_matrices():
    rng = random.Random(20260822)
    for trial in range(200):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        entries = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        if trial % 3 == 0 and n >= 2:
            # Force some rank deficiency with a dependent row.
            c1, c2 = rng.randint(-3, 3), rng.randint(-3, 3)
            entries[-1] = [c1 * a + c2 * b for a, b in zip(entries[0], entries[n // 2])]
        assert rank(_matrix(entries)).rank == _reference_rank(entries)


def test_rank_on_all_small_eval_matrices():
    for arities in [(3, 3), (2, 4), (2, 2, 2)]:
        grid = UniformGrid(arities)
        n = grid.max_weight
        for d in range(n + 1):
            for w in range(n + 1):
                m = eval_matrix(grid, (d,), (w,))
                assert rank(m).rank == _reference_rank(m.entries)


def _greedy_columns(entries, n_cols):
    """Leftmost greedy independent column set: each column independent of
    the columns kept before it, by one pass over Fraction."""
    echelon = _FractionEchelon()
    columns = ([row[col] for row in entries] for col in range(n_cols))
    return tuple(c for c, v in enumerate(columns) if echelon.add(v) is not None)


def test_rank_pivot_cols_match_greedy_column_scan():
    """The columns a Span keeps, fed a matrix's columns left to right as
    rank and standard_monomials feed them, must match a column-by-column
    greedy scan over Fraction."""
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        entries = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
        assert tuple(Span(n).extend(zip(*entries))) == _greedy_columns(entries, m)


class _FractionEchelon:
    """Reference span over Fraction: rows reduced to 1 at their pivot and
    0 at every other row's pivot, so a vector's reduction is unique."""

    def __init__(self):
        self.rows = []

    def reduce(self, v):
        v = [Fraction(a) for a in v]
        for c, row in self.rows:
            if v[c]:
                f = v[c]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def add(self, v):
        v = self.reduce(v)
        c = next((i for i, a in enumerate(v) if a), None)
        if c is None:
            return None
        v = [a / v[c] for a in v]
        self.rows = [
            (pc, [a - row[c] * b for a, b in zip(row, v)]) for pc, row in self.rows
        ]
        self.rows.append((c, v))
        return c


def _random_vectors(rng, count, length, bound):
    """Random integer vectors with zero vectors and dependent ones mixed in."""
    out = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.1:
            v = [0] * length
        elif roll < 0.4 and len(out) >= 2:
            a, b = rng.sample(out, 2)
            c1, c2 = rng.randint(-5, 5), rng.randint(-5, 5)
            v = [c1 * x + c2 * y for x, y in zip(a, b)]
        else:
            v = [
                rng.randint(-bound, bound) if rng.random() < 0.7 else 0
                for _ in range(length)
            ]
        out.append(v)
    return out


def _random_cases():
    """600 seeded (length, vectors, probes) cases with entries up to 10**12."""
    rng = random.Random(20261018)
    for trial in range(600):
        length = rng.randint(1, 7)
        bound = (9, 10**3, 10**12)[trial % 3]
        vectors = _random_vectors(rng, rng.randint(1, 10), length, bound)
        probes = _random_vectors(rng, 3, length, bound)
        yield length, vectors, probes


def _assert_hadamard_bound(span, kept):
    """Every entry of stored row i is a minor of kept[0..i], so its square is
    at most the product of the squared Euclidean norms of those vectors."""
    bound = 1
    for (*_, row), v in zip(span._rows, kept):
        bound *= sum(a * a for a in v)
        assert max(a * a for a in row) <= bound, (kept, row)


def test_span_matches_fraction_reference_on_random_vectors():
    for length, vectors, probes in _random_cases():
        span, ref = Span(length), _FractionEchelon()
        kept = []
        for i, v in enumerate(vectors):
            for probe in probes + vectors[: i + 1]:
                assert (probe in span) == (not any(ref.reduce(probe)))
            pivot = span.add(v)
            assert pivot == ref.add(v)
            if pivot is not None:
                kept.append(v)
            assert span.rank == len(ref.rows) == _reference_rank(vectors[: i + 1])
        _assert_hadamard_bound(span, kept)


def test_truncate_leaves_the_span_of_the_rows_kept():
    for length, vectors, probes in _random_cases():
        full = Span(length)
        kept = [v for v in vectors if full.add(v) is not None]
        rows = list(full._rows)
        full.truncate(full.rank)
        assert full._rows == rows
        for r in range(len(kept) + 1):
            span = Span(length)
            span.extend(vectors)
            span.truncate(r)
            fresh = Span(length)
            assert fresh.extend(kept[:r]) == list(range(r))
            assert span._rows == fresh._rows
            added = kept[:r]
            for v in probes + vectors:
                assert (v in span) == (v in fresh)
                pivot = span.add(v)
                assert pivot == fresh.add(v)
                if pivot is not None:
                    added.append(v)
            _assert_hadamard_bound(span, added)
    span = Span(3)
    span.extend([[1, 2, 3], [0, 1, 1]])
    span.truncate(0)
    assert span.rank == 0 and [1, 2, 3] not in span
    for bad in (-1, 1):
        with pytest.raises(LengthMismatch):
            span.truncate(bad)


def test_a_reduction_resumed_at_a_stored_row_stores_what_add_stores():
    """_reduce can stop at stored row r and resume there once more rows
    are stored, as the footprint sweep does; the row _store then keeps,
    and its pivot, are the ones add keeps for the same vector."""
    for length, vectors, probes in _random_cases():
        fresh = Span(length)
        kept = [v for v in vectors if fresh.add(v) is not None]
        for v in probes:
            want = fresh.add(v)
            for r in range(len(kept) + 1):
                span = Span(length)
                span.extend(kept[:r])
                w, scale = list(v), [1] * length
                span._reduce(w, scale)
                span.extend(kept[r:])
                span._reduce(w, scale, r)
                assert span._store(w, scale) == want, (kept, v, r)
                assert span._rows == fresh._rows, (kept, v, r)
            if want is not None:
                fresh.truncate(len(kept))


class _DenseBareiss:
    """Reference span: Bareiss's two-term update applied to every entry of
    the vector at every stored row, with no support or scale bookkeeping."""

    def __init__(self):
        self.rows = []

    def add(self, v):
        v, prev = list(v), 1
        for c, row in self.rows:
            p, f = row[c], v[c]
            v = [(p * a - f * b) // prev for a, b in zip(v, row)]
            prev = p
        c = next((i for i, a in enumerate(v) if a), None)
        if c is not None:
            self.rows.append((c, v))
        return c


def _pivots_and_rows(span):
    """The (c, row) pairs of span's records, after checking that each
    record's pivot entry and support are its row's."""
    for c, p, support, row in span._rows:
        assert p == row[c] and support == [i for i, a in enumerate(row) if a]
    return [(c, row) for c, _, _, row in span._rows]


def test_stored_rows_match_the_dense_bareiss_reference():
    """Span writes only a stored row's support and rescales the other
    entries lazily; its stored rows must be the dense update's integers."""

    def feed(span, ref, vectors):
        for v in vectors:
            assert span.add(v) == ref.add(v)
            assert _pivots_and_rows(span) == ref.rows, (vectors, v)

    for length, vectors, probes in _random_cases():
        span, ref = Span(length), _DenseBareiss()
        feed(span, ref, vectors + probes)
        for r in range(span.rank + 1):
            span.truncate(r)
            del ref.rows[r:]
            feed(span, ref, probes + vectors)
    # Pivot entries 2, 1, 1, 1, 1.  The fourth vector's steps: row 0
    # writes entries 0 to 2 at scale 2; row 1 (p = 1 after prev = 2)
    # writes entry 1 and entry 3, last written at scale 1; row 2
    # (p == prev == 1) writes entry 2, still at scale 2, by a plain
    # subtraction.  The fifth's f at row 1 was never written, so it is
    # read at scale 1 below prev = 2.  Each reduction is also stopped
    # after r rows and resumed once the rest are stored, as pivot_sweep
    # resumes its pending rows.
    hand = [
        [2, 1, 2, 0, 0],
        [1, 1, 1, 1, 0],
        [0, 0, 1, 1, 0],
        [1, 1, 0, 1, 0],
        [0, -1, -1, -1, 1],
    ]
    span, ref = Span(5), _DenseBareiss()
    feed(span, ref, hand)
    assert [p for _, p, _, _ in span._rows] == [2, 1, 1, 1, 1]
    for k, v in enumerate(hand):
        for r in range(k + 1):
            span.truncate(r)
            w, scale = list(v), [1] * 5
            span._reduce(w, scale)
            span.extend(hand[r:k])
            span._reduce(w, scale, r)
            assert span._store(w, scale) == k
            assert _pivots_and_rows(span) == ref.rows[: k + 1], (k, r)
    rng = random.Random(20261019)
    for arities in [(5, 5, 2), (6, 9), (3, 3, 3, 3)]:
        grid = UniformGrid(arities)
        N = grid.max_weight
        for _ in range(12):
            d = rng.randint(0, N)
            weights = sorted(rng.sample(range(N + 1), rng.randint(1, N + 1)))
            span, layers = layer_span(grid, d, weights)
            ref = _DenseBareiss()
            for w in weights:
                for v in layers[w]:
                    ref.add(v)
            assert _pivots_and_rows(span) == ref.rows, (arities, d, weights)


def test_row_pivots_are_the_greedy_column_basis():
    rng = random.Random(11)
    for trial in range(200):
        n = rng.randint(1, 5)
        m = rng.randint(1, 6)
        entries = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
        if trial % 3 == 0 and n >= 2:
            entries[-1] = [2 * a - b for a, b in zip(entries[0], entries[n // 2])]
        pivots = [c for c in map(Span(m).add, entries) if c is not None]
        assert tuple(sorted(pivots)) == _greedy_columns(entries, m)


def test_subset_sweep_matches_a_fresh_span_per_mask():
    rng = random.Random(5)
    for _ in range(40):
        length = rng.randint(1, 5)
        blocks = [
            _random_vectors(rng, rng.randint(0, 3), length, 9)
            for _ in range(rng.randint(0, 5))
        ]
        span = Span(length)
        count = 0
        for mask, got in enumerate(subset_sweep(span, blocks)):
            count += 1
            fresh = Span(length)
            for b in reversed(range(len(blocks))):
                if mask >> b & 1:
                    fresh.extend(blocks[b])
            assert got == fresh.rank, (blocks, mask)
            assert span._rows == fresh._rows, (blocks, mask)
        assert count == 1 << len(blocks)


def test_pivot_sweep_matches_a_fresh_span_per_mask():
    """Independent rows that are no grid table: fewer rows than positions,
    half the entries zero so the pivots scatter, the others up to 10^6.
    Then hand-built rows whose rows 0 and 1 lead at one position, so a set
    holding both takes row 0's pivot from the scan past that position."""
    rng = random.Random(11)
    cases = []
    for _ in range(40):
        length = rng.randint(1, 8)
        n = rng.randint(0, min(length, 6))
        while True:
            rows = [
                [rng.choice((0, rng.randint(-10**6, 10**6))) for _ in range(length)]
                for _ in range(n)
            ]
            if len(Span(length).extend(rows)) == n:
                break
        cases.append((length, rows))
    # Row 2 stores pivot 0 with entry 2, so prev is 2.  Row 0 is reduced
    # by it and holds (0, 2, 2, 2, 0) at scales (2, 2, 1, 1, 1); row 1,
    # zero at 0, is shared as it stands, at scale 1.  Both lead at
    # position 1; row 1 stores (0, 2, 2, 0, 2) with pivot entry 2, and its
    # step on row 0 cancels positions 1 and 2 and leaves 2 at position 3,
    # where row 1 is zero.  Read without its scales, position 2 would not
    # cancel.
    cases.append((5, [[2, 2, 1, 1, 0], [0, 1, 1, 0, 1], [2, 1, 0, 0, 0]]))
    # Rows 0 and 1 share their lead at the root and under every set of
    # the other four rows.
    cases.append(
        (
            6,
            [
                [3, 6, 1, 4, 0, 5],
                [3, 2, 0, 4, 2, 0],
                [0, 2, 3, 0, 0, 1],
                [2, 0, 0, 1, 0, 3],
                [0, 0, 1, 0, 2, 0],
                [5, 0, 0, 0, 0, 7],
            ],
        )
    )
    for length, rows in cases:
        n = len(rows)
        assert len(Span(length).extend(rows)) == n
        masks = list(pivot_sweep(rows))
        assert len(masks) == 1 << n
        for mask, pivots in enumerate(masks):
            fresh = Span(length)
            want = [fresh.add(rows[i]) for i in reversed(range(n)) if mask >> i & 1]
            assert pivots == sum(1 << c for c in want), (rows, mask)


def test_span_zero_vectors_and_full_span():
    span = Span(3)
    assert span.add([0, 0, 0]) is None
    assert [0, 0, 0] in span and [1, 0, 0] not in span
    assert span.add([0, 2, 4]) == 1
    assert span.add([0, 1, 2]) is None
    assert span.add([5, 0, 0]) == 0
    assert span.add([7, 0, 1]) == 2
    assert span.rank == 3
    assert [10**12, -3, 11] in span
    assert span.add([1, 1, 1]) is None
    with pytest.raises(LengthMismatch):
        Span(2).add([1, 2, 3])


def test_full_span_still_checks_vector_length():
    span = Span(2)
    assert span.extend([[1, 2], [0, 3]]) == [0, 1]
    assert [5, -7] in span and span.add([5, -7]) is None
    with pytest.raises(LengthMismatch):
        [1, 2, 3] in span
    with pytest.raises(LengthMismatch):
        span.add([1, 2, 3])

    def unread():
        raise AssertionError("a full span read a vector")
        yield

    assert span.extend(unread()) == []


def test_span_extend_stops_once_full():
    span = Span(2)
    consumed = []

    def vectors():
        for v in ([0, 0], [1, 2], [2, 4], [0, 1], [1, 1]):
            consumed.append(v)
            yield v

    assert span.extend(vectors()) == [1, 3]
    assert consumed == [[0, 0], [1, 2], [2, 4], [0, 1]]
    assert Span(0).extend([[]]) == []


def test_eval_matrix_frozen_example():
    grid = UniformGrid((3, 3))
    m = eval_matrix(grid, (1,), (2,))
    assert m.row_labels == ((0, 1), (1, 0))
    assert m.col_labels == ((0, 2), (1, 1), (2, 0))
    assert m.entries == ((2, 1, 0), (0, 1, 2))


def test_eval_matrix_entries_are_falling_factorial_values():
    """Every entry is the pointwise definition at its labels, for every pair of
    row and column weight sets, empty ones included."""
    for arities in [(3, 3), (2, 4), (2, 2, 2), (5, 2)]:
        grid = UniformGrid(arities)
        n = grid.max_weight
        value = {
            (alpha, x): falling_factorial_value(alpha, x)
            for alpha in grid.points()
            for x in grid.points()
        }
        subsets = [
            [w for w in range(n + 1) if mask >> w & 1] for mask in range(1 << (n + 1))
        ]
        for rows in subsets:
            for cols in subsets:
                m = eval_matrix(grid, rows, cols)
                assert m.row_labels == grid.unfold(rows)
                assert m.col_labels == grid.unfold(cols)
                assert m.entries == tuple(
                    tuple(value[alpha, x] for x in m.col_labels)
                    for alpha in m.row_labels
                ), (arities, rows, cols)


# Larger grids outside the verification family, picked by hand for cost;
# tests/test_suites_off_family.py checks that they are outside it.
_OFF_FAMILY = [(2, 3, 4, 5), (6, 6, 6), (5, 5, 2), (6, 9), (3, 3, 3, 3)]


def test_binomial_table_is_unitriangular_and_its_spans_stay_at_one_bit():
    """C(x, alpha) vanishes unless alpha <= x componentwise, which lex order
    extends, and C(x, x) = 1; so on the full grid, exponent alpha's row is
    zero before alpha and 1 at alpha in lex order.  The table is
    unitriangular, hence unimodular, and every Bareiss entry of a layer
    span, a minor of it, is -1, 0 or 1.  Ranks, closures and footprints
    are invariant under scaling an exponent's entries, so they cannot tell
    this table from the falling-factorial one; the size of the span's
    entries can."""
    grids = [*verification_family(), *map(UniformGrid, _OFF_FAMILY)]
    for grid in grids:
        points = tuple(grid.points())
        for i, row in enumerate(binomial_rows(points, points)):
            assert row[i] == 1 and not any(row[:i]), (grid.spec(), i)
        N = grid.max_weight
        for d in range(N + 1):
            span, _ = layer_span(grid, d, range(N + 1))
            assert span.rank == sum(grid.layer_sizes[: d + 1])
            entries = {a for *_, row in span._rows for a in row}
            assert entries <= {-1, 0, 1}, (grid.spec(), d, max(map(abs, entries)))


def _binomial_reference(grid, exponents):
    """Per weight, each point's C(x, alpha) as a product of math.comb over its
    coordinates, for every exponent in the order given."""
    return [
        [
            tuple(prod(map(comb, x, alpha)) for alpha in exponents)
            for x in grid.layer(w)
        ]
        for w in range(grid.max_weight + 1)
    ]


def test_eval_columns_grow_in_any_degree_order():
    """The held table grows by weight runs, prepended; every degree, asked
    in ascending, descending or shuffled order, reads the reference
    columns cut to the suffix of the exponents of weight <= d."""
    rng = random.Random(18)
    for grid in [*verification_family(), *map(UniformGrid, _OFF_FAMILY)]:
        degrees = list(range(grid.max_weight + 1))
        exponents = [a for t in reversed(degrees) for a in grid.layer(t)]
        reference = _binomial_reference(grid, exponents)
        for order in (degrees, degrees[::-1], rng.sample(degrees, len(degrees))):
            _binomial_table.cache_clear()
            for d in order:
                cut = len(reference[0][0]) - sum(grid.layer_sizes[: d + 1])
                want = tuple(tuple(v[cut:] for v in layer) for layer in reference)
                assert eval_columns(grid, d) == want, (grid.spec(), order, d)


def test_layer_columns_lead_with_their_own_exponent():
    """C(x, alpha) != 0 only when alpha <= x, and every such alpha but x has
    a lower weight, so in descending weight runs the first nonzero of the
    column of a point x with |x| <= d is C(x, x) = 1 at x's own exponent."""
    for grid in [*verification_family(), *map(UniformGrid, _OFF_FAMILY)]:
        _binomial_table.cache_clear()
        for d in range(grid.max_weight + 1):
            exponents = [a for t in range(d, -1, -1) for a in grid.layer(t)]
            layers = eval_columns(grid, d)
            for w in range(d + 1):
                for x, v in zip(grid.layer(w), layers[w]):
                    lead = next(i for i, e in enumerate(v) if e)
                    assert (exponents[lead], v[lead]) == (x, 1), (grid.spec(), d, x)


def test_eval_matrix_and_rank_block_off_the_family():
    """eval_matrix reads alpha! C(x, alpha) in canonical order, and
    rank_block, which feeds the exponent rows to its Span, agrees with
    rank, which feeds the matrix's columns; empty weight sets included."""
    rng = random.Random(19)
    for grid in map(UniformGrid, _OFF_FAMILY):
        N = grid.max_weight
        for _ in range(6):
            rows = rng.sample(range(N + 1), rng.randint(0, N + 1))
            cols = rng.sample(range(N + 1), rng.randint(0, N + 1))
            exponents, points = grid.unfold(rows), grid.unfold(cols)
            want = tuple(
                tuple(
                    prod(map(factorial, alpha)) * prod(map(comb, x, alpha))
                    for x in points
                )
                for alpha in exponents
            )
            m = eval_matrix(grid, rows, cols)
            assert (m.row_labels, m.col_labels) == (exponents, points)
            assert m.entries == want, (grid.spec(), rows, cols)
            assert rank_block(grid, rows, cols) == rank(m).rank, (grid.spec(), rows, cols)


def test_growth_leaves_layers_a_caller_holds_as_they_were():
    """rank_oracle_sweep keeps its layers across its yields, while other
    calls may grow the same grid's table."""
    grid = UniformGrid((3, 3, 3, 3))
    N = grid.max_weight
    _binomial_table.cache_clear()
    layers = layer_span(grid, 2)[1]
    held = [list(layer) for layer in layers]
    sweep = rank_oracle_sweep(grid, 2)
    ranks = [next(sweep)]
    eval_columns(grid, N)
    ranks += sweep
    assert len(layers) == N + 1
    assert [list(layer) for layer in layers] == held
    _binomial_table.cache_clear()
    assert ranks == list(rank_oracle_sweep(grid, 2))


def test_held_table_keeps_no_second_copy():
    """After degrees 3, 6 and 5 on 8,8,8 the grid holds one degree-6 table,
    not a degree-3 or degree-5 copy beside it.  A full collection empties
    the interpreter's free lists, which would otherwise count the freed
    degree-3 columns after the growth, or hand out untraced tuples during it."""

    def held_bytes(degrees):
        _binomial_table.cache_clear()
        grid = UniformGrid((8, 8, 8))
        gc.collect()
        tracemalloc.start()
        try:
            for d in degrees:
                eval_columns(grid, d)
            gc.collect()
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    assert held_bytes([3, 6, 5]) <= held_bytes([6])


def test_up_matrix_frozen_example():
    grid = UniformGrid((3, 3))
    m = up_matrix(grid, 1)
    assert m.row_labels == ((0, 1), (1, 0))
    assert m.col_labels == ((0, 2), (1, 1), (2, 0))
    assert m.entries == ((1, 1, 0), (0, 1, 1))


def test_up_matrix_rejects_weights_outside_the_grid():
    grid = UniformGrid((3, 3))
    with pytest.raises(WeightOutOfRange, match=r"^weight 5 outside \[0, 4\]$"):
        up_matrix(grid, grid.max_weight)
    with pytest.raises(WeightOutOfRange, match=r"^weight -1 outside \[0, 4\]$"):
        up_matrix(grid, -1)


def test_up_matrix_entries_are_cover_indicators():
    grid = UniformGrid((2, 3, 2))
    for d in range(grid.max_weight):
        m = up_matrix(grid, d)
        for i, alpha in enumerate(m.row_labels):
            for j, beta in enumerate(m.col_labels):
                covers = all(a <= b for a, b in zip(alpha, beta))
                assert m.entries[i][j] == int(covers)
