"""Known mutants of gridhilbert, each with the tests that should kill it.

Usage:
    python3 tools/mutants.py            run every mutant
    python3 tools/mutants.py NAME ...   run the named mutants

A mutant is a file, an exact old/new string pair and a pytest selection.
The old string must occur exactly once in the file, and each selection
must name a test file and test function that exist, so a refactor that
moves the code or the tests makes the list fail loudly instead of
testing nothing.
The tool copies ``src``, ``tests``, ``pyproject.toml`` and ``README.md``
(whose examples ``tests/test_golden.py`` reads) to a temporary
directory and first runs every selection on the unmutated copy, which
must pass.  Then, per mutant, it makes a fresh copy, applies the
mutant and runs its selection there, with ``PYTHONPATH`` on the copy's
``src``.  A mutant is killed when the selection fails or runs out of
time, and survives when it passes.  The tree itself is never modified.

The exit status is 0 when every mutant was killed, 1 when one survived
and 2 when the list is stale.  Stdlib only; like ``bench/tests``, this
is not part of tier-1.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "ascending-t-desc",
        "src/gridhilbert/hilbert.py",
        "t_desc=tuple(t for t in range(d, -1, -1) if t not in kept),",
        "t_desc=tuple(t for t in range(d + 1) if t not in kept),",
        ("tests/test_hilbert.py",),
    ),
    Mutant(
        "layer-display-checks-degree-as-weight",
        "src/gridhilbert/hilbert.py",
        "sizes[check_degree(d, grid.max_weight)]",
        "sizes[grid.check_weight(d)]",
        ("tests/test_hilbert.py::test_bad_arguments",),
    ),
    Mutant(
        "profile-spare-ascending",
        "src/gridhilbert/hilbert.py",
        "zip(be.w_asc, be.t_desc)",
        "zip(be.w_asc, sorted(be.t_desc))",
        ("tests/test_hilbert.py",),
    ),
    Mutant(
        "su2-weak-growth",
        "src/gridhilbert/grid.py",
        "all(sizes[j] < sizes[j + 1] for j in range(self.max_weight // 2))",
        "all(sizes[j] <= sizes[j + 1] for j in range(self.max_weight // 2))",
        ("tests/test_grid.py",),
    ),
    # UniformGrid is a plain class with hand-written dunders: an equality
    # blind to the order of the arities, and a grid whose attributes can
    # be assigned.
    Mutant(
        "grid-eq-ignores-coordinate-order",
        "src/gridhilbert/grid.py",
        "        return self.arities == other.arities\n",
        "        return sorted(self.arities) == sorted(other.arities)\n",
        ("tests/test_values.py::test_a_grid_is_an_immutable_value_not_a_tuple",),
    ),
    Mutant(
        "grid-assignment-allowed",
        "src/gridhilbert/grid.py",
        "    __setattr__ = __delattr__ = _immutable\n",
        "    __delattr__ = _immutable\n",
        ("tests/test_values.py::test_a_grid_is_an_immutable_value_not_a_tuple",),
    ),
    Mutant(
        "wilson-w-before-d",
        "src/gridhilbert/verify.py",
        "    for d in range(N + 1):\n"
        "        for w in range(N + 1):\n"
        "            value = hilbert.hilbert_closed(grid, d, (w,))\n",
        "    for w in range(N + 1):\n"
        "        for d in range(N + 1):\n"
        "            value = hilbert.hilbert_closed(grid, d, (w,))\n",
        (
            "tests/test_acceptance.py::test_criterion_03_single_layer_display_and_duality",
        ),
    ),
    Mutant(
        "oracle-drops-degree-d-rows",
        "src/gridhilbert/linalg.py",
        "exponents = [a for t in range(top, held, -1) for a in grid.layer(t)]",
        "exponents = [a for t in range(top - 1, held, -1) for a in grid.layer(t)]",
        ("tests/test_hilbert.py",),
    ),
    Mutant(
        "bareiss-scale-not-recorded",
        "src/gridhilbert/linalg.py",
        "                        scale[i] = p\n",
        "",
        ("tests/test_linalg.py::test_stored_rows_match_the_dense_bareiss_reference",),
    ),
    Mutant(
        "bareiss-drops-final-rescale",
        "src/gridhilbert/linalg.py",
        "row[i] = v[i] * prev // scale[i]",
        "row[i] = v[i]",
        ("tests/test_linalg.py::test_stored_rows_match_the_dense_bareiss_reference",),
    ),
    Mutant(
        "bareiss-rescale-skips-the-pivot",
        "src/gridhilbert/linalg.py",
        "        for i in support:\n            row[i] = v[i] * prev // scale[i]\n",
        "        for i in support[1:]:\n            row[i] = v[i] * prev // scale[i]\n",
        ("tests/test_linalg.py::test_stored_rows_match_the_dense_bareiss_reference",),
    ),
    Mutant(
        "truncate-keeps-one-row-more",
        "src/gridhilbert/linalg.py",
        "        del self._rows[rank:]\n",
        "        del self._rows[rank + 1:]\n",
        ("tests/test_linalg.py::test_truncate_leaves_the_span_of_the_rows_kept",),
    ),
    # The previous row's pivot entry is read off the stored records: _store
    # reading the first record's, and a resumed _reduce starting from 1.
    Mutant(
        "store-reads-first-pivot-entry",
        "src/gridhilbert/linalg.py",
        "prev = self._rows[-1][1] if self._rows else 1",
        "prev = self._rows[0][1] if self._rows else 1",
        ("tests/test_linalg.py::test_stored_rows_match_the_dense_bareiss_reference",),
    ),
    Mutant(
        "reduce-resumes-from-prev-1",
        "src/gridhilbert/linalg.py",
        "prev = rows[start - 1][1] if start else 1",
        "prev = 1",
        (
            "tests/test_linalg.py::"
            "test_a_reduction_resumed_at_a_stored_row_stores_what_add_stores",
        ),
    ),
    # The two shortcuts of a Bareiss step: the pivot entry f or another
    # entry read unscaled when it was last written at the scale 1 rather
    # than at prev, the plain subtraction of a unit step taken on a unit
    # pivot after a non-unit one, and a unit step that reads an entry
    # last written at a scale other than 1 unscaled.
    Mutant(
        "reduce-keeps-f-of-scale-1-unscaled",
        "src/gridhilbert/linalg.py",
        "if scale[c] != prev:",
        "if scale[c] != 1:",
        ("tests/test_linalg.py::test_stored_rows_match_the_dense_bareiss_reference",),
    ),
    Mutant(
        "reduce-keeps-entries-of-scale-1-unscaled",
        "src/gridhilbert/linalg.py",
        "cur = v[i] if q == prev else v[i] * prev // q",
        "cur = v[i] if q == 1 else v[i] * prev // q",
        ("tests/test_linalg.py::test_stored_rows_match_the_dense_bareiss_reference",),
    ),
    Mutant(
        "reduce-unit-step-on-any-unit-pivot",
        "src/gridhilbert/linalg.py",
        "if p == prev == 1:",
        "if p == 1:",
        ("tests/test_linalg.py::test_stored_rows_match_the_dense_bareiss_reference",),
    ),
    Mutant(
        "unit-step-ignores-the-scale",
        "src/gridhilbert/linalg.py",
        "(v[i] if q == 1 else v[i] // q) - f * row[i]",
        "v[i] - f * row[i]",
        ("tests/test_linalg.py::test_stored_rows_match_the_dense_bareiss_reference",),
    ),
    Mutant(
        "cut-masks-le",
        "src/gridhilbert/shattering.py",
        "if i // s % k < v) for v in range(1, k))",
        "if i // s % k <= v) for v in range(1, k))",
        ("tests/test_shattering.py",),
    ),
    Mutant(
        "wrong-tail-stride",
        "src/gridhilbert/shattering.py",
        "s = math.prod(grid.arities[t + 1 :])",
        "s = math.prod(grid.arities[t + 2 :])",
        ("tests/test_shattering.py",),
    ),
    # The one-shot recursion tries every cut of every group that keeps
    # at least the downset size, upper part first, under two size bounds.
    Mutant(
        "shatters-tries-only-the-first-cut",
        "src/gridhilbert/shattering.py",
        "            for cut in cuts:\n                lower = group & cut\n",
        "            for cut in cuts[:1]:\n                lower = group & cut\n",
        ("tests/test_shattering.py::test_bitmask_recursion_matches_frozenset_reference",),
    ),
    Mutant(
        "shatters-size-bound-one-high",
        "src/gridhilbert/shattering.py",
        "if S.bit_count() < need:",
        "if S.bit_count() <= need:",
        ("tests/test_shattering.py::test_bitmask_recursion_matches_frozenset_reference",),
    ),
    Mutant(
        "shatters-group-bound-one-high",
        "src/gridhilbert/shattering.py",
        "if group.bit_count() >= need:",
        "if group.bit_count() > need:",
        ("tests/test_shattering.py::test_bitmask_recursion_matches_frozenset_reference",),
    ),
    Mutant(
        "shatters-one-target-index",
        "src/gridhilbert/shattering.py",
        "_shatters(steps, group ^ lower, j_deleted, memo)",
        "_shatters(steps, group ^ lower, j_removed, memo)",
        ("tests/test_shattering.py::test_bitmask_recursion_matches_frozenset_reference",),
    ),
    Mutant(
        "extend-stops-one-early",
        "src/gridhilbert/linalg.py",
        "                if len(self._rows) == self.length:\n"
        "                    break\n",
        "                if len(self._rows) == self.length - 1:\n"
        "                    break\n",
        ("tests/test_linalg.py",),
    ),
    Mutant(
        "prev-never-updated",
        "src/gridhilbert/linalg.py",
        "            prev = p\n",
        "",
        ("tests/test_linalg.py",),
    ),
    Mutant(
        "truncate-no-op",
        "src/gridhilbert/linalg.py",
        "        del self._rows[rank:]\n",
        "        pass\n",
        ("tests/test_linalg.py",),
    ),
    Mutant(
        "subset-sweep-without-truncate",
        "src/gridhilbert/linalg.py",
        "        span.truncate(floors[-1])\n",
        "",
        ("tests/test_sweeps.py",),
    ),
    Mutant(
        "subset-sweep-yields-the-parent-rank",
        "src/gridhilbert/linalg.py",
        "yield span.rank",
        "yield floors[-2]",
        ("tests/test_sweeps.py",),
    ),
    Mutant(
        "length-check-after-full-return",
        "src/gridhilbert/linalg.py",
        "        self._check_length(v)\n"
        "        if len(self._rows) == self.length:\n"
        "            return True\n",
        "        if len(self._rows) == self.length:\n"
        "            return True\n"
        "        self._check_length(v)\n",
        ("tests/test_linalg.py",),
    ),
    Mutant(
        "footprint-drops-first-pivot",
        "src/gridhilbert/linalg.py",
        "answer |= 1 << c",
        "answer |= bool(rank) << c",
        ("tests/test_sweeps.py",),
    ),
    # The footprint sweep's elimination tree, linalg.pivot_sweep: a lower
    # pending row left unreduced by the new row, one that the new row
    # writes shared with the parent level, and an answer not inherited
    # from the parent.
    Mutant(
        "footprint-lower-rows-not-reduced",
        "src/gridhilbert/linalg.py",
        "                span._reduce(v, scale, rank)\n",
        "",
        ("tests/test_fibre_recursion.py::test_footprint_sweep_matches_the_fibre_recursion",),
    ),
    Mutant(
        "footprint-shares-a-written-row",
        "src/gridhilbert/linalg.py",
        "            if v[c]:\n",
        "            if not v[c]:\n",
        ("tests/test_fibre_recursion.py::test_footprint_sweep_matches_the_fibre_recursion",),
    ),
    Mutant(
        "footprint-answer-not-inherited",
        "src/gridhilbert/linalg.py",
        "answer |= 1 << c",
        "answer = 1 << c",
        ("tests/test_fibre_recursion.py::test_footprint_sweep_matches_the_fibre_recursion",),
    ),
    # A leaf, a set holding row 0, reads its pivot off its parent's
    # pending row of row 0: the wrong pending row, and an answer not
    # inherited from the parent level.
    Mutant(
        "footprint-leaf-reads-the-last-pending-row",
        "src/gridhilbert/linalg.py",
        "next(compress(positions, pending[0][0]))",
        "next(compress(positions, pending[-1][0]))",
        ("tests/test_sweeps.py",),
    ),
    Mutant(
        "footprint-leaf-answer-not-inherited",
        "src/gridhilbert/linalg.py",
        "yield answer | 1 << c0",
        "yield 1 << c0",
        ("tests/test_sweeps.py",),
    ),
    # A set whose lowest row is 1 pushes no level, and its leaf reads row
    # 0's pivot off one Bareiss step by row 1: a mask with lowest bit
    # b >= 2 popping the b - 1 levels of a tree with a level per such set,
    # a leaf that keeps row 0's lead where row 1 shares it, and a leaf
    # answer without row 1's pivot.  A scan that starts at c1 in place of
    # c1 + 1 is equivalent: the step cancels that entry.
    Mutant(
        "footprint-pops-a-level-per-row-1-set",
        "src/gridhilbert/linalg.py",
        "del stack[len(stack) - b + 2 :]",
        "del stack[len(stack) - b + 1 :]",
        ("tests/test_linalg.py::test_pivot_sweep_matches_a_fresh_span_per_mask",),
    ),
    Mutant(
        "footprint-pair-leaf-skips-the-scan",
        "src/gridhilbert/linalg.py",
        "                if c0 == c1:\n",
        "                if False:\n",
        ("tests/test_linalg.py::test_pivot_sweep_matches_a_fresh_span_per_mask",),
    ),
    Mutant(
        "footprint-pair-leaf-drops-row-1-pivot",
        "src/gridhilbert/linalg.py",
        "yield answer | 1 << c1 | 1 << c0",
        "yield answer | 1 << c0",
        ("tests/test_linalg.py::test_pivot_sweep_matches_a_fresh_span_per_mask",),
    ),
    Mutant(
        "shattering-sweep-reads-group",
        "src/gridhilbert/shattering.py",
        "t |= restrict(T[j_deleted], G & ~cut) & restrict(T[j_removed], G & cut)",
        "t |= restrict(T[j_deleted], G) & restrict(T[j_removed], G & cut)",
        ("tests/test_sweeps.py",),
    ),
    # Swapping the two target indices (or the two table reads) gives an
    # equivalent mutant.  Reflecting every coordinate, a -> k - 1 - a,
    # exchanges the upper and lower part of every cut, so the swapped
    # recursion answers on A what the true one answers on the reflected
    # set; an affine change of each coordinate keeps every lex leading
    # monomial, so both sets have one footprint and one answer.  Reading
    # both parts at one index is not equivalent.
    Mutant(
        "shattering-sweep-one-target-index",
        "src/gridhilbert/shattering.py",
        "t |= restrict(T[j_deleted], G & ~cut) & restrict(T[j_removed], G & cut)",
        "t |= restrict(T[j_deleted], G & ~cut) & restrict(T[j_deleted], G & cut)",
        ("tests/test_sweeps.py",),
    ),
    Mutant(
        "shattering-sweep-empty-set-shatters",
        "src/gridhilbert/shattering.py",
        "T = [(1 << sets) - 2]",
        "T = [(1 << sets) - 1]",
        ("tests/test_sweeps.py",),
    ),
    # restrict copies the half without point i onto the half with it,
    # once per point outside M; the transpose puts multiset j at bit
    # j & 7 of byte plane j >> 3, the low plane first.
    Mutant(
        "shattering-sweep-restrict-skips-a-point",
        "src/gridhilbert/shattering.py",
        "        for i in range(n):\n            if not M >> i & 1:\n",
        "        for i in range(1, n):\n            if not M >> i & 1:\n",
        ("tests/test_sweeps.py",),
    ),
    Mutant(
        "shattering-sweep-byte-planes-swapped",
        "src/gridhilbert/shattering.py",
        "yield a | b << 8",
        "yield b | a << 8",
        ("tests/test_sweeps.py",),
    ),
    Mutant(
        "shattering-sweep-plane-bit-misplaced",
        "src/gridhilbert/shattering.py",
        "<< (j & 7)",
        "<< (j & 7 ^ 1)",
        ("tests/test_sweeps.py",),
    ),
    Mutant(
        "runner-counts-only-passing-checks",
        "src/gridhilbert/runner.py",
        "        checked += n\n",
        "        checked += n - (counterexample is not None)\n",
        ("tests/test_golden.py",),
    ),
    Mutant(
        "runner-keeps-last-failure",
        "src/gridhilbert/runner.py",
        "    checked = 0\n"
        "    for i, grid in enumerate(grids):\n"
        "        n, counterexample = records[i] if i in records else run(grid)\n"
        "        checked += n\n"
        "        if counterexample is not None:\n"
        "            return checked, counterexample\n"
        "    return checked, None\n",
        "    checked, last = 0, None\n"
        "    for i, grid in enumerate(grids):\n"
        "        n, counterexample = records[i] if i in records else run(grid)\n"
        "        checked += n\n"
        "        if counterexample is not None:\n"
        "            last = checked, counterexample\n"
        "    return last or (checked, None)\n",
        ("tests/test_golden.py",),
    ),
    # The grids are split into shards that run in separate processes; the
    # merge must walk the grids in order, over every child's records, and
    # run in the caller only the grids that have none.
    Mutant(
        "runner-merges-in-shard-order",
        "src/gridhilbert/runner.py",
        "    for i, grid in enumerate(grids):\n",
        "    for i, grid in [(r[0], grids[r[0]]) for shard in shard_records for r in shard]:\n",
        ("tests/test_runner.py",),
    ),
    Mutant(
        "runner-drops-child-records",
        "src/gridhilbert/runner.py",
        "        shard_records.append(marshal.loads(blob))\n",
        "        marshal.loads(blob)\n",
        ("tests/test_runner.py",),
    ),
    Mutant(
        "runner-counts-zero-for-an-unrecorded-grid",
        "src/gridhilbert/runner.py",
        "records[i] if i in records else run(grid)",
        "records.get(i, (0, None))",
        ("tests/test_runner.py",),
    ),
    Mutant(
        "emitter-prints-text-under-json",
        "src/gridhilbert/cli.py",
        "    if args.json:\n        print(json.dumps(payload))\n",
        "    if False:\n        print(json.dumps(payload))\n",
        ("tests/test_golden.py",),
    ),
    Mutant(
        "downset-points-without-dedupe",
        "src/gridhilbert/cli.py",
        "points=[list(p) for p in sorted(set(points))],",
        "points=[list(p) for p in sorted(points)],",
        ("tests/test_golden.py",),
    ),
    Mutant(
        "closure-text-always-agrees",
        "src/gridhilbert/cli.py",
        "f\"agree={'yes' if agree else 'no'}\",",
        "\"agree=yes\",",
        ("tests/test_golden.py",),
    ),
    Mutant(
        "verify-flags-pass-their-absence",
        "src/gridhilbert/cli.py",
        "verify.Limits(**{k: v for k, v in given.items() if v is not None})",
        "verify.Limits(**given)",
        (
            "tests/test_cli.py::"
            "test_verify_names_the_suites_and_passes_only_the_flags_given",
        ),
    ),
    Mutant(
        "cli-imports-verify-at-start-up",
        "src/gridhilbert/cli.py",
        "from . import shattering as _shattering\n",
        "from . import shattering as _shattering\nfrom . import verify as _verify\n",
        ("tests/test_values.py::test_only_the_verify_command_loads_the_suites",),
    ),
    # rank reports only the rank, so feeding the rows to a span of their
    # own length (n_cols) is an equivalent mutant: row rank equals column
    # rank.  Feeding them to the span of column length fails on every
    # non-square matrix.
    Mutant(
        "rank-feeds-rows",
        "src/gridhilbert/linalg.py",
        "return RankResult(len(Span(matrix.n_rows).extend(zip(*matrix.entries))))",
        "return RankResult(len(Span(matrix.n_rows).extend(matrix.entries)))",
        ("tests/test_linalg.py",),
    ),
    Mutant(
        "parse-points-int",
        "src/gridhilbert/grid.py",
        'points.append(tuple(_decimal(t.strip(), error) for t in chunk.split(",")))',
        'points.append(tuple(int(t) for t in chunk.split(",")))',
        ("tests/test_cli.py",),
    ),
    # rank_block and eval_matrix build their blocks with binomial_rows:
    # exponents and points swapped, the exponent rows in reverse order, and
    # each row scaled by a column point's factorial.
    Mutant(
        "rank-block-swaps-exponents-and-points",
        "src/gridhilbert/hilbert.py",
        "linalg.Span(len(cols)).extend(linalg.binomial_rows(rows, cols))",
        "linalg.Span(len(rows)).extend(linalg.binomial_rows(cols, rows))",
        ("tests/test_hilbert.py",),
    ),
    Mutant(
        "eval-matrix-swaps-exponents-and-points",
        "src/gridhilbert/linalg.py",
        "zip(rows, binomial_rows(rows, cols))",
        "zip(rows, zip(*binomial_rows(cols, rows)))",
        ("tests/test_linalg.py",),
    ),
    Mutant(
        "eval-matrix-rows-in-reverse-order",
        "src/gridhilbert/linalg.py",
        "zip(rows, binomial_rows(rows, cols))",
        "zip(rows, binomial_rows(rows[::-1], cols))",
        ("tests/test_linalg.py::test_eval_matrix_and_rank_block_off_the_family",),
    ),
    Mutant(
        "eval-matrix-scales-by-column-points",
        "src/gridhilbert/linalg.py",
        "for alpha, row in zip(rows, binomial_rows(rows, cols))",
        "for alpha, row in zip(cols, binomial_rows(rows, cols))",
        ("tests/test_linalg.py::test_eval_matrix_and_rank_block_off_the_family",),
    ),
    Mutant(
        "falling-factorials-as-powers",
        "src/gridhilbert/linalg.py",
        "[comb(x[i], a) for x in points]",
        "[x[i] ** a for x in points]",
        (
            "tests/test_acceptance.py::test_criterion_05_factorization_through_cover_chains",
        ),
    ),
    # Every rank, closure and footprint answer is invariant under scaling
    # an exponent's entries, so a builder of falling factorials x^(alpha) =
    # alpha! C(x, alpha) gives the routes the same answers; the size of the
    # span's entries tells them apart.
    Mutant(
        "binomials-as-falling-factorials",
        "src/gridhilbert/linalg.py",
        "[comb(x[i], a) for x in points]",
        "[comb(x[i], a) * factorial(a) for x in points]",
        (
            "tests/test_linalg.py::test_binomial_table_is_unitriangular_and_its_spans_stay_at_one_bit",
        ),
    ),
    Mutant(
        "eval-matrix-drops-factorial-scale",
        "src/gridhilbert/linalg.py",
        "tuple(prod(map(factorial, alpha)) * e for e in row)",
        "tuple(row)",
        (
            "tests/test_linalg.py::test_eval_matrix_entries_are_falling_factorial_values",
            "tests/test_acceptance.py::test_criterion_05_factorization_through_cover_chains",
        ),
    ),
    # The factorization suite does its own arithmetic on the entries: a
    # chain multiplied by the next up operator's rows in place of its
    # columns, and the chain's columns scaled by the row exponent's
    # factorial in place of the column point's.
    Mutant(
        "factorization-chain-times-untransposed-up",
        "src/gridhilbert/verify.py",
        "for c in up_columns[w - 1]",
        "for c in ups[w - 1]",
        (
            "tests/test_acceptance.py::test_criterion_05_factorization_through_cover_chains",
            "tests/test_golden.py",
        ),
    ),
    Mutant(
        "factorization-scales-by-row-exponents",
        "src/gridhilbert/verify.py",
        "rhs = [list(map(mul, row, factorials[w])) for row in chain]",
        "rhs = [[f * e for e in row] for f, row in zip(factorials[d], chain)]",
        (
            "tests/test_acceptance.py::test_criterion_05_factorization_through_cover_chains",
            "tests/test_golden.py",
        ),
    ),
    Mutant(
        "footprint-rows-in-graded-order",
        "src/gridhilbert/shattering.py",
        "zip(*binomial_rows(exponents, exponents))",
        "zip(*binomial_rows(exponents, sorted(exponents, key=sum)))",
        ("tests/test_sweeps.py",),
    ),
    # The held table grows by descending weight runs, prepended: a growth
    # that prepends the runs down to exponent 0 again, a lower degree
    # served at the held length, a growth that appends the runs in place
    # of prepending them, a growth that keeps the old columns beside the
    # new ones and a layer's zero runs counted from its own weight, down
    # past the held degree into the runs the table already holds.
    Mutant(
        "growth-restarts-from-exponent-zero",
        "src/gridhilbert/linalg.py",
        "exponents = [a for t in range(top, held, -1) for a in grid.layer(t)]",
        "exponents = [a for t in range(top, -1, -1) for a in grid.layer(t)]",
        ("tests/test_linalg.py::test_eval_columns_grow_in_any_degree_order",),
    ),
    Mutant(
        "lower-degree-served-uncut",
        "src/gridhilbert/linalg.py",
        "    return tuple(tuple(v[cut:] for v in layer) for layer in layers)\n",
        "    return layers\n",
        ("tests/test_linalg.py::test_eval_columns_grow_in_any_degree_order",),
    ),
    Mutant(
        "table-in-ascending-runs",
        "src/gridhilbert/linalg.py",
        "zeros + new + old for new, old in zip(runs, layer)",
        "zeros + old + new for new, old in zip(runs, layer)",
        ("tests/test_linalg.py::test_layer_columns_lead_with_their_own_exponent",),
    ),
    Mutant(
        "growth-keeps-the-old-table",
        "src/gridhilbert/linalg.py",
        "        table[:] = d, layers\n",
        '        vars(_binomial_table).setdefault("kept", []).append(table[1])\n'
        "        table[:] = d, layers\n",
        ("tests/test_linalg.py::test_held_table_keeps_no_second_copy",),
    ),
    Mutant(
        "growth-zeros-reach-below-the-held-degree",
        "src/gridhilbert/linalg.py",
        "sum(grid.layer_sizes[top + 1 : d + 1])",
        "sum(grid.layer_sizes[min(d, w) + 1 : d + 1])",
        ("tests/test_linalg.py::test_eval_columns_grow_in_any_degree_order",),
    ),
    Mutant(
        "layer-span-sized-below-degree",
        "src/gridhilbert/linalg.py",
        "span = Span(sum(grid.layer_sizes[: d + 1]))",
        "span = Span(sum(grid.layer_sizes[:d]))",
        ("tests/test_hilbert.py",),
    ),
    Mutant(
        "z-closure-columns-in-grid-order",
        "src/gridhilbert/closure.py",
        "columns = dict(zip(grid.unfold(range(grid.max_weight + 1)), chain(*layers)))",
        "columns = dict(zip(grid.points(), chain(*layers)))",
        ("tests/test_closure.py",),
    ),
    # Comparing the ranks with <= instead of == gives an equivalent
    # mutant: adding a layer never lowers the rank.
    Mutant(
        "zstar-sweep-toggles-the-bit",
        "src/gridhilbert/closure.py",
        "ranks[mask | 1 << j] == r",
        "ranks[mask ^ 1 << j] == r",
        ("tests/test_sweeps.py",),
    ),
    Mutant(
        "decimal-takes-int-spellings",
        "src/gridhilbert/grid.py",
        "    if token.isdecimal():\n",
        "    if True:\n",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "shattering-drops-exhaustive-size-law",
        "src/gridhilbert/verify.py",
        "holds = shattered == sm and shattered.bit_count() == mask.bit_count()",
        "holds = shattered == sm",
        ("tests/test_golden.py::test_fault_pin[shattering-size]",),
    ),
    Mutant(
        "shattering-drops-sampled-size-law",
        "src/gridhilbert/verify.py",
        "holds = shattered == sm and len(shattered) == len(A)",
        "holds = shattered == sm",
        ("tests/test_golden.py::test_sampled_shattering_size_fault_pin",),
    ),
    Mutant(
        "interval-rank-drops-min-sum",
        "src/gridhilbert/verify.py",
        "yield None if compatible and got == want else dict(",
        "yield None if compatible else dict(",
        ("tests/test_golden.py::test_fault_pin[interval-rank-min-sum]",),
    ),
    # Keying the block by (d, *E) gives an equivalent mutant: |E| is the
    # interval's length, so d and E fix its start c.
    Mutant(
        "interval-rank-memo-drops-interval",
        "src/gridhilbert/verify.py",
        "key = (c, d, *E)",
        "key = tuple(E)",
        ("tests/test_golden.py::test_interval_rank_ranks_each_distinct_block_once",),
    ),
    Mutant(
        "interval-draw-shifts-a-position",
        "src/gridhilbert/verify.py",
        "values[t - c] = v",
        "values[t - c - 1] = v",
        ("tests/test_golden.py::test_interval_rank_ranks_each_distinct_block_once",),
    ),
    Mutant(
        "closure-invariance-memo-shared-across-degrees",
        "src/gridhilbert/verify.py",
        "    for d in range(N + 1):\n"
        "        closures = tables[d]\n"
        "        closed_values = {}\n",
        "    closed_values = {}\n"
        "    for d in range(N + 1):\n"
        "        closures = tables[d]\n",
        (
            "tests/test_golden.py::"
            "test_closure_laws_ask_each_set_and_each_closure_once_per_degree",
        ),
    ),
)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, dest / name)


def _pytest(tree: Path, tests) -> tuple[bool, float, str]:
    """Run the selection in tree: whether it passed, its seconds and the
    last line pytest printed.  A timeout is a failure."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    # Its own session, so that a timeout kills pytest and every process it
    # forked: a suite's shard child holds the output pipes open too.
    proc = subprocess.Popen(
        cmd, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return False, time.perf_counter() - start, f"timeout after {TIMEOUT_S} s"
    lines = out.decode(errors="replace").strip().splitlines() or [""]
    return proc.returncode == 0, time.perf_counter() - start, lines[-1]


def _stale(mutants) -> list[str]:
    """What makes a mutant stale: its old string is not found exactly
    once, or a selection names a file or a test function that is gone."""
    out = []
    for m in mutants:
        count = (ROOT / m.path).read_text().count(m.old)
        if count != 1:
            out.append(f"{m.name}: old string found {count} times in {m.path}")
        for selection in m.tests:
            path, _, test = selection.partition("::")
            text = (ROOT / path).read_text() if (ROOT / path).is_file() else None
            if text is None or test and f"def {test.split('[')[0]}(" not in text:
                out.append(f"{m.name}: selection {selection} is not defined")
    return out


def main(argv: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    mutants = [by_name[name] for name in argv] or list(MUTANTS)
    stale = _stale(mutants)
    if stale:
        print("\n".join(stale), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="gridhilbert-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy_tree(clean)
        selections = sorted({t for m in mutants for t in m.tests})
        passed, seconds, last = _pytest(clean, selections)
        print(f"unmutated: {'pass' if passed else 'FAIL'} in {seconds:.1f} s: {last}")
        if not passed:
            return 2
        survivors = []
        for i, m in enumerate(mutants):
            tree = Path(tmp) / f"m{i}"
            _copy_tree(tree)
            target = tree / m.path
            target.write_text(target.read_text().replace(m.old, m.new))
            passed, seconds, last = _pytest(tree, m.tests)
            verdict = "SURVIVED" if passed else "killed"
            print(f"{m.name:34s} {verdict:8s} {seconds:5.1f} s  {last}", flush=True)
            if passed:
                survivors.append(m.name)
            shutil.rmtree(tree)
    killed = len(mutants) - len(survivors)
    print(f"kill rate: {killed}/{len(mutants)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
