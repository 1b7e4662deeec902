"""Size of the gridhilbert package: lines and statements per module.

Usage:
    python3 tools/size.py

Prints, for each module of ``src/gridhilbert`` and in total, its number
of lines and its number of ``ast.stmt`` nodes found by ``ast.walk``, so
a statement nested in a block counts once and a docstring counts as one
statement however long it is.  Under that table it prints the same two
totals for ``tests/*.py``.  Stdlib only.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gridhilbert"


def _size(path: Path) -> tuple[int, int]:
    text = path.read_text()
    stmts = sum(isinstance(node, ast.stmt) for node in ast.walk(ast.parse(text)))
    return len(text.splitlines()), stmts


def main() -> None:
    lines = stmts = 0
    print(f"{'module':16s} {'lines':>6s} {'stmts':>6s}")
    for path in sorted(PACKAGE.glob("*.py")):
        n_lines, n_stmts = _size(path)
        print(f"{path.name:16s} {n_lines:6d} {n_stmts:6d}")
        lines += n_lines
        stmts += n_stmts
    print(f"{'total':16s} {lines:6d} {stmts:6d}")
    lines, stmts = map(sum, zip(*map(_size, (ROOT / "tests").glob("*.py"))))
    print(f"{'tests/*.py':16s} {lines:6d} {stmts:6d}")


if __name__ == "__main__":
    main()
