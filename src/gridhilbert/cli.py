"""Command-line front door: a command table and one emitter for text or JSON.

Each result command returns a JSON payload and the lines of its text
form, and main prints one of the two.  Exit status 0 is success, 1 is a
usage or domain error (diagnostic on standard error), and 2 means a
verification suite found a counterexample, which is printed as JSON even
in text mode.  _Output is deterministic: identical arguments produce
identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import Any, Iterable, Sequence

from . import closure as _closure
from . import hilbert as _hilbert
from . import linalg as _linalg
from . import shattering as _shattering
from .errors import GridError, ParseError
from .grid import UniformGrid, _decimal, parse_grid, parse_points, parse_weight_set

_Output = tuple[dict[str, Any], list[str]]


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit status 1."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt_weights(weights: Iterable[int]) -> str:
    return ",".join(str(w) for w in weights)


def _cmd_hilbert(args: argparse.Namespace, grid: UniformGrid) -> _Output:
    E = parse_weight_set(args.set, grid)
    closed = _hilbert.hilbert_closed(grid, args.degree, E)
    oracle = _hilbert.hilbert_rank_oracle(grid, args.degree, E)
    payload = dict(grid=grid.spec(), degree=args.degree, set=list(E))
    payload.update(closed=str(closed), oracle=str(oracle))
    lines = [f"closed={closed}, oracle={oracle}"]
    if args.dump_matrix:
        matrix = _linalg.eval_matrix(grid, range(args.degree + 1), E)
        payload["matrix"] = [[str(e) for e in row] for row in matrix.entries]
        lines += matrix.to_lines()
    return payload, lines


def _cmd_layer_sizes(args: argparse.Namespace, grid: UniformGrid) -> _Output:
    sizes = grid.layer_sizes
    payload = dict(grid=grid.spec(), sizes=[str(s) for s in sizes])
    return payload, [_fmt_weights(sizes)]


def _cmd_be_enum(args: argparse.Namespace, grid: UniformGrid) -> _Output:
    E = parse_weight_set(args.set, grid)
    enum = _hilbert.be_enumeration(grid.max_weight, args.degree, E)
    fields = dict(t_desc=enum.t_desc, w_asc=enum.w_asc, kept=enum.kept)
    payload = dict(grid=grid.spec(), degree=args.degree, set=list(E))
    payload.update((key, list(value)) for key, value in fields.items())
    return payload, [f"{key}={_fmt_weights(value)}" for key, value in fields.items()]


def _cmd_profile(args: argparse.Namespace, grid: UniformGrid) -> _Output:
    E = parse_weight_set(args.set, grid)
    pairs = _hilbert.hilbert_profile(grid.max_weight, args.degree, E)
    value = _hilbert.hilbert_closed(grid, args.degree, E)
    payload = dict(grid=grid.spec(), degree=args.degree, set=list(E))
    payload.update(profile=[[u, v] for u, v in pairs], value=str(value))
    return payload, [f"{u},{v}" for u, v in pairs] + [f"value={value}"]


def _cmd_closure(args: argparse.Namespace, grid: UniformGrid) -> _Output:
    E = parse_weight_set(args.set, grid)
    report = _closure.closure_report(grid, args.degree, E)
    agree = report.lbar == report.zstar
    payload = dict(grid=grid.spec(), degree=args.degree, input=list(report.input))
    payload.update(lbar=list(report.lbar), zstar=list(report.zstar))
    payload.update(iterations=report.iterations, agree=agree)
    return payload, [
        f"input={_fmt_weights(report.input)}",
        f"lbar={_fmt_weights(report.lbar)}",
        f"zstar={_fmt_weights(report.zstar)}",
        f"iterations={report.iterations}",
        f"agree={'yes' if agree else 'no'}",
    ]


def _downset(args: argparse.Namespace, grid: UniformGrid) -> _Output:
    """sm by shattering.standard_monomials, ordstr by shattering.ord_str."""
    if (args.set is None) == (args.points is None):
        raise ParseError("provide exactly one of --set and --points")
    if args.set is not None:
        points = grid.unfold(parse_weight_set(args.set, grid))
    else:
        points = parse_points(args.points)
    route = (
        _shattering.standard_monomials if args.command == "sm" else _shattering.ord_str
    )
    ordered = sorted(route(grid, points))
    payload = dict(
        grid=grid.spec(),
        points=[list(p) for p in sorted(set(points))],
        downset=[list(b) for b in ordered],
        size=len(ordered),
    )
    return payload, [_fmt_weights(b) for b in ordered]


def _cmd_verify(args: argparse.Namespace) -> int:
    """Run the suites, printing each text line as its suite finishes.

    Only this command imports verify, so a query process never loads the
    suites.  A flag left out is left out of Limits too, whose fields are
    the one place the defaults are written."""
    from . import verify

    given = dict(max_points=args.max_points, seed=args.seed)
    limits = verify.Limits(**{k: v for k, v in given.items() if v is not None})
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    results = []
    for name in names:
        result = verify.verify_suite(name, limits)
        results.append(result)
        if not args.json:
            verdict = "ok" if result.passed else "FAIL"
            print(f"suite {result.name}: {verdict} ({result.checked} checks)")
            if not result.passed:
                print(json.dumps(result.counterexample))
            sys.stdout.flush()
    failed = sum(not r.passed for r in results)
    if args.json:
        print(json.dumps({"suites": [r._asdict() for r in results]}))
    elif failed:
        print(f"{failed} of {len(results)} suites failed")
    return 2 if failed else 0


_GRID = ("--grid", dict(required=True, help="arities, e.g. 3,3"))
_WEIGHTED = (
    _GRID,
    ("--degree", dict(type=_decimal, required=True)),
    ("--set", dict(required=True, help="weights, e.g. 0,2-4,7")),
)
_DUMP = (
    "--dump-matrix",
    dict(action="store_true", help="also emit the evaluation matrix, one row per line"),
)
_DOWNSET = (
    _GRID,
    ("--set", dict(help="weights; the set is the union of layers")),
    ("--points", dict(help="explicit points, e.g. '0,0;1,2' (semicolon-separated)")),
)
# verify.SUITES's names in its order, kept here so that building the parser
# does not import verify; a test keeps the two equal.
_SUITE_NAMES = (
    "grid-hilbert", "cube", "wilson", "up-rank", "factorization", "tail-collapse",
    "interval-rank", "zstar-lbar", "closure-laws", "shattering", "layers", "digression",
)
_SUITES = f"one of: {', '.join(_SUITE_NAMES)}, all (default)"
_VERIFY = (
    ("suite", dict(nargs="?", default="all", help=_SUITES)),
    ("--max-points", dict(type=_decimal)),
    ("--seed", dict(type=_decimal)),
)

# name -> (function, help, argument specs in declaration order); every
# command also takes --json, declared before its specs.
_COMMANDS = {
    "hilbert": (_cmd_hilbert, "Hilbert function, both routes", (*_WEIGHTED, _DUMP)),
    "layer-sizes": (_cmd_layer_sizes, "layer sizes of a grid", (_GRID,)),
    "be-enum": (_cmd_be_enum, "pairing enumeration of a set", _WEIGHTED),
    "profile": (_cmd_profile, "degree profile of a large set", _WEIGHTED),
    "closure": (_cmd_closure, "both closure routes for a set", _WEIGHTED),
    "sm": (_downset, "standard monomials of a point set", _DOWNSET),
    "ordstr": (_downset, "order-shattered multisets of a point set", _DOWNSET),
    "verify": (_cmd_verify, "run a verification suite", _VERIFY),
}


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gridhilbert",
        description=(
            "Exact Hilbert functions, closures, and standard monomials "
            "of weight-determined sets in uniform grids."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_, specs) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit JSON")
        for flag, options in specs:
            p.add_argument(flag, **options)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        payload, lines = args.func(args, parse_grid(args.grid))
    except GridError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload))
    else:
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
