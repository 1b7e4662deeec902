"""Command-line front door: parse grids and sets, dispatch, emit text or JSON.

Exit status 0 is success, 1 is a usage or domain error (diagnostic on
standard error), and 2 means a verification suite found a
counterexample, which is printed as JSON even in text mode.  Output is
deterministic: identical arguments produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable, Sequence

from . import closure as _closure
from . import hilbert as _hilbert
from . import linalg as _linalg
from . import shattering as _shattering
from . import verify as _verify
from .errors import GridError, ParseError
from .grid import Point, parse_grid, parse_weight_set


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit status 1."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt_weights(weights: Iterable[int]) -> str:
    return ",".join(str(w) for w in weights)


def _parse_points(text: str) -> tuple[Point, ...]:
    """Semicolon-separated points with comma-separated coordinates."""
    text = text.strip()
    if not text:
        return ()
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        try:
            points.append(tuple(int(tok) for tok in chunk.split(",")))
        except ValueError:
            raise ParseError(f"bad point {chunk!r} in {text!r}") from None
    return tuple(points)


def _cmd_hilbert(args: argparse.Namespace) -> int:
    grid = parse_grid(args.grid)
    E = parse_weight_set(args.set, grid)
    closed = _hilbert.hilbert_closed(grid, args.degree, E)
    oracle = _hilbert.hilbert_rank_oracle(grid, args.degree, E)
    matrix = None
    if args.dump_matrix:
        matrix = _linalg.eval_matrix(grid, range(args.degree + 1), E)
    if args.json:
        payload = {
            "grid": grid.spec(),
            "degree": args.degree,
            "set": list(E),
            "closed": str(closed),
            "oracle": str(oracle),
        }
        if matrix is not None:
            payload["matrix"] = [
                [str(e) for e in row] for row in matrix.entries
            ]
        print(json.dumps(payload))
    else:
        print(f"closed={closed}, oracle={oracle}")
        if matrix is not None:
            for line in matrix.to_lines():
                print(line)
    return 0


def _cmd_layer_sizes(args: argparse.Namespace) -> int:
    grid = parse_grid(args.grid)
    sizes = grid.layer_sizes
    if args.json:
        print(
            json.dumps(
                {"grid": grid.spec(), "sizes": [str(s) for s in sizes]}
            )
        )
    else:
        print(_fmt_weights(sizes))
    return 0


def _cmd_be_enum(args: argparse.Namespace) -> int:
    grid = parse_grid(args.grid)
    E = parse_weight_set(args.set, grid)
    enum = _hilbert.be_enumeration(grid.max_weight, args.degree, E)
    if args.json:
        print(
            json.dumps(
                {
                    "grid": grid.spec(),
                    "degree": args.degree,
                    "set": list(E),
                    "t_desc": list(enum.t_desc),
                    "w_asc": list(enum.w_asc),
                    "kept": list(enum.kept),
                }
            )
        )
    else:
        print(f"t_desc={_fmt_weights(enum.t_desc)}")
        print(f"w_asc={_fmt_weights(enum.w_asc)}")
        print(f"kept={_fmt_weights(enum.kept)}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    grid = parse_grid(args.grid)
    E = parse_weight_set(args.set, grid)
    pairs = _hilbert.hilbert_profile(args.degree, E)
    value = _hilbert.profile_value(grid, args.degree, E)
    if args.json:
        print(
            json.dumps(
                {
                    "grid": grid.spec(),
                    "degree": args.degree,
                    "set": list(E),
                    "profile": [[u, v] for u, v in pairs],
                    "value": str(value),
                }
            )
        )
    else:
        for u, v in pairs:
            print(f"{u},{v}")
        print(f"value={value}")
    return 0


def _cmd_closure(args: argparse.Namespace) -> int:
    grid = parse_grid(args.grid)
    E = parse_weight_set(args.set, grid)
    report = _closure.closure_report(grid, args.degree, E)
    agree = report.lbar == report.zstar
    if args.json:
        print(
            json.dumps(
                {
                    "grid": grid.spec(),
                    "degree": args.degree,
                    "input": list(report.input),
                    "lbar": list(report.lbar),
                    "zstar": list(report.zstar),
                    "iterations": report.iterations,
                    "agree": agree,
                }
            )
        )
    else:
        print(f"input={_fmt_weights(report.input)}")
        print(f"lbar={_fmt_weights(report.lbar)}")
        print(f"zstar={_fmt_weights(report.zstar)}")
        print(f"iterations={report.iterations}")
        print(f"agree={'yes' if agree else 'no'}")
    return 0


def _downset_command(args: argparse.Namespace, kind: str) -> int:
    grid = parse_grid(args.grid)
    if (args.set is None) == (args.points is None):
        raise ParseError("provide exactly one of --set and --points")
    if args.set is not None:
        points = grid.unfold(parse_weight_set(args.set, grid))
    else:
        points = _parse_points(args.points)
    if kind == "sm":
        result = _shattering.standard_monomials(grid, points)
    else:
        result = _shattering.ord_str(grid, points)
    ordered = sorted(result)
    if args.json:
        print(
            json.dumps(
                {
                    "grid": grid.spec(),
                    "points": [list(p) for p in sorted(set(points))],
                    "downset": [list(b) for b in ordered],
                    "size": len(ordered),
                }
            )
        )
    else:
        for b in ordered:
            print(_fmt_weights(b))
    return 0


def _cmd_sm(args: argparse.Namespace) -> int:
    return _downset_command(args, "sm")


def _cmd_ordstr(args: argparse.Namespace) -> int:
    return _downset_command(args, "ordstr")


def _cmd_verify(args: argparse.Namespace) -> int:
    limits = _verify.Limits(max_points=args.max_points, seed=args.seed)
    if args.suite == "all":
        names = list(_verify.SUITES)
    else:
        names = [args.suite]
    results = []
    for name in names:
        result = _verify.verify_suite(name, limits)
        results.append(result)
        if not args.json:
            if result.passed:
                print(f"suite {result.name}: ok ({result.checked} checks)")
            else:
                print(
                    f"suite {result.name}: FAIL ({result.checked} checks)"
                )
                print(json.dumps(result.counterexample))
            sys.stdout.flush()
    if args.json:
        print(
            json.dumps(
                {
                    "suites": [
                        {
                            "name": r.name,
                            "passed": r.passed,
                            "checked": r.checked,
                            "counterexample": r.counterexample,
                        }
                        for r in results
                    ]
                }
            )
        )
    failed = [r for r in results if not r.passed]
    if failed and not args.json:
        print(f"{len(failed)} of {len(results)} suites failed")
    return 2 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gridhilbert",
        description=(
            "Exact Hilbert functions, closures, and standard monomials "
            "of weight-determined sets in uniform grids."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit JSON")
        return p

    p = command("hilbert", _cmd_hilbert, "Hilbert function, both routes")
    p.add_argument("--grid", required=True, help="arities, e.g. 3,3")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--set", required=True, help="weights, e.g. 0,2-4,7")
    p.add_argument(
        "--dump-matrix",
        action="store_true",
        help="also emit the evaluation matrix, one row per line",
    )

    p = command("layer-sizes", _cmd_layer_sizes, "layer sizes of a grid")
    p.add_argument("--grid", required=True, help="arities, e.g. 3,3")

    p = command("be-enum", _cmd_be_enum, "pairing enumeration of a set")
    p.add_argument("--grid", required=True, help="arities, e.g. 3,3")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--set", required=True, help="weights, e.g. 0,2-4,7")

    p = command("profile", _cmd_profile, "degree profile of a large set")
    p.add_argument("--grid", required=True, help="arities, e.g. 3,3")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--set", required=True, help="weights, e.g. 0,2-4,7")

    p = command("closure", _cmd_closure, "both closure routes for a set")
    p.add_argument("--grid", required=True, help="arities, e.g. 3,3")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--set", required=True, help="weights, e.g. 0,2-4,7")

    for name, func, help_ in (
        ("sm", _cmd_sm, "standard monomials of a point set"),
        ("ordstr", _cmd_ordstr, "order-shattered multisets of a point set"),
    ):
        p = command(name, func, help_)
        p.add_argument("--grid", required=True, help="arities, e.g. 3,3")
        p.add_argument("--set", help="weights; the set is the union of layers")
        p.add_argument(
            "--points",
            help="explicit points, e.g. '0,0;1,2' (semicolon-separated)",
        )

    p = command("verify", _cmd_verify, "run a verification suite")
    p.add_argument(
        "suite",
        nargs="?",
        default="all",
        help=f"one of: {', '.join(_verify.SUITES)}, all (default)",
    )
    p.add_argument("--max-points", type=int, default=36)
    p.add_argument("--seed", type=int, default=_verify.Limits().seed)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GridError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
