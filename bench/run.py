"""Benchmark of gridhilbert: verification sweeps and one-shot CLI queries.

Usage (from the repository root):

    python3 bench/run.py --workload sweep_rank --seed 1729 --seconds 30 --trace 0

One closed-loop caller runs timed passes of the workload one after the
other, each in a fresh interpreter (bench/worker.py), until --seconds
have passed, then prints a summary on stderr and, as the last line of
stdout, one JSON object with the end-to-end metrics (--trace 0) or the
per-layer metrics (--trace 1) named in BENCHMARK.json.  Times are read
from clock.SpeedClock, which discounts drift in the machine's speed.  A
traced run alternates untraced and traced passes, so it also reports the
tracing overhead.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER_TIMEOUT_S = 150


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, traced: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(int(traced))],
        cwd=ROOT,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0"},
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list, list]:
    """Untraced and traced passes, started while the next one fits in time."""
    plain, traced = [], []
    start = perf_counter()
    last = 0.0
    while not plain or perf_counter() - start + last <= seconds:
        t = perf_counter()
        plain.append(run_worker(workload, seed, False))
        if trace:
            traced.append(run_worker(workload, seed, True))
        last = perf_counter() - t
    return plain, traced


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(passes: list[dict]) -> dict[str, float]:
    latencies_ms = [s * 1000 for p in passes for s in p["latencies_s"]]
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "ops_per_s": statistics.median(p["ops"] / p["wall_s"] for p in passes),
        "query_p50_ms": statistics.median(latencies_ms),
        "query_p90_ms": p90(latencies_ms),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    suites = [s for sweep in workloads.SWEEPS.values() for s in sweep["expected"]]
    rows = []
    for p in traced:
        row = dict(p["layers"])
        for suite in suites:
            done = p.get("suites", {}).get(suite, {"s": 0.0, "checked": 0})
            row[f"verify.{suite}.s"] = done["s"]
            row[f"verify.{suite}.checked"] = done["checked"]
        row["cli.stdout_bytes"] = p.get("stdout_bytes", 0)
        rows.append(row)
    out = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    # Each traced pass runs right after an untraced one; comparing within
    # these pairs keeps slow drift in machine speed out of the overhead.
    pairs = list(zip(plain, traced))
    out["trace.overhead_s"] = statistics.median(t["wall_s"] - p["wall_s"] for p, t in pairs)
    out["trace.overhead_frac"] = statistics.median(
        t["wall_s"] / p["wall_s"] - 1 for p, t in pairs
    )
    # How the speed clock saw the machine during the untraced passes.
    out["clock.slowdown"] = statistics.median(p["slowdown"] for p in plain)
    out["clock.raw_wall_s"] = statistics.median(p["raw_wall_s"] for p in plain)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gridhilbert" / "__init__.py").is_file():
        print(f"no gridhilbert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        plain, traced = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        values, declared = per_layer(plain, traced), spec["per_layer"]
    else:
        values, declared = end_to_end(plain), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    latencies_ms = [s * 1000 for p in plain for s in p["latencies_s"]]
    cut = p90(latencies_ms)
    above = sum(v > cut for v in latencies_ms)
    print(
        f"{args.workload} seed={args.seed}: {len(plain)} untraced and {len(traced)} traced"
        f" passes, {len(latencies_ms)} latency samples ({above} above p90)",
        file=sys.stderr,
    )
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"  failed_frac = {failed / attempted:.6g} ({failed} of {attempted})", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
