"""One pass of one workload in a fresh interpreter; prints one JSON line.

Usage: python3 bench/worker.py <workload> <seed> <trace 0|1>

The package is imported from the ``src`` directory next to ``bench``,
never from an installed copy.  Its lru_caches live for the whole
process, so each pass gets its own interpreter and starts cold.  Every
time reported is read from a ``clock.SpeedClock``, which discounts the
drift in the machine's speed; ``raw_wall_s`` is the pass after the
import, including its set-up and checks, timed with ``perf_counter``.
"""

import contextlib
import importlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import clock
import tracing
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def import_package():
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("gridhilbert")
    importlib.import_module("gridhilbert.cli")
    if Path(package.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"gridhilbert imported from {package.__file__}, not {SRC}")
    return package


def run_sweep(package, name: str, seed: int, now) -> dict:
    spec = workloads.SWEEPS[name]
    verify = package.verify
    limits = verify.Limits(seed=seed, **spec["limits"])
    # Family construction counts as set-up; verify_suite rebuilds it per call.
    verify.verification_family(limits.max_points, limits.max_cube)
    setup_s = now()
    suites = []
    t0 = now()
    for suite in spec["expected"]:
        t = now()
        result = verify.verify_suite(suite, limits)
        suites.append((suite, result.passed, result.checked, now() - t))
    wall_s = now() - t0
    failed = sum(
        (passed, checked) != spec["expected"][suite]
        for suite, passed, checked, _ in suites
    )
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ops": sum(checked for _, _, checked, _ in suites),
        "latencies_s": [wall_s],
        "attempted": len(suites),
        "failed": failed,
        "suites": {suite: {"checked": checked, "s": s} for suite, _, checked, s in suites},
    }


def run_queries(package, seed: int, now) -> dict:
    queries = workloads.make_queries(seed)
    setup_s = now()
    cli = package.cli
    results, latencies = [], []
    t0 = now()
    for query in queries:
        buf = io.StringIO()
        t = now()
        with contextlib.redirect_stdout(buf):
            code = cli.main(query["argv"])
        latencies.append(now() - t)
        results.append((code, buf.getvalue()))
    wall_s = now() - t0
    su2 = {q["grid"] for q in queries if package.parse_grid(q["grid"]).is_su2()}
    ok = workloads.check_queries(queries, results, su2)
    outputs = [out for _, out in results]
    digest = workloads.stdout_digest(outputs)
    attempted, failed = len(queries), ok.count(False)
    if seed == workloads.DEFAULT_SEED:
        attempted += 1
        failed += digest != workloads.DEFAULT_SEED_DIGEST
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ops": len(queries),
        "latencies_s": latencies,
        "attempted": attempted,
        "failed": failed,
        "digest": digest,
        "stdout_bytes": sum(len(out.encode()) for out in outputs),
    }


def main(argv: list[str]) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    speed = clock.SpeedClock()
    speed.start()
    package = import_package()
    tracer = tracing.Tracer(speed.now)
    if trace:
        tracing.install(tracer, package)
    t0 = perf_counter()
    if workload == "queries":
        result = run_queries(package, seed, speed.now)
    else:
        result = run_sweep(package, workload, seed, speed.now)
    result["raw_wall_s"] = perf_counter() - t0
    speed.stop()
    result["slowdown"] = speed.slowdown()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        result["layers"] = tracer.layer_metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
