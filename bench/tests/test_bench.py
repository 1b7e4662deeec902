"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import collections
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import clock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}


def test_query_generator_is_deterministic():
    assert workloads.make_queries(7) == workloads.make_queries(7)
    assert workloads.make_queries(7) != workloads.make_queries(8)


def test_every_seed_asks_for_the_same_work():
    def shape(seed):
        return collections.Counter(
            (q["kind"], tuple(sorted(q["grid"].split(","))), q.get("size"))
            for q in workloads.make_queries(seed)
        )

    assert shape(1) == shape(2) == shape(workloads.DEFAULT_SEED)


def test_checks_reject_route_disagreements():
    hilbert = {"kind": "hilbert", "grid": "3,3"}
    closure = {"kind": "closure", "grid": "3,3"}
    sm = {"kind": "sm", "grid": "3,3", "size": 2}
    ordstr = {"kind": "ordstr", "grid": "3,3", "size": 2}
    agree = "input=1\nlbar=0,1\nzstar=0,1\niterations=1\nagree=yes\n"
    differ = agree.replace("agree=yes", "agree=no")
    cases = [
        ([hilbert], [(0, "closed=2, oracle=2\n")], [True]),
        ([hilbert], [(0, "closed=2, oracle=3\n")], [False]),
        ([hilbert], [(1, "closed=2, oracle=2\n")], [False]),
        ([closure], [(0, agree)], [True]),
        ([closure], [(0, differ)], [False]),
        ([sm, ordstr], [(0, "0,0\n0,1\n"), (0, "0,0\n0,1\n")], [True, True]),
        ([sm, ordstr], [(0, "0,0\n0,1\n"), (0, "0,0\n1,0\n")], [False, False]),
        ([sm, ordstr], [(0, "0,0\n"), (0, "0,0\n")], [False, False]),
    ]
    for queries, results, want in cases:
        assert workloads.check_queries(queries, results, {"3,3"}) == want
    assert workloads.check_queries([closure], [(0, differ)], set()) == [True]


def test_speed_clock_reads_reference_loops_at_face_value():
    speed = clock.SpeedClock()
    speed.start()
    loops, t = 0, perf_counter()
    while perf_counter() - t < 0.5:
        clock.reference_loop()
        loops += 1
    reading = speed.stop()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.samples) >= 5
    assert speed.now() == reading
    assert 1 / 1.5 < reading / (loops * clock.REFERENCE_S) < 1.5


def test_sweeps_cover_every_suite_in_suites_order():
    sys.path.insert(0, str(ROOT / "src"))
    from gridhilbert.verify import SUITES

    rank = list(workloads.SWEEPS["sweep_rank"]["expected"])
    shatter = list(workloads.SWEEPS["sweep_shatter"]["expected"])
    assert shatter == ["shattering", "layers"]
    assert rank == [s for s in SUITES if s not in shatter]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_passes_agree(workload):
    seed = workloads.DEFAULT_SEED
    plain, traced = run.run_worker(workload, seed, False), run.run_worker(workload, seed, True)
    assert plain["failed"] == traced["failed"] == 0
    if workload == "queries":
        assert plain["digest"] == traced["digest"] == workloads.DEFAULT_SEED_DIGEST
    else:
        checked = {s: r["checked"] for s, r in plain["suites"].items()}
        assert checked == {s: r["checked"] for s, r in traced["suites"].items()}
        expected = workloads.SWEEPS[workload]["expected"]
        assert checked == {s: c for s, (_, c) in expected.items()}
    assert any(v for k, v in traced["layers"].items() if k.endswith(".calls"))


def test_non_default_seed_passes_every_check():
    result = run.run_worker("queries", 20261017, False)
    assert result["failed"] == 0
    assert result["attempted"] == len(workloads.make_queries(20261017))


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    one_pass = {"setup_s": 0.1, "wall_s": 1.0, "ops": 10, "latencies_s": [0.1, 0.2],
                "rss_mb": 20.0, "layers": tracing.Tracer().layer_metrics(),
                "slowdown": 1.0, "raw_wall_s": 1.0}
    assert set(run.end_to_end([one_pass])) == {m["name"] for m in spec["end_to_end"]}
    layers = run.per_layer([one_pass], [one_pass])
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, env=ENV, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
