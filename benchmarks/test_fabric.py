"""Remote shard fabric — distributed evaluation versus the serial route.

Two in-process shard workers (the same :func:`worker_in_thread` embedding
the test suite uses) share one structure store with the parent; a dense
single-structure sweep is dispatched across them, then repeated under a
four-site network chaos plan.  The acceptance bar is correctness, not
speed: HTTP loopback round trips cannot beat an in-process evaluation of
this size, so the benchmark asserts **bit-for-bit identical rows** on
both the clean and the chaos run, that every shard really travelled the
fabric, and that all four ``net.*`` faults fired and were absorbed.  The
measured timings and the full fabric/steal/heartbeat counter sets are
written to ``benchmarks/results/BENCH_fabric.json`` so CI archives the
record next to the other ``BENCH_*.json`` files.
"""

from __future__ import annotations

import json
import os
import time

from repro.engine import faults
from repro.engine.faults import FaultPlan
from repro.engine.service import SweepService
from repro.ordering import OrderingSpec
from repro.soc import benchmark_problem

from .conftest import PAPER_EPSILON, RESULTS_DIR, print_table

BENCHMARK = "ESEN4x1"
MAX_DEFECTS = 4
DENSITIES = [0.25 + 0.05 * i for i in range(32)]

CHAOS_PLAN = {
    "net.refuse": {"at": [1]},
    "net.drop": {"at": [2]},
    "net.delay": {"at": [1], "delay": 0.2},
    "net.garbage": {"at": [1]},
}


def _factory(mean):
    return benchmark_problem(BENCHMARK, mean_defects=mean)


def _fabric_sweep(store_dir, worker_urls, fault_plan=None):
    faults.clear()
    service = SweepService(
        ordering=OrderingSpec("w", "ml"),
        epsilon=PAPER_EPSILON,
        store_dir=store_dir,
        shard_size=4,
        remote_workers=worker_urls,
        heartbeat_interval=0.5,
        fault_plan=fault_plan,
    )
    try:
        started = time.perf_counter()
        rows = service.density_sweep(_factory, DENSITIES, max_defects=MAX_DEFECTS)
        elapsed = time.perf_counter() - started
        counters = service.registry.snapshot()["counters"]
    finally:
        service.close()
        faults.clear()
    return rows, elapsed, counters


def test_fabric_matches_serial_with_and_without_chaos(benchmark, tmp_path):
    """Acceptance bar: remote rows == serial rows, clean and under chaos."""
    from repro.engine.fabric import worker_in_thread

    store_dir = str(tmp_path / "store")

    # ---- serial reference (also warms the store for the workers) -------- #
    serial_service = SweepService(
        ordering=OrderingSpec("w", "ml"), epsilon=PAPER_EPSILON, store_dir=store_dir
    )
    started = time.perf_counter()
    serial_rows = serial_service.density_sweep(
        _factory, DENSITIES, max_defects=MAX_DEFECTS
    )
    serial_seconds = time.perf_counter() - started
    serial_service.close()

    workers = [worker_in_thread(store_dir), worker_in_thread(store_dir)]
    urls = [handle.url for handle in workers]
    try:
        # ---- clean fabric run ------------------------------------------- #
        def run_clean():
            return _fabric_sweep(store_dir, urls)

        fabric_rows, fabric_seconds, fabric_counters = benchmark.pedantic(
            run_clean, rounds=1, iterations=1
        )
        assert fabric_rows == serial_rows  # bit-for-bit, not approx
        assert fabric_counters.get("fabric.shards_completed", 0) > 0
        assert fabric_counters.get("fabric.shards_failed", 0) == 0
        assert fabric_counters.get("fabric.worker_structure_loads", 0) >= 1

        # ---- the same sweep under the four-site network chaos plan ------ #
        chaos_rows, chaos_seconds, chaos_counters = _fabric_sweep(
            store_dir, urls, fault_plan=FaultPlan.from_spec(CHAOS_PLAN)
        )
        assert chaos_rows == serial_rows
        for site in CHAOS_PLAN:
            assert chaos_counters.get("fault.injected.%s" % site, 0) == 1, site
        assert chaos_counters.get("retry.attempts", 0) >= 1
    finally:
        for handle in workers:
            handle.stop()

    print_table(
        "Remote fabric vs serial — %s, %d models, M=%d, 2 workers"
        % (BENCHMARK, len(DENSITIES), MAX_DEFECTS),
        ("route", "time (s)", "shards", "retries"),
        [
            ("serial (in-process)", round(serial_seconds, 4), 0, 0),
            (
                "fabric (clean)",
                round(fabric_seconds, 4),
                int(fabric_counters.get("fabric.shards_completed", 0)),
                int(fabric_counters.get("retry.attempts", 0)),
            ),
            (
                "fabric (net chaos)",
                round(chaos_seconds, 4),
                int(chaos_counters.get("fabric.shards_completed", 0)),
                int(chaos_counters.get("retry.attempts", 0)),
            ),
        ],
    )

    def fabric_namespaces(counters):
        return {
            name: value
            for name, value in sorted(counters.items())
            if name.split(".")[0]
            in ("fabric", "steal", "heartbeat", "retry", "fault")
        }

    record = {
        "benchmark": BENCHMARK,
        "points": len(DENSITIES),
        "max_defects": MAX_DEFECTS,
        "workers": len(urls),
        "serial_seconds": serial_seconds,
        "fabric_seconds": fabric_seconds,
        "chaos_seconds": chaos_seconds,
        "rows_match_clean": fabric_rows == serial_rows,
        "rows_match_chaos": chaos_rows == serial_rows,
        "clean_counters": fabric_namespaces(fabric_counters),
        "chaos_counters": fabric_namespaces(chaos_counters),
    }
    try:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(os.path.join(RESULTS_DIR, "BENCH_fabric.json"), "w") as out:
            json.dump(record, out, indent=2, sort_keys=True)
    except OSError:  # pragma: no cover - reporting must never fail a benchmark
        pass
