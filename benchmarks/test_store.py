"""Persistent structure store — cold build versus disk warm-start.

The acceptance bar of the zero-rebuild pipeline: evaluating a multi-model
group on a *cold* process (full ordering + coded-ROBDD + ROMDD build) must
be at least 3x slower than the same evaluation warm-started from the
persistent store (linearized arrays loaded from disk, no diagram build at
all), with bit-for-bit identical results.  The measured timings are written
to ``benchmarks/results/BENCH_store.json`` so CI archives a perf record per
run, next to ``BENCH_sweep.json`` and ``BENCH_importance.json``.
"""

from __future__ import annotations

import json
import os
import time

from repro.engine.service import SweepService
from repro.engine.store import StructureStore
from repro.ordering import OrderingSpec
from repro.soc import benchmark_problem

from .conftest import (
    PAPER_EPSILON,
    RESULTS_DIR,
    print_table,
    registry_stats,
    span_breakdown,
)

#: Single-structure multi-model group: the batched-engine benchmark circuit.
BENCHMARK = "ESEN4x2"
MAX_DEFECTS = 5
DENSITIES = [0.25 + 0.05 * i for i in range(32)]


def _factory(mean):
    return benchmark_problem(BENCHMARK, mean_defects=mean)


def test_store_warm_start_beats_cold_build(benchmark, tmp_path):
    """Acceptance bar: warm-start group evaluation >= 3x the cold build."""
    store_dir = str(tmp_path / "store")
    ordering = OrderingSpec("w", "ml")

    # ---- cold route: empty store, the service pays the full pipeline ---- #
    cold_service = SweepService(
        ordering=ordering, epsilon=PAPER_EPSILON, store_dir=store_dir
    )
    started = time.perf_counter()
    cold_rows = cold_service.density_sweep(
        _factory, DENSITIES, max_defects=MAX_DEFECTS
    )
    cold_seconds = time.perf_counter() - started
    assert cold_service.registry.counter("service.structures.built") == 1
    assert cold_service.registry.counter("store.misses") == 1

    # ---- warm route: a fresh "process" resolves the structure on disk --- #
    def run_warm():
        service = SweepService(
            ordering=ordering, epsilon=PAPER_EPSILON, store_dir=store_dir
        )
        rows = service.density_sweep(_factory, DENSITIES, max_defects=MAX_DEFECTS)
        return service, rows

    started = time.perf_counter()
    warm_service, warm_rows = benchmark.pedantic(run_warm, rounds=1, iterations=1)
    warm_seconds = time.perf_counter() - started

    assert warm_service.registry.counter("service.structures.built") == 0
    assert warm_service.registry.counter("store.hits") == 1
    assert warm_rows == cold_rows  # bit-for-bit, not approx

    speedup = cold_seconds / max(warm_seconds, 1e-9)
    store = StructureStore(store_dir)
    entry_bytes = store.total_bytes()
    print_table(
        "Store warm-start vs cold build — %s, %d models, M=%d"
        % (BENCHMARK, len(DENSITIES), MAX_DEFECTS),
        ("route", "time (s)", "speedup"),
        [
            ("cold build (ordering+ROBDD+ROMDD)", round(cold_seconds, 4), "1.0x"),
            ("store warm-start", round(warm_seconds, 4), "%.1fx" % speedup),
        ],
    )

    # span breakdown of one traced warm start (untimed re-run): the store
    # load and the batched evaluation show up as separate phases
    _, warm_spans = span_breakdown(run_warm)

    record = {
        "benchmark": BENCHMARK,
        "points": len(DENSITIES),
        "max_defects": MAX_DEFECTS,
        "spans": warm_spans,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": speedup,
        "store_entry_bytes": entry_bytes,
        "cold_stats": registry_stats(cold_service),
        "warm_stats": registry_stats(warm_service),
    }
    try:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(os.path.join(RESULTS_DIR, "BENCH_store.json"), "w") as out:
            json.dump(record, out, indent=2, sort_keys=True)
    except OSError:  # pragma: no cover - reporting must never fail a benchmark
        pass

    # the acceptance bar of the zero-rebuild pipeline
    assert speedup >= 3.0
