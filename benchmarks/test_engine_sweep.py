"""Engine ablation — structure reuse versus serial rebuild on density sweeps.

The sweep service builds the coded ROBDD / ROMDD once per (structure, M,
ordering) and re-runs only the probability traversal per density point,
while the pre-engine route rebuilt the diagrams for every point.  This
benchmark times both on the same multi-point sweep and asserts that reuse
actually wins, which is the acceptance bar for the engine subsystem.

The second check is the acceptance bar of the batched probability engine: a
*single-group* multi-model sweep (one structure, many defect models) on a
``workers=2`` service must run at least 3x faster through the batched
linearized pass than the per-point recursive-traversal route the service
used before, with bit-for-bit identical results.  The measured timings are
also written to ``benchmarks/results/BENCH_sweep.json`` so CI can archive a
perf record per run.

The fan-out leg times cold multi-structure batches on fresh services,
serial against ``workers=2`` build threads, and records ``fanout_speedup``.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.core.gfunction import GeneralizedFaultTree
from repro.core.method import YieldAnalyzer
from repro.engine import native
from repro.engine.service import SweepService
from repro.mdd.probability import probability_of_one_reference
from repro.ordering import OrderingSpec
from repro.soc import benchmark_problem

from .conftest import (
    PAPER_EPSILON,
    RESULTS_DIR,
    print_table,
    registry_stats,
    span_breakdown,
)

#: Mean manufacturing defect counts of the sweep (lambda' = mean * 0.5).
DENSITIES = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]

#: Truncation level shared by every point (the paper's M at epsilon=1e-3).
MAX_DEFECTS = 6


def _factory(name):
    return lambda mean: benchmark_problem(name, mean_defects=mean)


@pytest.mark.parametrize("name", ["MS2", "ESEN4x1"])
def test_engine_reuse_beats_serial_rebuild(benchmark, name):
    factory = _factory(name)
    ordering = OrderingSpec("w", "ml")

    started = time.perf_counter()
    analyzer = YieldAnalyzer(ordering, epsilon=PAPER_EPSILON)
    serial = [
        analyzer.evaluate(factory(mean), max_defects=MAX_DEFECTS)
        for mean in DENSITIES
    ]
    serial_seconds = time.perf_counter() - started

    service = SweepService(ordering=ordering, epsilon=PAPER_EPSILON)

    def run_sweep():
        service.clear()
        return service.density_sweep(factory, DENSITIES, max_defects=MAX_DEFECTS)

    started = time.perf_counter()
    engine = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    engine_seconds = time.perf_counter() - started

    for result, (mean, engine_yield, truncation) in zip(serial, engine):
        assert engine_yield == pytest.approx(result.yield_estimate, abs=1e-12)
        assert truncation == MAX_DEFECTS

    print_table(
        "Engine sweep vs serial rebuild — %s, %d points" % (name, len(DENSITIES)),
        ("route", "builds", "time (s)", "speedup"),
        [
            ("serial rebuild", len(DENSITIES), round(serial_seconds, 3), "1.0x"),
            (
                "engine reuse",
                service.registry.counter("service.structures.built"),
                round(engine_seconds, 3),
                "%.1fx" % (serial_seconds / max(engine_seconds, 1e-9)),
            ),
        ],
    )

    assert service.registry.counter("service.structures.built") == 1
    # the acceptance bar: one build plus N traversals must beat N builds
    assert engine_seconds < serial_seconds


#: Dense single-structure sweep: one group, many defect models.  ESEN4x2 at
#: M = 5 makes the per-point traversal expensive enough (ROMDD ~7.7k nodes)
#: that batching matters.
MULTI_MODEL_BENCHMARK = "ESEN4x2"
MULTI_MODEL_MAX_DEFECTS = 5
MULTI_MODEL_DENSITIES = [0.25 + 0.05 * i for i in range(96)]


def test_batched_engine_beats_per_point_traversal(benchmark):
    """Acceptance bar: the batched pass >= 3x the per-point route."""
    name = MULTI_MODEL_BENCHMARK
    truncation = MULTI_MODEL_MAX_DEFECTS
    factory = _factory(name)
    ordering = OrderingSpec("w", "ml")

    # both routes price pure evaluation, built before the clock starts: the
    # service compiles and holds the structure, the per-point baseline
    # walks the pipeline step's ROMDD of the same structure (a compiled
    # structure keeps only its linearized arrays) — exactly the
    # repeat-sweep regime the engine serves (the service runs its held
    # structure's pass in-process)
    from repro.engine.service import result_key

    service = SweepService(ordering=ordering, epsilon=PAPER_EPSILON, workers=2)
    probe = factory(MULTI_MODEL_DENSITIES[0])
    service.evaluate(probe, max_defects=truncation)
    gfunction = GeneralizedFaultTree(probe.fault_tree, probe.component_names, truncation)
    built = YieldAnalyzer(ordering).build(gfunction)

    # ---- PR 1 per-point path: one recursive traversal per defect model, --- #
    # with the per-point work the service used to do around it (problem
    # construction, result key, error bound, distribution preparation)
    started = time.perf_counter()
    per_point = []
    for mean in MULTI_MODEL_DENSITIES:
        problem = factory(mean)
        result_key(problem, truncation, ordering)
        lethal = problem.lethal_defect_distribution()
        lethal.tail(truncation)
        distributions = gfunction.variable_distributions(
            lethal, problem.lethal_component_probabilities()
        )
        per_point.append(
            1.0
            - probability_of_one_reference(built.mdd_manager, built.mdd_root, distributions)
        )
    per_point_seconds = time.perf_counter() - started

    # ---- batched engine --------------------------------------------------- #
    def run_sweep():
        return service.density_sweep(
            factory, MULTI_MODEL_DENSITIES, max_defects=truncation
        )

    started = time.perf_counter()
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    batched_seconds = time.perf_counter() - started

    for (mean, batched_yield, row_truncation), expected in zip(rows, per_point):
        assert batched_yield == expected  # bit-for-bit, not approx
        assert row_truncation == truncation

    speedup = per_point_seconds / max(batched_seconds, 1e-9)
    print_table(
        "Batched engine vs per-point traversal — %s, %d models"
        % (name, len(MULTI_MODEL_DENSITIES)),
        ("route", "time (s)", "speedup"),
        [
            ("per-point recursive traversal", round(per_point_seconds, 4), "1.0x"),
            ("batched pass", round(batched_seconds, 4), "%.1fx" % speedup),
        ],
    )

    # span breakdown of one traced re-run; the timed run above stayed
    # untraced
    _, sweep_spans = span_breakdown(run_sweep)

    record = {
        "benchmark": name,
        "points": len(MULTI_MODEL_DENSITIES),
        "max_defects": truncation,
        "romdd_nodes": built.romdd_size,
        "spans": sweep_spans,
        "per_point_seconds": per_point_seconds,
        "batched_seconds": batched_seconds,
        "speedup": speedup,
        "service_stats": registry_stats(service),
    }
    try:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(os.path.join(RESULTS_DIR, "BENCH_sweep.json"), "w") as out:
            json.dump(record, out, indent=2, sort_keys=True)
    except OSError:  # pragma: no cover - reporting must never fail a benchmark
        pass

    # structure built once (during the warm-up), never again for the sweep
    assert service.registry.counter("service.structures.built") == 1
    # the acceptance bar of the batched probability engine
    assert speedup >= 3.0


def _merge_into_sweep_record(**entries):
    """Add ``entries`` to ``BENCH_sweep.json``, keeping what is there."""
    try:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, "BENCH_sweep.json")
        merged = {}
        try:
            with open(path) as existing:
                merged = json.load(existing)
        except (OSError, ValueError):
            pass
        merged.update(entries)
        with open(path, "w") as out:
            json.dump(merged, out, indent=2, sort_keys=True)
    except OSError:  # pragma: no cover - reporting must never fail a benchmark
        pass


#: Points and timed rounds of the large-sweep trend leg.
LARGE_SWEEP_POINTS = 4800
LARGE_SWEEP_ROUNDS = 5


def test_large_sweep_on_a_primed_serial_service():
    """Trend leg: a 4800-point ESEN4x2 M=5 sweep on a primed serial service.

    The structure is built before timing, and every round sweeps fresh
    densities, so a round times what a warm request pays per point:
    problem construction, grouping, the lethal counts, the one kernel pass
    and the rows.  Rows are checked bit for bit against
    :meth:`CompiledYield.evaluate_many`.  The median round is written to
    ``BENCH_sweep.json`` as ``large_sweep_seconds``; it has no floor yet.
    """
    import random
    import statistics

    factory = _factory(MULTI_MODEL_BENCHMARK)
    truncation = MULTI_MODEL_MAX_DEFECTS
    service = SweepService(ordering=OrderingSpec("w", "ml"), epsilon=PAPER_EPSILON)
    service.density_sweep(factory, [1.0], max_defects=truncation)
    (compiled,) = service._structures.values()
    draw = random.Random(23)
    seconds = []
    for _ in range(LARGE_SWEEP_ROUNDS):
        densities = [draw.uniform(0.25, 5.0) for _ in range(LARGE_SWEEP_POINTS)]
        started = time.perf_counter()
        rows = service.density_sweep(factory, densities, max_defects=truncation)
        seconds.append(time.perf_counter() - started)
        expected = compiled.evaluate_many([factory(mean) for mean in densities])
        assert rows == [
            (mean, result.yield_estimate, result.truncation)
            for mean, result in zip(densities, expected)
        ]
    assert service.registry.counter("service.structures.built") == 1
    median = statistics.median(seconds)
    print_table(
        "Large sweep on a primed serial service — %s M=%d, %d points"
        % (MULTI_MODEL_BENCHMARK, truncation, LARGE_SWEEP_POINTS),
        ("rounds", "median (s)", "best (s)"),
        [(LARGE_SWEEP_ROUNDS, round(median, 4), round(min(seconds), 4))],
    )
    _merge_into_sweep_record(
        large_sweep_seconds=median,
        large_sweep={
            "points": LARGE_SWEEP_POINTS,
            "max_defects": truncation,
            "best_seconds": min(seconds),
            "round_seconds": seconds,
        },
    )


#: The cold batches of the fan-out leg: (benchmark, M) per structure group,
#: 96 points each.
FANOUT_LEGS = {
    "2 structures": [("ESEN4x2", 5), ("MS4", 5)],
    "4 structures": [("ESEN4x2", 5), ("MS4", 5), ("ESEN4x2", 4), ("MS4", 4)],
    "6 structures": [("MS2", m) for m in (4, 6, 7, 8, 9, 10)],
}
FANOUT_DENSITIES = [0.25 + 0.05 * i for i in range(96)]
FANOUT_ROUNDS = 7


def test_fan_out_against_serial_on_cold_batches():
    """Build threads against serial on cold multi-structure batches.

    Every round sweeps each leg's batch on a fresh serial service and a
    fresh ``SweepService(workers=2)``, alternating which goes first, after
    one warm-up round; the rows must agree bit for bit and every
    ``workers=2`` batch must fan out.  ``fanout_speedup`` is the smallest
    best-serial / best-``workers=2`` time ratio over the legs.
    """
    import gc
    import statistics

    legs = {}
    for leg, structures in FANOUT_LEGS.items():
        problems, truncations = [], []
        for name, truncation in structures:
            problems += [benchmark_problem(name, mean_defects=m) for m in FANOUT_DENSITIES]
            truncations += [truncation] * len(FANOUT_DENSITIES)
        seconds = {0: [], 2: []}
        reference = None
        for round_index in range(FANOUT_ROUNDS + 1):
            for workers in (0, 2) if round_index % 2 == 0 else (2, 0):
                service = SweepService(workers=workers)
                gc.collect()
                started = time.perf_counter()
                failed = service.sweep(problems, truncations).failed
                elapsed = time.perf_counter() - started
                reference = failed if reference is None else reference
                assert failed == reference  # bit for bit
                assert service.registry.counter("service.batches.parallel") == (
                    1 if workers else 0
                )
                if round_index:  # the first round is a warm-up
                    seconds[workers].append(elapsed)
        legs[leg] = {
            "structures": len(structures),
            "serial_seconds": seconds[0],
            "workers2_seconds": seconds[2],
            "serial_median": statistics.median(seconds[0]),
            "workers2_median": statistics.median(seconds[2]),
            "ratio": min(seconds[0]) / min(seconds[2]),
        }
    # without the native library the gate loop holds the GIL and the
    # threads build one structure at a time: no speed claim, no ratio
    fanout_speedup = (
        min(entry["ratio"] for entry in legs.values()) if native.available() else None
    )
    print_table(
        "Build threads vs serial, cold batches of %d points per structure, "
        "%d rounds" % (len(FANOUT_DENSITIES), FANOUT_ROUNDS),
        ("batch", "serial median (ms)", "workers=2 median (ms)", "best serial / best workers=2"),
        [
            (
                leg,
                round(1e3 * entry["serial_median"], 1),
                round(1e3 * entry["workers2_median"], 1),
                "%.2f" % entry["ratio"],
            )
            for leg, entry in legs.items()
        ],
    )
    _merge_into_sweep_record(fanout_speedup=fanout_speedup, fanout_legs=legs)

