"""Cold compile legs: the native library against the Python/numpy routes.

The acceptance bar of the native build route: building the coded ROBDD of
ESEN4x2 at ``M = 5`` (the paper's best ordering pair) through the native
builder — one C call plus the bulk load into a :class:`BDDManager` — must
be at least **3x** as fast as the Python gate loop, with the same diagram.
The same bar holds for the back half of the compile: ROMDD conversion plus
linearization through the native library against the numpy functions.
Each pair of routes runs interleaved, best of five each, so machine-speed
drift hits both alike.  ``build_speedup`` (gate loop over native) and
``romdd_speedup`` (numpy over native) land in
``benchmarks/results/BENCH_build.json``; each is ``null`` on hosts where
the library cannot be built, which the CI gate reports as a warning.

A third, trend-only leg compiles MS6 at ``M = 6`` (the paper's largest
Table 4 row) on the default route and records the seconds of each stage.
Both the ESEN4x2 and the MS6 legs also record the native builder's work,
trend-only: nodes created (``native_created``, ``ms6_native_created``)
and computed-table lookups, hits plus misses (``native_lookups``,
``ms6_native_lookups``); ``null`` without the library.
"""

from __future__ import annotations

import json
import os
import time

from repro.bdd.builder import CircuitBDDBuilder
from repro.bdd.manager import BDDManager
from repro.core.gfunction import GeneralizedFaultTree
from repro.core.method import YieldAnalyzer
from repro.engine import native
from repro.engine.batch import LinearizedDiagram
from repro.mdd.from_bdd import _convert, convert_bdd_to_mdd
from repro.ordering import OrderingSpec
from repro.soc import benchmark_problem

from .conftest import RESULTS_DIR, print_table, span_breakdown

BENCHMARK = "ESEN4x2"
MAX_DEFECTS = 5
ROUNDS = 5

#: The pinned sizes of the MS6 M=6 leg: coded ROBDD and ROMDD (the paper's
#: Table 4 ROMDD).
MS6_SIZES = (1100049, 103228)

#: The record all legs of this module write into ``BENCH_build.json``.
RECORD = {}


def native_work(manager, stats):
    """``(created, lookups)`` of a native build, ``(None, None)`` otherwise."""
    if stats.backend != "native":
        return None, None
    cache = manager.cache_totals()
    return stats.allocated_nodes, cache["hits"] + cache["misses"]


def write_record(**entries):
    RECORD.update(entries)
    try:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(os.path.join(RESULTS_DIR, "BENCH_build.json"), "w") as out:
            json.dump(RECORD, out, indent=2, sort_keys=True)
    except OSError:  # pragma: no cover - reporting must never fail a benchmark
        pass


def test_native_build_beats_the_gate_loop(benchmark):
    problem = benchmark_problem(BENCHMARK, mean_defects=2.0)
    analyzer = YieldAnalyzer(OrderingSpec("w", "ml"))
    grouped = analyzer.grouped_order_for(problem, MAX_DEFECTS)
    order = grouped.flat_bit_order()
    circuit = GeneralizedFaultTree(
        problem.fault_tree, problem.component_names, MAX_DEFECTS
    ).binary_circuit()
    builder = CircuitBDDBuilder(order, track_peak=False)

    def gate_loop():
        # a supplied manager keeps the build on the gate loop
        return builder.build(circuit, BDDManager(order))

    def native_build():
        return builder.build(circuit)

    available = native.available()
    loop_seconds = native_seconds = float("inf")
    sizes = set()
    work = set()  # (created, lookups) of every native round

    def timed(build):
        started = time.perf_counter()
        manager, _, stats = build()
        elapsed = time.perf_counter() - started
        sizes.add(stats.final_size)
        if stats.backend == "native":
            work.add(native_work(manager, stats))
        return elapsed

    def rounds():
        nonlocal loop_seconds, native_seconds
        for _ in range(ROUNDS):
            loop_seconds = min(loop_seconds, timed(gate_loop))
            if available:
                native_seconds = min(native_seconds, timed(native_build))

    benchmark.pedantic(rounds, rounds=1, iterations=1)
    assert sizes == {50994}  # both routes build the pinned diagram
    assert len(work) <= 1  # every native round does the same work
    native_created, native_lookups = work.pop() if work else (None, None)
    build_speedup = loop_seconds / native_seconds if available else None

    print_table(
        "Coded-ROBDD build — %s, M=%d, best of %d" % (BENCHMARK, MAX_DEFECTS, ROUNDS),
        ("route", "time (s)", "speedup"),
        [
            ("Python gate loop", round(loop_seconds, 4), "1.0x"),
            (
                "native builder + bulk load",
                round(native_seconds, 4) if available else "n/a",
                "%.1fx" % build_speedup if available else "no compiler",
            ),
        ],
    )

    # span breakdown of one (untimed) traced compile on the default route
    _, spans = span_breakdown(
        lambda: analyzer.compile_for_truncation(problem, MAX_DEFECTS)
    )
    write_record(
        benchmark=BENCHMARK,
        max_defects=MAX_DEFECTS,
        rounds=ROUNDS,
        coded_robdd_size=50994,
        native_available=available,
        gate_loop_seconds=loop_seconds,
        native_seconds=native_seconds if available else None,
        native_created=native_created,
        native_lookups=native_lookups,
        build_speedup=build_speedup,
        spans=spans,
    )

    if build_speedup is not None:
        assert build_speedup >= 3.0


def test_native_romdd_beats_numpy(benchmark):
    problem = benchmark_problem(BENCHMARK, mean_defects=2.0)
    grouped = YieldAnalyzer(OrderingSpec("w", "ml")).grouped_order_for(problem, MAX_DEFECTS)
    circuit = GeneralizedFaultTree(
        problem.fault_tree, problem.component_names, MAX_DEFECTS
    ).binary_circuit()
    bdd, root, _ = CircuitBDDBuilder(grouped.flat_bit_order(), track_peak=False).build(circuit)
    available = native.available()
    numpy_seconds = native_seconds = float("inf")
    digests = set()

    def timed(use_native):
        started = time.perf_counter()
        mdd, mdd_root = _convert(bdd, root, grouped.groups, native=use_native)
        diagram = LinearizedDiagram._linearize(mdd, mdd_root, native=use_native)
        elapsed = time.perf_counter() - started
        schedule = diagram.fused()
        digests.add(
            (diagram.root_slot, diagram.num_slots, schedule.bounds, schedule.kids.tobytes())
        )
        return elapsed

    def rounds():
        nonlocal numpy_seconds, native_seconds
        for _ in range(ROUNDS):
            numpy_seconds = min(numpy_seconds, timed(False))
            if available:
                native_seconds = min(native_seconds, timed(True))

    benchmark.pedantic(rounds, rounds=1, iterations=1)
    assert len(digests) == 1  # both routes give the same fused arrays
    romdd_speedup = numpy_seconds / native_seconds if available else None

    print_table(
        "ROMDD conversion + linearization — %s, M=%d, best of %d"
        % (BENCHMARK, MAX_DEFECTS, ROUNDS),
        ("route", "time (s)", "speedup"),
        [
            ("numpy", round(numpy_seconds, 5), "1.0x"),
            (
                "native library",
                round(native_seconds, 5) if available else "n/a",
                "%.1fx" % romdd_speedup if available else "no compiler",
            ),
        ],
    )
    write_record(
        romdd_numpy_seconds=numpy_seconds,
        romdd_native_seconds=native_seconds if available else None,
        romdd_speedup=romdd_speedup,
    )

    if romdd_speedup is not None:
        assert romdd_speedup >= 3.0


def test_ms6_compile_stages(benchmark):
    """MS6 at M=6 on the default route, stage by stage (trend-only)."""
    problem = benchmark_problem("MS6", mean_defects=2.0)
    analyzer = YieldAnalyzer(OrderingSpec("w", "ml"))
    stages = {}
    work = {}

    def compile_ms6():
        # the ordering stage includes the binary circuit the build reads
        started = time.perf_counter()
        grouped = analyzer.grouped_order_for(problem, 6)
        circuit = GeneralizedFaultTree(
            problem.fault_tree, problem.component_names, 6
        ).binary_circuit()
        ordered = time.perf_counter()
        bdd, root, stats = CircuitBDDBuilder(
            grouped.flat_bit_order(), track_peak=False
        ).build(circuit)
        built = time.perf_counter()
        mdd, mdd_root = convert_bdd_to_mdd(bdd, root, grouped.groups)
        converted = time.perf_counter()
        LinearizedDiagram.from_mdd(mdd, mdd_root)
        linearized = time.perf_counter()
        stages.update(
            ordering=ordered - started,
            build=built - ordered,
            conversion=converted - built,
            linearization=linearized - converted,
        )
        work["created"], work["lookups"] = native_work(bdd, stats)
        return stats.final_size, mdd.size(mdd_root)

    sizes = benchmark.pedantic(compile_ms6, rounds=1, iterations=1)
    assert sizes == MS6_SIZES

    print_table(
        "MS6 compile, M=6, default route (%s)"
        % ("native" if native.available() else "no compiler"),
        ("stage", "time (s)"),
        [(stage, round(seconds, 4)) for stage, seconds in stages.items()]
        + [("total", round(sum(stages.values()), 4))],
    )
    write_record(
        ms6_coded_robdd_size=MS6_SIZES[0],
        ms6_romdd_size=MS6_SIZES[1],
        ms6_native_created=work["created"],
        ms6_native_lookups=work["lookups"],
        **{"ms6_%s_seconds" % stage: seconds for stage, seconds in stages.items()},
    )
