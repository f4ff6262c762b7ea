"""Coded-ROBDD build: native builder versus the Python gate loop.

The acceptance bar of the native build route: building the coded ROBDD of
ESEN4x2 at ``M = 5`` (the paper's best ordering pair) through the native
builder — one C call plus the bulk load into a :class:`BDDManager` — must
be at least **3x** as fast as the Python gate loop, with the same diagram.
The two routes run interleaved, best of five each, so machine-speed drift
hits both alike.  ``build_speedup`` (gate loop over native) lands in
``benchmarks/results/BENCH_build.json``; it is ``null`` on hosts where the
library cannot be built, which the CI gate reports as a warning.
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
from repro.ordering import OrderingSpec
from repro.soc import benchmark_problem

from .conftest import RESULTS_DIR, print_table, span_breakdown

BENCHMARK = "ESEN4x2"
MAX_DEFECTS = 5
ROUNDS = 5


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

    def timed(build):
        started = time.perf_counter()
        _, _, stats = build()
        elapsed = time.perf_counter() - started
        sizes.add(stats.final_size)
        return elapsed

    def rounds():
        nonlocal loop_seconds, native_seconds
        for _ in range(ROUNDS):
            loop_seconds = min(loop_seconds, timed(gate_loop))
            if available:
                native_seconds = min(native_seconds, timed(native_build))

    benchmark.pedantic(rounds, rounds=1, iterations=1)
    assert sizes == {50994}  # both routes build the pinned diagram
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
    record = {
        "benchmark": BENCHMARK,
        "max_defects": MAX_DEFECTS,
        "rounds": ROUNDS,
        "coded_robdd_size": 50994,
        "native_available": available,
        "gate_loop_seconds": loop_seconds,
        "native_seconds": native_seconds if available else None,
        "build_speedup": build_speedup,
        "spans": spans,
    }
    try:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(os.path.join(RESULTS_DIR, "BENCH_build.json"), "w") as out:
            json.dump(record, out, indent=2, sort_keys=True)
    except OSError:  # pragma: no cover - reporting must never fail a benchmark
        pass

    if build_speedup is not None:
        assert build_speedup >= 3.0
