"""Native kernel — the tier-2 acceptance bar.

Assertion on a 96-model single-group sweep (ESEN4x2, M=5): the native
compiled kernel runs the whole-batch evaluation pass at least **3x** as
fast as the fused numpy kernel (and its backward pass faster still),
bit-for-bit identical — skipped, not failed, on hosts where the library
cannot be built.  The two kernels are timed interleaved, best of fifteen
each, for both passes, so machine-speed drift hits both alike.

The measured numbers land in ``benchmarks/results/BENCH_kernel.json`` so
CI archives a perf record per run, next to the other ``BENCH_*.json``
artifacts — and ``ci/print_benchmark_summary.py --gate`` compares them
against the committed floors in ``benchmarks/baselines/``.
"""

from __future__ import annotations

import json
import os
import time

from repro.core.method import YieldAnalyzer
from repro.engine import native as native_backend
from repro.mdd.probability import columns_from_matrices
from repro.ordering import OrderingSpec
from repro.soc import benchmark_problem

from .conftest import RESULTS_DIR, print_table, span_breakdown

BENCHMARK = "ESEN4x2"
MAX_DEFECTS = 5
MODELS = 96
DENSITIES = [0.25 + 0.025 * i for i in range(MODELS)]
ROUNDS = 15


def _problem(mean):
    return benchmark_problem(BENCHMARK, mean_defects=mean)


def _best_of(*functions, rounds=ROUNDS):
    """Best time of each function over ``rounds`` alternating calls."""
    best = [float("inf")] * len(functions)
    for _ in range(rounds):
        for index, function in enumerate(functions):
            started = time.perf_counter()
            function()
            best[index] = min(best[index], time.perf_counter() - started)
    return best


def test_native_kernel_speedup(benchmark):
    compiled = YieldAnalyzer(OrderingSpec("w", "ml")).compile_for_truncation(
        _problem(2.0), MAX_DEFECTS
    )
    linearized = compiled.linearized()
    problems = [_problem(mean) for mean in DENSITIES]
    counts = [problem.lethal_counts(MAX_DEFECTS) for problem in problems]
    columns = columns_from_matrices(
        linearized, compiled.level_profile, *compiled.model_matrices(problems, counts)
    )

    def forward(kernel):
        return lambda: linearized.evaluate(columns, MODELS, kernel=kernel)

    def backward(kernel):
        return lambda: linearized.backward(columns, MODELS, kernel=kernel)

    # ---- native compiled backend vs the fused kernel ---- #
    native_seconds = native_backward_seconds = native_speedup = None
    native_backward_speedup = None
    if native_backend.available():
        assert forward("native")() == forward("fused")()
        # bit-for-bit, gradients included
        assert backward("native")() == backward("fused")()
        fused_seconds, native_seconds = benchmark.pedantic(
            lambda: _best_of(forward("fused"), forward("native")),
            rounds=1,
            iterations=1,
        )
        native_speedup = fused_seconds / max(native_seconds, 1e-12)
        fused_backward_seconds, native_backward_seconds = _best_of(
            backward("fused"), backward("native")
        )
        native_backward_speedup = fused_backward_seconds / max(
            native_backward_seconds, 1e-12
        )
    else:
        (fused_seconds,) = benchmark.pedantic(
            lambda: _best_of(forward("fused")), rounds=1, iterations=1
        )

    print_table(
        "Native kernel — %s, %d models, M=%d"
        % (BENCHMARK, MODELS, MAX_DEFECTS),
        ("route", "value", "vs baseline"),
        [
            ("fused kernel pass (s)", round(fused_seconds, 5), "1.0x"),
            (
                "native kernel pass (s)",
                round(native_seconds, 5) if native_seconds else "n/a",
                "%.1fx over fused" % native_speedup if native_speedup else "no compiler",
            ),
            (
                "native backward pass (s)",
                round(native_backward_seconds, 5) if native_backward_seconds else "n/a",
                "%.1fx over fused" % native_backward_speedup
                if native_backward_speedup
                else "no compiler",
            ),
        ],
    )

    # span breakdown of one (untimed) traced fused pass — the timed passes
    # above ran with telemetry disabled, so the record's timings are clean
    _, fused_spans = span_breakdown(
        lambda: linearized.evaluate(columns, MODELS, kernel="fused")
    )

    record = {
        "benchmark": BENCHMARK,
        "models": MODELS,
        "max_defects": MAX_DEFECTS,
        "node_count": linearized.node_count,
        "spans": fused_spans,
        "fused_seconds": fused_seconds,
        "native_available": native_backend.available(),
        "native_seconds": native_seconds,
        "native_speedup": native_speedup,
        "native_backward_seconds": native_backward_seconds,
        "native_backward_speedup": native_backward_speedup,
        "collapsed_layers": linearized.collapsed_layers,
    }
    try:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(os.path.join(RESULTS_DIR, "BENCH_kernel.json"), "w") as out:
            json.dump(record, out, indent=2, sort_keys=True)
    except OSError:  # pragma: no cover - reporting must never fail a benchmark
        pass

    # the acceptance bar of the native backend
    if native_speedup is not None:
        assert native_speedup >= 3.0
