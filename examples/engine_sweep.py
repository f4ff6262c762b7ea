"""Density sweeps through the engine's batch service.

Evaluating the yield across defect densities is the bread-and-butter
"what-if" workload of the paper's method: the fault tree and the truncation
level stay fixed while the defect model varies.  The decision-diagram
structure only depends on the former, so the engine's
:class:`repro.engine.service.SweepService` builds the coded ROBDD / ROMDD
once and re-runs only the (cheap) probability traversal per point.

The script sweeps an MS benchmark twice — serial rebuild per point versus
the engine service — and prints both timings, the speedup and the service's
cache statistics.
"""

import os
import time

from repro.core.method import YieldAnalyzer
from repro.engine.service import SweepService
from repro.ordering import OrderingSpec
from repro.soc import ms_problem

FAST = bool(os.environ.get("REPRO_EXAMPLE_FAST"))

MODULES = 2
MAX_DEFECTS = 4 if FAST else 6
DENSITIES = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]


def factory(mean_defects):
    return ms_problem(MODULES, mean_defects=mean_defects)


def main():
    print("MS%d density sweep, %d points, M=%d" % (MODULES, len(DENSITIES), MAX_DEFECTS))

    # --- baseline: rebuild the diagrams for every density -------------- #
    analyzer = YieldAnalyzer(OrderingSpec("w", "ml"))
    started = time.perf_counter()
    serial_rows = [
        analyzer.evaluate(factory(mean), max_defects=MAX_DEFECTS) for mean in DENSITIES
    ]
    serial_seconds = time.perf_counter() - started

    # --- engine: one build, many traversals ---------------------------- #
    service = SweepService(ordering=OrderingSpec("w", "ml"))
    started = time.perf_counter()
    engine_rows = service.density_sweep(factory, DENSITIES, max_defects=MAX_DEFECTS)
    engine_seconds = time.perf_counter() - started

    print()
    print("mean defects   yield (serial)   yield (engine)")
    for result, (mean, engine_yield, _) in zip(serial_rows, engine_rows):
        print(
            "%12g   %.12f   %.12f" % (mean, result.yield_estimate, engine_yield)
        )
        assert abs(result.yield_estimate - engine_yield) < 1e-12

    print()
    print("serial rebuild : %.3f s" % serial_seconds)
    print("engine reuse   : %.3f s" % engine_seconds)
    if engine_seconds > 0:
        print("speedup        : %.1fx" % (serial_seconds / engine_seconds))
    counter = service.registry.counter
    print(
        "service stats  : %d structures built, %d points evaluated"
        % (counter("service.structures.built"), counter("service.points.evaluated"))
    )


if __name__ == "__main__":
    main()
