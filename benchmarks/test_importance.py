"""Importance ablation — analytic gradients versus perturbed re-evaluation.

The finite-difference importance route needs two perturbed defect models per
component; on a 48-component system that is a **96-model group** through the
batched engine (its strongest form: one structure, one batched linearized
pass over all 96 perturbations).  The analytic route replaces the whole
group with a single forward-plus-reverse pass over the same linearized
arrays (:meth:`repro.core.method.CompiledYield.gradients_many`).

This benchmark times both routes on the same compiled structure, in
``ROUNDS`` rounds after a warm-up, and asserts the acceptance bar of the
analytic importance engine: **>= 3x** over the perturbation route (best
time against best time, so a round that shared the CPU cannot trip it),
with component rankings that agree in every round.  Every round's timings
are written to ``benchmarks/results/BENCH_importance.json`` so CI can
archive a perf record per run.
"""

from __future__ import annotations

import gc
import json
import os
import time

import pytest

from repro.analysis.importance import yield_sensitivity
from repro.core.problem import YieldProblem
from repro.distributions import ComponentDefectModel, NegativeBinomialDefectDistribution
from repro.engine.service import SweepService, structure_key
from repro.faulttree import FaultTreeBuilder
from repro.ordering import OrderingSpec

from .conftest import (
    PAPER_EPSILON,
    RESULTS_DIR,
    print_table,
    registry_stats,
    span_breakdown,
)

#: 24 redundant pairs -> 48 components -> a 96-model finite-difference group.
NUM_PAIRS = 24

#: Truncation level of the shared structure (pinned so both routes price
#: pure evaluation over one compiled diagram; M=4 puts the ROMDD at ~18k
#: nodes, where traversal — not per-point bookkeeping — dominates).
MAX_DEFECTS = 4

#: Step of the finite-difference route (the library default).
RELATIVE_STEP = 0.05

#: Timed rounds of the (finite-difference, analytic) pair after the warm-up
#: round; the route that goes first alternates from round to round.
ROUNDS = 7


def _pairs_system():
    """``(fault tree, component model)`` of a 48-component system of 24
    redundant pairs with distinct weights.

    The system fails when both members of any pair fail.  Distinct weights
    keep the sensitivity ranking free of floating-point ties, so the
    cross-route ranking comparison is exact.
    """
    ft = FaultTreeBuilder("pairs48")
    terms = [
        ft.and_(ft.failed("A%d" % i), ft.failed("B%d" % i))
        for i in range(NUM_PAIRS)
    ]
    top = terms[0]
    for term in terms[1:]:
        top = ft.or_(top, term)
    ft.set_top(top)
    weights = {}
    for i in range(NUM_PAIRS):
        weights["A%d" % i] = 1.0 + 0.13 * i
        weights["B%d" % i] = 1.7 + 0.07 * i
    model = ComponentDefectModel.from_relative_weights(weights, lethality=0.6)
    return ft.build(), model


def _pairs_problem(system, mean_defects):
    tree, model = system
    distribution = NegativeBinomialDefectDistribution(mean=mean_defects, clustering=4.0)
    return YieldProblem(tree, model, distribution, name="pairs48")


def test_analytic_importance_beats_finite_differences():
    """Acceptance bar: analytic gradients >= 3x the 96-model FD group."""
    system = _pairs_system()
    problem = _pairs_problem(system, 2.0)
    ordering = OrderingSpec("w", "ml")
    service = SweepService(ordering=ordering, epsilon=PAPER_EPSILON)

    # shared warm-up: compile the structure once so both routes measure the
    # per-query cost over a hot structure cache — the regime an importance
    # service actually runs in (the FD route's perturbed models share the
    # same structure key, so it reuses this very build)
    service.evaluate(problem, max_defects=MAX_DEFECTS)
    compiled = service._structures[structure_key(problem, MAX_DEFECTS, ordering)]
    assert service.registry.counter("service.structures.built") == 1
    fd_models = 2 * problem.num_components

    def run(route, problem):
        if route == "fd":
            # perturbation route: 2 models per component, one batched pass
            return yield_sensitivity(
                problem,
                max_defects=MAX_DEFECTS,
                method="fd",
                relative_step=RELATIVE_STEP,
                service=service,
            )
        # analytic route: one forward + one reverse linearized pass
        return yield_sensitivity(
            problem, max_defects=MAX_DEFECTS, method="analytic", service=service
        )

    seconds = {"fd": [], "analytic": []}
    for round_index in range(ROUNDS + 1):
        # a new density every round, while the M=4 structure stays hot
        problem = _pairs_problem(system, 2.0 + 0.01 * (round_index + 1))
        rankings = {}
        for route in ("fd", "analytic") if round_index % 2 == 0 else ("analytic", "fd"):
            evaluated = service.registry.counter("service.points.evaluated")
            gc.collect()
            started = time.perf_counter()
            rankings[route] = run(route, problem)
            elapsed = time.perf_counter() - started
            if route == "fd":
                assert service.registry.counter("service.points.evaluated") - evaluated == fd_models
            if round_index:  # the first round is a warm-up
                seconds[route].append(elapsed)

        # the routes approximate the same derivative: identical rankings
        fd_ranking, analytic_ranking = rankings["fd"], rankings["analytic"]
        assert [name for name, _ in analytic_ranking] == [name for name, _ in fd_ranking]
        for (name, analytic_value), (_, fd_value) in zip(analytic_ranking, fd_ranking):
            assert analytic_value == pytest.approx(fd_value, rel=2e-2, abs=1e-9), name

    # no structure was rebuilt by either route
    assert service.registry.counter("service.structures.built") == 1

    fd_seconds, analytic_seconds = min(seconds["fd"]), min(seconds["analytic"])
    speedup = fd_seconds / max(analytic_seconds, 1e-9)
    print_table(
        "Analytic importance vs finite differences — %s, C=%d (%d-model group), "
        "best of %d rounds" % (problem.name, problem.num_components, fd_models, ROUNDS),
        ("route", "models", "best time (s)", "speedup"),
        [
            ("finite differences (batched)", fd_models, round(fd_seconds, 4), "1.0x"),
            ("analytic gradients", 1, round(analytic_seconds, 4), "%.1fx" % speedup),
        ],
    )

    # span breakdown of one traced analytic query (untimed re-run)
    _, analytic_spans = span_breakdown(lambda: run("analytic", problem))

    record = {
        "benchmark": problem.name,
        "components": problem.num_components,
        "fd_models": fd_models,
        "spans": analytic_spans,
        "max_defects": MAX_DEFECTS,
        "romdd_nodes": compiled.romdd_size,
        "fd_seconds": fd_seconds,
        "analytic_seconds": analytic_seconds,
        "fd_round_seconds": seconds["fd"],
        "analytic_round_seconds": seconds["analytic"],
        "speedup": speedup,
        "service_stats": registry_stats(service),
    }
    try:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(os.path.join(RESULTS_DIR, "BENCH_importance.json"), "w") as out:
            json.dump(record, out, indent=2, sort_keys=True)
    except OSError:  # pragma: no cover - reporting must never fail a benchmark
        pass

    # the acceptance bar of the analytic importance engine
    assert speedup >= 3.0
