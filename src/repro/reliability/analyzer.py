"""Operational-reliability evaluation (the paper's announced extension).

:class:`ReliabilityAnalyzer` runs the same pipeline as the yield method on
the extended function ``G_rel(w, v_1..v_M, y_1..y_C)``:

1. lethal-defect mapping and truncation exactly as for the yield;
2. grouped variable order: the defect variables are ordered with the chosen
   heuristic, the per-component field-failure bits are appended below them
   (each is a one-bit group);
3. coded ROBDD, ROMDD conversion and probability traversal, where each field
   variable carries the component's mission unreliability.

The reported quantities are:

* ``survival_probability`` — ``P(system operational at the mission time)``,
  counting both manufacturing defects and field failures (a pessimistic
  estimate with the same truncation error bound as the yield);
* ``yield_estimate`` — the ordinary yield ``Y_M`` (mission time 0);
* ``conditional_reliability`` — ``survival / yield``, the reliability of a
  chip that passed the manufacturing test.  For coherent structure functions
  (failures only ever make things worse) "operational at t" implies
  "operational at 0", so the ratio is the exact conditional probability; for
  non-coherent trees it is only an approximation and a warning field is set.
"""

from __future__ import annotations

import time as time_module
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..bdd.builder import CircuitBDDBuilder
from ..core.method import YieldAnalyzer
from ..core.problem import YieldProblem
from ..mdd.from_bdd import convert_bdd_to_mdd
from ..mdd.probability import probability_of_many
from ..ordering.grouped import GroupedVariableOrder
from ..ordering.strategies import OrderingSpec, compute_grouped_order
from .field import FieldFailureModel
from .gfunction import ReliabilityFaultTree


@dataclass(frozen=True)
class ReliabilityResult:
    """Outcome of an operational-reliability evaluation at one mission time."""

    name: str
    mission_time: float
    survival_probability: float
    yield_estimate: float
    conditional_reliability: float
    error_bound: float
    truncation: int
    coded_robdd_size: int
    romdd_size: int
    elapsed_seconds: float
    extra: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        """Return a one-line human-readable summary."""
        return (
            "%s @ t=%g: survival >= %.6f, yield >= %.6f, R(t | pass test) ~= %.6f "
            "(error <= %.2e, M=%d)"
            % (
                self.name,
                self.mission_time,
                self.survival_probability,
                self.yield_estimate,
                self.conditional_reliability,
                self.error_bound,
                self.truncation,
            )
        )


class ReliabilityAnalyzer:
    """Evaluates operational reliability under manufacturing defects.

    Parameters mirror :class:`repro.core.method.YieldAnalyzer`.
    """

    def __init__(
        self,
        ordering: Optional[OrderingSpec] = None,
        *,
        epsilon: float = 1e-4,
        node_limit: Optional[int] = None,
    ) -> None:
        self.ordering = ordering or OrderingSpec("w", "ml")
        self.epsilon = float(epsilon)
        self.node_limit = node_limit

    # ------------------------------------------------------------------ #

    def evaluate(
        self,
        problem: YieldProblem,
        field_model: FieldFailureModel,
        mission_time: float,
        *,
        max_defects: Optional[int] = None,
        epsilon: Optional[float] = None,
    ) -> ReliabilityResult:
        """Evaluate the survival probability at ``mission_time``."""
        return self._sweep(problem, field_model, [mission_time], max_defects, epsilon)[0]

    def mission_sweep(
        self,
        problem: YieldProblem,
        field_model: FieldFailureModel,
        mission_times: Sequence[float],
        *,
        max_defects: Optional[int] = None,
    ) -> List[ReliabilityResult]:
        """Evaluate a whole mission-time curve (one result per time point).

        A mission time changes only the field variables' probabilities, so
        the sweep builds ``G_rel`` and computes the yield once, then
        evaluates every mission time in one batched pass.  Each result's
        ``elapsed_seconds`` is the sweep's wall clock divided by the number
        of mission times.
        """
        return self._sweep(problem, field_model, mission_times, max_defects, None)

    def _sweep(self, problem, field_model, mission_times, max_defects, epsilon):
        mission_times = list(mission_times)
        if not mission_times:
            return []
        started = time_module.perf_counter()
        lethal = problem.lethal_defect_distribution()
        budget = self.epsilon if epsilon is None else float(epsilon)
        truncation = (
            lethal.truncation_level(budget) if max_defects is None else int(max_defects)
        )
        error_bound = lethal.tail(truncation)

        gfunction = ReliabilityFaultTree(
            problem.fault_tree, problem.component_names, truncation
        )
        grouped = self._grouped_order(gfunction)

        builder = CircuitBDDBuilder(
            grouped.flat_bit_order(), track_peak=False, node_limit=self.node_limit
        )
        bdd_manager, bdd_root, build_stats = builder.build(gfunction.binary_circuit())
        mdd_manager, mdd_root = convert_bdd_to_mdd(bdd_manager, bdd_root, grouped.groups)

        support = [
            name
            for name in problem.component_names
            if name in set(problem.fault_tree.input_names)
        ]
        hits = problem.lethal_component_probabilities()
        failure_probabilities = probability_of_many(
            mdd_manager,
            mdd_root,
            [
                gfunction.variable_distributions(
                    lethal, hits, field_model.unreliabilities(support, mission_time)
                )
                for mission_time in mission_times
            ],
        )

        yield_estimate = (
            YieldAnalyzer(self.ordering, epsilon=budget)
            .evaluate(problem, max_defects=truncation)
            .yield_estimate
        )
        romdd_size = mdd_manager.size(mdd_root)
        elapsed = (time_module.perf_counter() - started) / len(mission_times)
        results = []
        for mission_time, failure_probability in zip(mission_times, failure_probabilities):
            survival = 1.0 - failure_probability
            conditional = survival / yield_estimate if yield_estimate > 0.0 else 0.0
            results.append(
                ReliabilityResult(
                    name=problem.name,
                    mission_time=float(mission_time),
                    survival_probability=survival,
                    yield_estimate=yield_estimate,
                    conditional_reliability=min(1.0, conditional),
                    error_bound=error_bound,
                    truncation=truncation,
                    coded_robdd_size=build_stats.final_size,
                    romdd_size=romdd_size,
                    elapsed_seconds=elapsed,
                    extra={
                        "binary_variables": float(len(grouped.flat_bit_order())),
                        "field_variables": float(len(gfunction.field_variables)),
                    },
                )
            )
        return results

    # ------------------------------------------------------------------ #

    def _grouped_order(self, gfunction: ReliabilityFaultTree) -> GroupedVariableOrder:
        binary_circuit = (
            gfunction.binary_circuit() if self.ordering.needs_circuit() else None
        )
        defect_order = compute_grouped_order(
            gfunction.count_variable,
            gfunction.location_variables,
            self.ordering,
            binary_circuit,
        )
        groups = list(defect_order.groups)
        for variable in gfunction.field_variables:
            groups.append((variable, variable.bit_names()))
        return GroupedVariableOrder(groups)


def evaluate_reliability(
    problem: YieldProblem,
    field_model: FieldFailureModel,
    mission_time: float,
    *,
    epsilon: float = 1e-4,
    max_defects: Optional[int] = None,
    ordering: Optional[OrderingSpec] = None,
) -> ReliabilityResult:
    """One-call convenience wrapper around :class:`ReliabilityAnalyzer`."""
    analyzer = ReliabilityAnalyzer(ordering, epsilon=epsilon)
    return analyzer.evaluate(problem, field_model, mission_time, max_defects=max_defects)
