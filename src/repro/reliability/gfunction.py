"""The extended generalized fault tree for operational reliability.

The operational-reliability extension (the paper's announced future work)
adds, on top of the manufacturing-defect variables ``w, v_1 .. v_M``, one
binary variable ``y_i`` per component that records whether the component
failed *in the field* before the mission time.  The extended function is

    G_rel(w, v_1..v_M, y_1..y_C) =
        I_{>= M+1}(w)  OR  F(z_1, ..., z_C)

    z_i = ( OR_l ( I_{>=l}(w) AND I_{=i}(v_l) ) )  OR  ( y_i = 1 )

so that ``G_rel = 1`` exactly when the system would not be operational at the
mission time (or more than ``M`` manufacturing defects occurred — the same
pessimistic truncation as the yield method).  Because the field failures are
independent of the defect variables and of each other, the same coded-ROBDD
→ ROMDD → probability-traversal pipeline applies unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from ..core.gfunction import GeneralizedFaultTree, GFunctionError
from ..distributions import DefectCountDistribution
from ..faulttree.circuit import Circuit
from ..faulttree.multivalued import MVCircuit, MultiValuedVariable


class ReliabilityFaultTree(GeneralizedFaultTree):
    """The function ``G_rel``: ``G`` plus one field-failure variable ``y_i``.

    Parameters are those of :class:`~repro.core.gfunction.GeneralizedFaultTree`.
    Only the components the structure function reads get a ``y_i`` (the
    others cannot change the result); the field variables are ordered below
    the defect variables, one code bit each.
    """

    CIRCUIT_NAME = "Grel"

    def __init__(
        self,
        fault_tree: Circuit,
        component_names: Sequence[str],
        max_defects: int,
    ) -> None:
        support = set(fault_tree.input_names)
        self.field_variables = tuple(
            MultiValuedVariable("y[%s]" % name, (0, 1))
            for name in map(str, component_names)
            if name in support
        )
        self._field_by_component: Dict[str, MultiValuedVariable] = {
            variable.name[2:-1]: variable for variable in self.field_variables
        }
        super().__init__(fault_tree, component_names, max_defects)

    def _further_failure_terms(self, mv: MVCircuit, component: str) -> List[int]:
        return [mv.filter_eq(self._field_by_component[component], 1)]

    def field_variable(self, component: str) -> MultiValuedVariable:
        """Return the field-failure variable of ``component``."""
        try:
            return self._field_by_component[component]
        except KeyError:
            raise GFunctionError(
                "component %r has no field-failure variable (not in the fault tree)"
                % (component,)
            ) from None

    def evaluate(
        self,
        defect_count: int,
        hit_components: Sequence[int],
        field_failed: Sequence[str],
    ) -> bool:
        """Evaluate ``G_rel`` on a concrete scenario (mainly for tests)."""
        assignment = self._assignment(defect_count, hit_components)
        failed = set(field_failed)
        for component, variable in self._field_by_component.items():
            assignment[variable.name] = 1 if component in failed else 0
        return self.mv_circuit.evaluate(assignment)

    def variable_distributions(
        self,
        lethal_distribution: DefectCountDistribution,
        lethal_component_probabilities: Sequence[float],
        field_unreliabilities: Mapping[str, float],
    ) -> Dict[str, Dict[int, float]]:
        """``G``'s distributions plus ``P(y_i = 1)``, the field unreliabilities."""
        distributions = super().variable_distributions(
            lethal_distribution, lethal_component_probabilities
        )
        for component, variable in self._field_by_component.items():
            if component not in field_unreliabilities:
                raise GFunctionError(
                    "missing field unreliability for component %r" % (component,)
                )
            q = float(field_unreliabilities[component])
            if not 0.0 <= q <= 1.0:
                raise GFunctionError(
                    "field unreliability of %r must be in [0, 1], got %r" % (component, q)
                )
            distributions[variable.name] = {0: 1.0 - q, 1: q}
        return distributions
