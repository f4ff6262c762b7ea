"""Construction of the generalized fault tree ``G(w, v_1 .. v_M)``.

Equation (3) and Fig. 1 of the paper define ``G`` from the fault tree ``F``:

* ``w`` counts the lethal defects, saturated at ``M + 1``;
* ``v_l`` is the component affected by the ``l``-th lethal defect;
* component ``i`` is failed exactly when some of the first ``M`` lethal
  defects hit it, i.e. ``OR_l ( I_{>=l}(w) AND I_{=i}(v_l) )``;
* ``G = I_{>=M+1}(w)  OR  F(failed_1, ..., failed_C)`` so that ``G = 1``
  exactly when the system is not functioning *or* more than ``M`` defects
  occurred (the pessimistic truncation).

The class produces the filter-gate circuit (:class:`repro.faulttree.MVCircuit`),
the binary-encoded gate-level description used by the ordering heuristics and
the coded-ROBDD builder, and the per-variable probability distributions used
by the final ROMDD traversal.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..distributions import DefectCountDistribution, plain_sum
from ..faulttree.circuit import Circuit
from ..faulttree.multivalued import MVCircuit, MultiValuedVariable
from ..faulttree.ops import CircuitError, GateOp


class GFunctionError(ValueError):
    """Raised when the generalized fault tree cannot be constructed."""


class GeneralizedFaultTree:
    """The boolean function ``G`` with multiple-valued variables of Theorem 1.

    Parameters
    ----------
    fault_tree:
        The gate-level circuit of ``F(x_1 .. x_C)``.
    component_names:
        Component names in index order; component ``i`` of the paper is
        ``component_names[i - 1]``.  Every fault-tree input must be listed.
    max_defects:
        The truncation level ``M`` (>= 0).
    """

    COUNT_VARIABLE_NAME = "w"

    #: Prefix of the circuit names (``G[<fault tree>,M=<M>]``).
    CIRCUIT_NAME = "G"

    #: Binary variables ordered below ``v_M``, one code-bit group each:
    #: none in ``G``; the field-failure variables of
    #: :class:`repro.reliability.ReliabilityFaultTree`.
    field_variables: Tuple[MultiValuedVariable, ...] = ()

    def __init__(
        self,
        fault_tree: Circuit,
        component_names: Sequence[str],
        max_defects: int,
    ) -> None:
        if max_defects < 0:
            raise GFunctionError("max_defects must be >= 0, got %d" % max_defects)
        component_names = [str(n) for n in component_names]
        if len(set(component_names)) != len(component_names):
            raise GFunctionError("component names must be unique")
        missing = [
            name for name in fault_tree.input_names if name not in component_names
        ]
        if missing:
            raise GFunctionError(
                "fault tree inputs are not components: %s" % ", ".join(missing)
            )
        self.fault_tree = fault_tree
        self.component_names: Tuple[str, ...] = tuple(component_names)
        self.max_defects = int(max_defects)

        num_components = len(component_names)
        self.count_variable = MultiValuedVariable(
            self.COUNT_VARIABLE_NAME, range(0, self.max_defects + 2)
        )
        # v_l - 1 is what gets encoded (minimum-width code on {0 .. C-1}),
        # exactly as prescribed in Section 2.
        self.location_variables: Tuple[MultiValuedVariable, ...] = tuple(
            MultiValuedVariable("v%d" % l, range(1, num_components + 1))
            for l in range(1, self.max_defects + 1)
        )
        self.mv_circuit = self._build_mv_circuit()
        self._binary_circuit: Optional[Circuit] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def _build_mv_circuit(self) -> MVCircuit:
        mv = MVCircuit(
            "%s[%s,M=%d]" % (self.CIRCUIT_NAME, self.fault_tree.name, self.max_defects)
        )
        for variable in self.variables:
            mv.add_variable(variable)

        # failed_i = OR_l ( w >= l AND v_l == i ), plus any further terms
        component_failed: Dict[str, int] = {}
        needed = set(self.fault_tree.input_names)
        for index, name in enumerate(self.component_names, start=1):
            if name not in needed:
                continue
            terms: List[int] = []
            for position, variable in enumerate(self.location_variables, start=1):
                at_least_l = mv.filter_geq(self.count_variable, position)
                hits_component = mv.filter_eq(variable, index)
                terms.append(mv.gate(GateOp.AND, [at_least_l, hits_component]))
            terms.extend(self._further_failure_terms(mv, name))
            if len(terms) > 1:
                component_failed[name] = mv.gate(GateOp.OR, terms)
            elif terms:
                component_failed[name] = terms[0]
            else:
                # M == 0: no defect is analyzed, no component can be failed
                component_failed[name] = mv.const(False)

        # copy the structure of F, substituting the component-failed signals
        mapping: Dict[int, int] = {}
        for node in self.fault_tree.nodes:
            if node.is_input:
                mapping[node.index] = component_failed[node.name]
            elif node.is_const:
                mapping[node.index] = mv.const(node.name == "1")
            else:
                mapping[node.index] = mv.gate(node.op, [mapping[f] for f in node.fanins])
        f_top = mapping[self.fault_tree.primary_output]

        overflow = mv.filter_geq(self.count_variable, self.max_defects + 1)
        mv.set_top(mv.gate(GateOp.OR, [overflow, f_top]))
        return mv

    def _further_failure_terms(self, mv: MVCircuit, component: str) -> List[int]:
        """Signals ORed into ``component``'s failed signal besides its defect hits."""
        return []

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def variables(self) -> Tuple[MultiValuedVariable, ...]:
        """All variables: ``w``, then ``v_1 .. v_M``, then any field variables."""
        return (self.count_variable,) + self.location_variables + self.field_variables

    @property
    def num_components(self) -> int:
        return len(self.component_names)

    def binary_circuit(self) -> Circuit:
        """Return (and cache) the gate-level description of ``G`` in binary logic."""
        if self._binary_circuit is None:
            self._binary_circuit = self.mv_circuit.binary_encode(
                "%s-binary" % self.mv_circuit.circuit.name
            )
        return self._binary_circuit

    # ------------------------------------------------------------------ #
    # Semantics
    # ------------------------------------------------------------------ #

    def evaluate(self, defect_count: int, hit_components: Sequence[int]) -> bool:
        """Evaluate ``G`` on a concrete defect scenario.

        Parameters
        ----------
        defect_count:
            The number of lethal defects (values above ``M`` are treated as
            the saturated value ``M + 1``).
        hit_components:
            1-based component indices hit by the first ``min(defect_count, M)``
            lethal defects; extra entries are ignored, missing entries
            (possible only when they cannot influence the result) default to
            component 1.
        """
        return self.mv_circuit.evaluate(self._assignment(defect_count, hit_components))

    def _assignment(self, defect_count: int, hit_components: Sequence[int]) -> Dict[str, int]:
        """The values of ``w`` and ``v_1 .. v_M`` in a defect scenario."""
        w_value = min(defect_count, self.max_defects + 1)
        assignment: Dict[str, int] = {self.count_variable.name: w_value}
        for position, variable in enumerate(self.location_variables):
            if position < len(hit_components):
                assignment[variable.name] = int(hit_components[position])
            else:
                assignment[variable.name] = 1
        return assignment

    def failed_set(self, defect_count: int, hit_components: Sequence[int]) -> List[str]:
        """Return the component names failed by the given defect scenario."""
        effective = min(defect_count, self.max_defects)
        failed = []
        for position in range(effective):
            index = int(hit_components[position])
            if not 1 <= index <= self.num_components:
                raise GFunctionError("component index %d out of range" % index)
            name = self.component_names[index - 1]
            if name not in failed:
                failed.append(name)
        return failed

    # ------------------------------------------------------------------ #
    # Probability distributions for the ROMDD traversal
    # ------------------------------------------------------------------ #

    def variable_distributions(
        self,
        lethal_distribution: DefectCountDistribution,
        lethal_component_probabilities: Sequence[float],
    ) -> Dict[str, Dict[int, float]]:
        """Return ``{variable: {value: probability}}`` for the traversal.

        ``P(w = k) = Q'_k`` for ``k <= M`` and
        ``P(w = M+1) = 1 - sum_{k<=M} Q'_k``; ``P(v_l = i) = P'_i``.
        """
        probabilities = [float(p) for p in lethal_component_probabilities]
        if len(probabilities) != self.num_components:
            raise GFunctionError(
                "expected %d component probabilities, got %d"
                % (self.num_components, len(probabilities))
            )
        total = plain_sum(probabilities)
        if abs(total - 1.0) > 1e-6:
            raise GFunctionError(
                "lethal component probabilities must sum to 1, got %g" % total
            )

        count_pmf = [lethal_distribution.pmf(k) for k in range(self.max_defects + 1)]
        overflow = max(0.0, 1.0 - plain_sum(count_pmf))
        w_distribution = {k: count_pmf[k] for k in range(self.max_defects + 1)}
        w_distribution[self.max_defects + 1] = overflow

        distributions: Dict[str, Dict[int, float]] = {
            self.count_variable.name: w_distribution
        }
        location_distribution = {
            index + 1: probabilities[index] for index in range(self.num_components)
        }
        for variable in self.location_variables:
            distributions[variable.name] = dict(location_distribution)
        return distributions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "%s(C=%d, M=%d, filters=%d, gates=%d)" % (
            type(self).__name__,
            self.num_components,
            self.max_defects,
            len(self.mv_circuit.filters),
            self.mv_circuit.num_gates,
        )
