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

from typing import Dict, List, Mapping, Sequence, Tuple

from ..core.gfunction import GFunctionError
from ..distributions import DefectCountDistribution, plain_sum
from ..faulttree.circuit import Circuit
from ..faulttree.multivalued import MVCircuit, MultiValuedVariable
from ..faulttree.ops import GateOp


class ReliabilityFaultTree:
    """The function ``G_rel`` with defect and field-failure variables.

    Parameters
    ----------
    fault_tree:
        Gate-level circuit of the structure function ``F``.
    component_names:
        Component names in index order (1-based indices in the paper's
        notation).
    max_defects:
        Truncation level ``M`` for the manufacturing defects.
    """

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
        missing = [n for n in fault_tree.input_names if n not in component_names]
        if missing:
            raise GFunctionError(
                "fault tree inputs are not components: %s" % ", ".join(missing)
            )
        self.fault_tree = fault_tree
        self.component_names: Tuple[str, ...] = tuple(component_names)
        self.max_defects = int(max_defects)

        num_components = len(component_names)
        self.count_variable = MultiValuedVariable("w", range(0, max_defects + 2))
        self.location_variables: Tuple[MultiValuedVariable, ...] = tuple(
            MultiValuedVariable("v%d" % l, range(1, num_components + 1))
            for l in range(1, max_defects + 1)
        )
        # one binary field-failure variable per component that the structure
        # function actually reads (components outside the support cannot
        # change the result)
        support = set(fault_tree.input_names)
        self.field_variables: Tuple[MultiValuedVariable, ...] = tuple(
            MultiValuedVariable("y[%s]" % name, (0, 1))
            for name in component_names
            if name in support
        )
        self._field_by_component: Dict[str, MultiValuedVariable] = {
            variable.name[2:-1]: variable for variable in self.field_variables
        }
        self.mv_circuit = self._build_mv_circuit()
        self._binary_circuit = None

    # ------------------------------------------------------------------ #

    def _build_mv_circuit(self) -> MVCircuit:
        mv = MVCircuit("Grel[%s,M=%d]" % (self.fault_tree.name, self.max_defects))
        mv.add_variable(self.count_variable)
        for variable in self.location_variables:
            mv.add_variable(variable)
        for variable in self.field_variables:
            mv.add_variable(variable)

        needed = set(self.fault_tree.input_names)
        component_failed: Dict[str, int] = {}
        for index, name in enumerate(self.component_names, start=1):
            if name not in needed:
                continue
            terms: List[int] = []
            for position, variable in enumerate(self.location_variables, start=1):
                at_least_l = mv.filter_geq(self.count_variable, position)
                hits_component = mv.filter_eq(variable, index)
                terms.append(mv.gate(GateOp.AND, [at_least_l, hits_component]))
            terms.append(mv.filter_eq(self._field_by_component[name], 1))
            component_failed[name] = (
                mv.gate(GateOp.OR, terms) if len(terms) > 1 else terms[0]
            )

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

    # ------------------------------------------------------------------ #

    @property
    def num_components(self) -> int:
        return len(self.component_names)

    @property
    def variables(self) -> Tuple[MultiValuedVariable, ...]:
        """All variables: ``w``, then ``v_1..v_M``, then the field variables."""
        return (self.count_variable,) + self.location_variables + self.field_variables

    def field_variable(self, component: str) -> MultiValuedVariable:
        """Return the field-failure variable of ``component``."""
        try:
            return self._field_by_component[component]
        except KeyError:
            raise GFunctionError(
                "component %r has no field-failure variable (not in the fault tree)"
                % (component,)
            ) from None

    def binary_circuit(self) -> Circuit:
        """Return (and cache) the binary gate-level description of ``G_rel``."""
        if self._binary_circuit is None:
            self._binary_circuit = self.mv_circuit.binary_encode(
                "%s-binary" % self.mv_circuit.circuit.name
            )
        return self._binary_circuit

    def evaluate(
        self,
        defect_count: int,
        hit_components: Sequence[int],
        field_failed: Sequence[str],
    ) -> bool:
        """Evaluate ``G_rel`` on a concrete scenario (mainly for tests)."""
        assignment: Dict[str, int] = {
            self.count_variable.name: min(defect_count, self.max_defects + 1)
        }
        for position, variable in enumerate(self.location_variables):
            if position < len(hit_components):
                assignment[variable.name] = int(hit_components[position])
            else:
                assignment[variable.name] = 1
        failed = set(field_failed)
        for component, variable in self._field_by_component.items():
            assignment[variable.name] = 1 if component in failed else 0
        return self.mv_circuit.evaluate(assignment)

    # ------------------------------------------------------------------ #

    def variable_distributions(
        self,
        lethal_distribution: DefectCountDistribution,
        lethal_component_probabilities: Sequence[float],
        field_unreliabilities: Mapping[str, float],
    ) -> Dict[str, Dict[int, float]]:
        """Return the per-variable distributions for the probability traversal."""
        probabilities = [float(p) for p in lethal_component_probabilities]
        if len(probabilities) != self.num_components:
            raise GFunctionError(
                "expected %d component probabilities, got %d"
                % (self.num_components, len(probabilities))
            )
        count_pmf = [lethal_distribution.pmf(k) for k in range(self.max_defects + 1)]
        overflow = max(0.0, 1.0 - plain_sum(count_pmf))
        distributions: Dict[str, Dict[int, float]] = {
            self.count_variable.name: dict(enumerate(count_pmf))
        }
        distributions[self.count_variable.name][self.max_defects + 1] = overflow

        location_distribution = {
            index + 1: probabilities[index] for index in range(self.num_components)
        }
        for variable in self.location_variables:
            distributions[variable.name] = dict(location_distribution)

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ReliabilityFaultTree(C=%d, M=%d, field_vars=%d)" % (
            self.num_components,
            self.max_defects,
            len(self.field_variables),
        )
