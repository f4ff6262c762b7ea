"""Problem definition: a fault-tolerant SoC plus its defect model.

A :class:`YieldProblem` is the single object the yield method consumes: the
gate-level fault tree ``F(x_1 .. x_C)`` of the system, the per-component
defect probabilities ``P_i`` and the distribution ``Q_k`` of the number of
manufacturing defects.  It also owns the mapping to the computationally
convenient lethal-defect model ``(Q'_k, P'_i)`` described in Section 1 of
the paper.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from ..distributions import ComponentDefectModel, DefectCountDistribution
from ..faulttree.circuit import Circuit
from ..faulttree.ops import CircuitError


class ProblemError(ValueError):
    """Raised when a yield problem is inconsistent."""


def _check_pair(fault_tree: Circuit, components: ComponentDefectModel) -> None:
    """Check that the fault tree has one output and only known inputs."""
    try:
        fault_tree.primary_output
    except CircuitError as exc:
        raise ProblemError("fault tree must have exactly one output: %s" % exc) from exc
    known = components.name_set
    unknown = [name for name in fault_tree.input_names if name not in known]
    if unknown:
        raise ProblemError(
            "fault tree inputs missing from the component model: %s"
            % ", ".join(sorted(unknown))
        )


class YieldProblem:
    """A fault-tolerant system-on-chip yield evaluation problem.

    Parameters
    ----------
    fault_tree:
        Gate-level circuit of the structure function ``F``; its single output
        must be 1 exactly when the system is *not* functioning, and its
        inputs must be named after components of ``components``.
    components:
        The component defect model (names and ``P_i`` probabilities).  It may
        contain components that do not appear in the fault tree (defects on
        them are lethal to the component but never fail the system).
    defect_distribution:
        Distribution of the number of manufacturing defects (``Q_k``).
    name:
        Optional label used in reports.
    """

    def __init__(
        self,
        fault_tree: Circuit,
        components: ComponentDefectModel,
        defect_distribution: DefectCountDistribution,
        *,
        name: Optional[str] = None,
    ) -> None:
        _check_pair(fault_tree, components)
        self.fault_tree = fault_tree
        self.components = components
        self.defect_distribution = defect_distribution
        self.name = name or fault_tree.name

    def with_defects(self, defect_distribution: DefectCountDistribution) -> "YieldProblem":
        """Return this problem with ``defect_distribution`` as its ``Q_k``.

        The copy shares the fault tree, the component model and the name.
        A frozen fault tree was checked against the component model when
        this problem was made and cannot have changed since, so the copy
        skips the single-output and input-name checks; a mutable one is
        checked again.  The :mod:`repro.soc` generators make every point
        this way, from one template per parameter set.
        """
        if not self.fault_tree.frozen:
            _check_pair(self.fault_tree, self.components)
        problem = object.__new__(type(self))
        problem.fault_tree = self.fault_tree
        problem.components = self.components
        problem.defect_distribution = defect_distribution
        problem.name = self.name
        return problem

    # ------------------------------------------------------------------ #
    # Lethal-defect model
    # ------------------------------------------------------------------ #

    @property
    def lethality(self) -> float:
        """The per-defect lethality probability ``P_L``."""
        return self.components.lethality

    def lethal_defect_distribution(self) -> DefectCountDistribution:
        """Return ``Q'_k``, the distribution of the number of *lethal* defects."""
        return self.defect_distribution.thinned(self.lethality)

    def lethal_counts(self, truncation: int) -> Tuple[float, ...]:
        """Return the lethal count vector ``(Q'_0 .. Q'_M, tail)`` at ``M = truncation``.

        One pmf evaluation (:meth:`DefectCountDistribution.pmf_vector`).
        The tail ``max(0, 1 - min(1, fsum(Q')))`` is bit for bit
        ``Q'.tail(M)``, the truncation error bound.  The sweep service keys
        a result on this vector, and every evaluation route assembles the
        point's count column and error bound from it.
        """
        pmf = self.lethal_defect_distribution().pmf_vector(int(truncation))
        pmf.append(max(0.0, 1.0 - min(1.0, math.fsum(pmf))))
        return tuple(pmf)

    def lethal_component_probabilities(self) -> Tuple[float, ...]:
        """Return the ``P'_i`` vector (conditional hit probabilities, sums to 1)."""
        return self.components.lethal_probabilities()

    @property
    def component_names(self) -> Tuple[str, ...]:
        """Component names in model (index) order."""
        return self.components.names

    @property
    def num_components(self) -> int:
        """The number of components ``C``."""
        return self.components.count

    # ------------------------------------------------------------------ #
    # Structure-function evaluation helpers
    # ------------------------------------------------------------------ #

    def system_fails(self, failed_components: Sequence[str]) -> bool:
        """Evaluate the structure function for a set of failed components."""
        failed = set(failed_components)
        unknown = failed.difference(self.components.names)
        if unknown:
            raise ProblemError("unknown components: %s" % ", ".join(sorted(unknown)))
        assignment = {name: (name in failed) for name in self.fault_tree.input_names}
        return self.fault_tree.evaluate_output(assignment, "F")

    def truncation_level(self, epsilon: float) -> int:
        """Return the smallest ``M`` meeting the absolute error budget ``epsilon``."""
        return self.lethal_defect_distribution().truncation_level(epsilon)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "YieldProblem(%r, C=%d, gates=%d)" % (
            self.name,
            self.num_components,
            self.fault_tree.num_gates,
        )
