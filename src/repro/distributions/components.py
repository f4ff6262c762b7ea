"""Per-component defect probabilities and the lethal-defect component model.

The designer-facing model of the paper assigns to every component ``i`` a
probability ``P_i`` that a given manufacturing defect lands on component
``i`` *and* is lethal; ``P_L = sum_i P_i <= 1`` is the probability that a
given defect is lethal at all.  The computational model works with the
conditional probabilities ``P'_i = P_i / P_L`` of a *lethal* defect hitting
component ``i``; those sum to one.

:class:`ComponentDefectModel` bundles the component names, the raw ``P_i``
values and the derived lethal model, and is the object the yield method and
the benchmark generators exchange.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

from .base import DistributionError


class ComponentDefectModel:
    """Named components with their per-defect lethal-hit probabilities.

    Parameters
    ----------
    probabilities:
        Mapping from component name to ``P_i``.  Values must be positive and
        sum to at most 1.  Iteration order of the mapping fixes the component
        indexing used throughout the library (component indices are
        1-based in the paper; here they are the 0-based positions in
        :attr:`names`).
    """

    def __init__(self, probabilities: Mapping[str, float]) -> None:
        if not probabilities:
            raise DistributionError("at least one component is required")
        names: List[str] = []
        values: List[float] = []
        for name, value in probabilities.items():
            value = float(value)
            if value <= 0.0 or math.isnan(value) or math.isinf(value):
                raise DistributionError(
                    "P_i for component %r must be positive finite, got %r" % (name, value)
                )
            names.append(str(name))
            values.append(value)
        if len(set(names)) != len(names):
            raise DistributionError("component names must be unique")
        total = math.fsum(values)
        if total > 1.0 + 1e-9:
            raise DistributionError(
                "component probabilities sum to %g > 1; they are per-defect "
                "lethal-hit probabilities, not per-component failure probabilities"
                % total
            )
        self._names: Tuple[str, ...] = tuple(names)
        self._name_set: FrozenSet[str] = frozenset(names)
        self._raw: Tuple[float, ...] = tuple(values)
        self._lethality = total
        self._lethal: Tuple[float, ...] = tuple(v / total for v in values)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_relative_weights(
        cls, weights: Mapping[str, float], lethality: float
    ) -> "ComponentDefectModel":
        """Build a model from relative component weights and a target ``P_L``.

        This matches how the paper's benchmarks are specified: ratios between
        component classes (e.g. ``P_IPS / P_IPM = 1``) plus the constraint
        ``sum_i P_i = P_L``.
        """
        if not 0.0 < lethality <= 1.0:
            raise DistributionError("lethality P_L must be in (0, 1], got %r" % (lethality,))
        total = math.fsum(float(w) for w in weights.values())
        if total <= 0.0:
            raise DistributionError("weights must have a positive sum")
        return cls({name: lethality * float(w) / total for name, w in weights.items()})

    @classmethod
    def uniform(cls, names: Iterable[str], lethality: float = 1.0) -> "ComponentDefectModel":
        """Build a model in which every component is equally likely to be hit."""
        names = list(names)
        return cls.from_relative_weights({name: 1.0 for name in names}, lethality)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def names(self) -> Tuple[str, ...]:
        """Component names in index order."""
        return self._names

    @property
    def name_set(self) -> FrozenSet[str]:
        """The component names as a set, for constant-time membership tests."""
        return self._name_set

    @property
    def count(self) -> int:
        """Number of components ``C``."""
        return len(self._names)

    @property
    def lethality(self) -> float:
        """The per-defect lethality probability ``P_L = sum_i P_i``."""
        return self._lethality

    def raw_probability(self, name: str) -> float:
        """Return ``P_i`` (per-defect lethal-hit probability) for ``name``."""
        return self._raw[self.index_of(name)]

    def lethal_probability(self, name: str) -> float:
        """Return ``P'_i = P_i / P_L`` (per-lethal-defect hit probability)."""
        return self._lethal[self.index_of(name)]

    def lethal_probabilities(self) -> Tuple[float, ...]:
        """Return the vector of ``P'_i`` values in index order (sums to 1)."""
        return self._lethal

    def raw_probabilities(self) -> Tuple[float, ...]:
        """Return the vector of ``P_i`` values in index order."""
        return self._raw

    def index_of(self, name: str) -> int:
        """Return the 0-based index of component ``name``."""
        try:
            return self._names.index(name)
        except ValueError:
            raise KeyError("unknown component %r" % (name,)) from None

    def as_dict(self) -> Dict[str, float]:
        """Return ``{name: P_i}`` in index order."""
        return dict(zip(self._names, self._raw))

    def scaled(self, factor: float) -> "ComponentDefectModel":
        """Return a copy with every ``P_i`` multiplied by ``factor``.

        Useful for sensitivity sweeps over the overall lethality while keeping
        the relative component weights fixed.
        """
        if factor <= 0.0:
            raise DistributionError("factor must be positive, got %r" % (factor,))
        return ComponentDefectModel({n: p * factor for n, p in zip(self._names, self._raw)})

    def __len__(self) -> int:
        return len(self._names)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ComponentDefectModel(C=%d, P_L=%g)" % (self.count, self._lethality)


def split_weights_by_class(
    class_weights: Mapping[str, float], members: Mapping[str, Sequence[str]]
) -> Dict[str, float]:
    """Expand per-class weights into per-component weights.

    ``class_weights`` maps a class name (e.g. ``"IPM"``) to the weight of a
    *single* component of that class; ``members`` maps the class name to the
    component names of that class.  Returns a flat ``{component: weight}``
    dictionary preserving the order classes are given in.
    """
    out: Dict[str, float] = {}
    for cls_name, names in members.items():
        if cls_name not in class_weights:
            raise DistributionError("missing weight for component class %r" % (cls_name,))
        weight = float(class_weights[cls_name])
        if weight <= 0.0:
            raise DistributionError(
                "weight for class %r must be positive, got %r" % (cls_name, weight)
            )
        for name in names:
            if name in out:
                raise DistributionError("component %r listed in more than one class" % (name,))
            out[name] = weight
    return out
