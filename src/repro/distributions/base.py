"""Abstract interfaces for defect-count distributions.

The yield model of the paper is parameterized by the distribution ``Q_k`` of
the number of manufacturing defects on the die and by the per-defect
component probabilities ``P_i`` (probability that a given defect lands on
component ``i`` *and* is lethal).  All the combinatorial machinery only ever
consumes the *lethal*-defect distribution ``Q'_k`` obtained by thinning
``Q_k`` with the lethality probability ``P_L = sum_i P_i`` (eq. (1) of the
paper), so every distribution class exposes :meth:`DefectCountDistribution.thinned`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import List, Sequence


class DistributionError(ValueError):
    """Raised when a distribution is constructed from invalid parameters."""


class DefectCountDistribution(ABC):
    """Distribution of the number of manufacturing defects on a die.

    Subclasses implement :meth:`pmf` and :meth:`thinned`; everything else is
    derived.  Probabilities are plain Python floats: the magnitudes involved
    (tail masses down to ~1e-12) are far inside double precision.
    """

    @abstractmethod
    def pmf(self, k: int) -> float:
        """Return ``P(number of defects == k)``."""

    @abstractmethod
    def thinned(self, retain_probability: float) -> "DefectCountDistribution":
        """Return the distribution of defects retained after thinning.

        Each defect is independently retained (is lethal) with probability
        ``retain_probability``.  For compound-Poisson families the thinned
        distribution stays in the family; the generic fallback is
        :class:`repro.distributions.empirical.EmpiricalDefectDistribution`
        built from eq. (1) of the paper.
        """

    @abstractmethod
    def mean(self) -> float:
        """Return the expected number of defects."""

    # ------------------------------------------------------------------ #
    # Derived helpers
    # ------------------------------------------------------------------ #

    def cdf(self, k: int) -> float:
        """Return ``P(number of defects <= k)``."""
        if k < 0:
            return 0.0
        return min(1.0, math.fsum(self.pmf(j) for j in range(k + 1)))

    def tail(self, k: int) -> float:
        """Return ``P(number of defects > k)``, the truncation error bound."""
        return max(0.0, 1.0 - self.cdf(k))

    def pmf_vector(self, max_k: int) -> List[float]:
        """Return ``[pmf(0), ..., pmf(max_k)]``.

        This is where a sweep point's pmf is computed: once per point, for
        its result key, count column and error bound alike (see
        :meth:`repro.core.problem.YieldProblem.lethal_counts`).  Overrides
        must return the floats :meth:`pmf` returns, bit for bit.
        """
        if max_k < 0:
            raise DistributionError("max_k must be non-negative, got %d" % max_k)
        return [self.pmf(k) for k in range(max_k + 1)]

    def truncation_level(self, epsilon: float, max_level: int = 10_000) -> int:
        """Return the smallest ``M`` with ``1 - sum_{k<=M} pmf(k) <= epsilon``.

        This is the truncation rule of Section 2 of the paper: analyzing only
        up to ``M`` defects yields a pessimistic estimate of the yield whose
        absolute error is bounded by the tail mass beyond ``M``.

        Raises
        ------
        DistributionError
            If the requested accuracy cannot be reached within ``max_level``
            terms (e.g. for an extremely heavy-tailed distribution).
        """
        if not 0.0 < epsilon < 1.0:
            raise DistributionError("epsilon must be in (0, 1), got %r" % (epsilon,))
        acc = 0.0
        for m in range(max_level + 1):
            acc += self.pmf(m)
            if 1.0 - acc <= epsilon:
                return m
        raise DistributionError(
            "could not reach tail mass <= %g within %d terms" % (epsilon, max_level)
        )

    def sample(self, rng, size: int = 1) -> List[int]:
        """Draw ``size`` samples using ``rng`` (a :class:`random.Random`).

        The generic implementation inverts the CDF term by term, which is
        adequate for the moderate means used in yield analysis.
        """
        out = []
        for _ in range(size):
            u = rng.random()
            acc = 0.0
            k = 0
            while True:
                acc += self.pmf(k)
                if u <= acc or acc >= 1.0 - 1e-15:
                    out.append(k)
                    break
                k += 1
                if k > 1_000_000:  # pragma: no cover - safety net
                    out.append(k)
                    break
        return out


def validate_probability_vector(values: Sequence[float], *, name: str = "probabilities") -> List[float]:
    """Validate that ``values`` are non-negative and sum to at most 1 + tolerance.

    Returns the values as a list of floats.  Used by the component-probability
    handling and the empirical distribution.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise DistributionError("%s must be non-empty" % name)
    for v in vals:
        if v < 0.0 or math.isnan(v):
            raise DistributionError("%s must be non-negative, got %r" % (name, v))
    total = math.fsum(vals)
    if total > 1.0 + 1e-9:
        raise DistributionError("%s sum to %g > 1" % (name, total))
    return vals
