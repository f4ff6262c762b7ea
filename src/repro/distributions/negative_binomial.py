"""Negative-binomial defect-count distribution.

The negative binomial is the standard model for the number of manufacturing
defects on a die because it captures *clustering*: defects are not spread
uniformly over wafers, they arrive in bursts.  The paper (eq. (2)) writes it
as

    Q_k = Gamma(alpha + k) / (k! Gamma(alpha))
          * (lambda/alpha)^k / (1 + lambda/alpha)^(alpha + k)

where ``lambda`` is the expected number of defects and ``alpha`` is the
clustering parameter (clustering increases as ``alpha`` decreases; the
Poisson distribution is the ``alpha -> inf`` limit).

A key property (Koren, Koren & Stapper 1993, cited by the paper) is that the
lethal-defect count obtained by thinning a negative binomial with lethality
probability ``P_L`` is again negative binomial with the *same* clustering
parameter and mean ``lambda' = lambda * P_L``.
"""

from __future__ import annotations

import math
from typing import List

from .base import DefectCountDistribution, DistributionError


class NegativeBinomialDefectDistribution(DefectCountDistribution):
    """Negative-binomial distribution of the number of defects.

    Parameters
    ----------
    mean:
        Expected number of defects ``lambda`` (> 0).
    clustering:
        Clustering parameter ``alpha`` (> 0).  Small values mean strong
        clustering; ``alpha -> inf`` recovers the Poisson distribution.
    """

    def __init__(self, mean: float, clustering: float) -> None:
        if mean <= 0.0 or math.isnan(mean) or math.isinf(mean):
            raise DistributionError("mean must be a positive finite number, got %r" % (mean,))
        if clustering <= 0.0 or math.isnan(clustering) or math.isinf(clustering):
            raise DistributionError(
                "clustering must be a positive finite number, got %r" % (clustering,)
            )
        self._mean = float(mean)
        self._alpha = float(clustering)

    # ------------------------------------------------------------------ #
    @property
    def clustering(self) -> float:
        """The clustering parameter ``alpha``."""
        return self._alpha

    def mean(self) -> float:
        return self._mean

    def variance(self) -> float:
        """Return the variance ``lambda * (1 + lambda / alpha)``."""
        return self._mean * (1.0 + self._mean / self._alpha)

    def pmf(self, k: int) -> float:
        if k < 0:
            return 0.0
        lam, alpha = self._mean, self._alpha
        # log Q_k = log Gamma(alpha+k) - log k! - log Gamma(alpha)
        #           + k log(lam/alpha) - (alpha+k) log(1 + lam/alpha)
        log_q = (
            math.lgamma(alpha + k)
            - math.lgamma(k + 1)
            - math.lgamma(alpha)
            + k * math.log(lam / alpha)
            - (alpha + k) * math.log1p(lam / alpha)
        )
        return math.exp(log_q)

    def pmf_vector(self, max_k: int) -> List[float]:
        """Return ``[pmf(0), ..., pmf(max_k)]``, each entry bit for bit ``pmf(k)``.

        The terms that do not depend on ``k`` (``lgamma(alpha)``,
        ``log(lam/alpha)``, ``log1p(lam/alpha)``) are computed once; every
        entry keeps :meth:`pmf`'s scalar expression in its left-to-right
        order, so the floats are the same.  A recurrence or numpy's
        ``exp``/``log`` would round differently.
        """
        if max_k < 0:
            raise DistributionError("max_k must be non-negative, got %d" % max_k)
        lam, alpha = self._mean, self._alpha
        lgamma, exp = math.lgamma, math.exp
        log_gamma_alpha = lgamma(alpha)
        log_ratio = math.log(lam / alpha)
        log1p_ratio = math.log1p(lam / alpha)
        return [
            exp(
                lgamma(alpha + k)
                - lgamma(k + 1)
                - log_gamma_alpha
                + k * log_ratio
                - (alpha + k) * log1p_ratio
            )
            for k in range(max_k + 1)
        ]

    def thinned(self, retain_probability: float) -> "NegativeBinomialDefectDistribution":
        if not 0.0 < retain_probability <= 1.0:
            raise DistributionError(
                "retain_probability must be in (0, 1], got %r" % (retain_probability,)
            )
        return NegativeBinomialDefectDistribution(
            mean=self._mean * retain_probability, clustering=self._alpha
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NegativeBinomialDefectDistribution(mean=%g, clustering=%g)" % (
            self._mean,
            self._alpha,
        )
