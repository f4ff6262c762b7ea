"""Defect-count distributions, component defect models and the lethal mapping.

This subpackage provides the probabilistic substrate of the yield method:

* :class:`~repro.distributions.negative_binomial.NegativeBinomialDefectDistribution`
  — the clustered defect model used throughout the paper's evaluation;
* :class:`~repro.distributions.poisson.PoissonDefectDistribution` — the
  no-clustering classical model;
* :class:`~repro.distributions.compound_poisson.CompoundPoissonDefectDistribution`
  — finite mixed-Poisson models;
* :class:`~repro.distributions.empirical.EmpiricalDefectDistribution` and
  :func:`~repro.distributions.empirical.binomial_thinning` — arbitrary
  foundry-supplied histograms and eq. (1) of the paper;
* :class:`~repro.distributions.components.ComponentDefectModel` — the
  per-component probabilities ``P_i`` / ``P'_i``.
"""

from .base import (
    DefectCountDistribution,
    DistributionError,
    validate_probability_vector,
)
from .components import ComponentDefectModel, split_weights_by_class
from .compound_poisson import CompoundPoissonDefectDistribution
from .empirical import EmpiricalDefectDistribution, binomial_thinning
from .negative_binomial import NegativeBinomialDefectDistribution
from .poisson import PoissonDefectDistribution

__all__ = [
    "DefectCountDistribution",
    "DistributionError",
    "validate_probability_vector",
    "ComponentDefectModel",
    "split_weights_by_class",
    "CompoundPoissonDefectDistribution",
    "EmpiricalDefectDistribution",
    "binomial_thinning",
    "NegativeBinomialDefectDistribution",
    "PoissonDefectDistribution",
]
