"""Reduced ordered multiple-valued decision diagrams (ROMDDs).

* :class:`~repro.mdd.manager.MDDManager` — hash-consed ROMDD engine with
  apply operations, evaluation and traversal;
* :func:`~repro.mdd.from_bdd.convert_bdd_to_mdd` — the paper's coded-ROBDD →
  ROMDD conversion (Fig. 3 procedure);
* :func:`~repro.mdd.direct.build_mdd_from_mvcircuit` — direct ROMDD
  construction (ablation / cross-validation path);
* :func:`~repro.mdd.probability.probability_of_one` /
  :func:`~repro.mdd.probability.probability_of_many` — the probability
  traversal that produces the yield, batched over defect models through the
  linearized arrays of :mod:`repro.engine.batch`.
"""

from .direct import DirectBuildStats, build_mdd_from_mvcircuit
from .dot import mdd_to_dot, write_mdd_dot
from .from_bdd import convert_bdd_to_mdd
from .manager import FALSE, TRUE, MDDError, MDDManager
from .probability import (
    LevelProfile,
    VariableDistributions,
    probability_of_many,
    probability_of_one,
    probability_of_one_reference,
)

__all__ = [
    "MDDManager",
    "MDDError",
    "FALSE",
    "TRUE",
    "convert_bdd_to_mdd",
    "build_mdd_from_mvcircuit",
    "DirectBuildStats",
    "probability_of_one",
    "probability_of_many",
    "probability_of_one_reference",
    "VariableDistributions",
    "LevelProfile",
    "mdd_to_dot",
    "write_mdd_dot",
]
