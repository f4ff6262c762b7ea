"""repro — combinatorial yield evaluation of fault-tolerant systems-on-chip.

A from-scratch reproduction of

    D. P. Munteanu, V. Sune, R. Rodriguez-Montanes, J. A. Carrasco,
    "A Combinatorial Method for the Evaluation of Yield of Fault-Tolerant
    Systems-on-Chip", DSN 2003.

Typical use::

    from repro import evaluate_yield
    from repro.soc import ms_problem

    problem = ms_problem(2, mean_defects=2.0)     # lambda' = 1 lethal defect
    result = evaluate_yield(problem, epsilon=1e-4)
    print(result.summary())

The public surface is re-exported here; the subpackages are:

* :mod:`repro.distributions` — defect-count models and the lethal mapping;
* :mod:`repro.faulttree` — gate-level circuits and multiple-valued variables;
* :mod:`repro.bdd` — the ROBDD engine;
* :mod:`repro.mdd` — the ROMDD engine, conversion and probability traversal;
* :mod:`repro.engine` — the shared DD kernel (GC, bounded caches), the
  batch sweep service and the structure store;
* :mod:`repro.ordering` — variable-ordering heuristics;
* :mod:`repro.core` — the yield method, Monte-Carlo and exact baselines;
* :mod:`repro.soc` — the MSn and ESEN benchmark generators;
* :mod:`repro.analysis` — table regeneration and reporting helpers.
"""

from .core import (
    CompiledYield,
    ExactResult,
    GeneralizedFaultTree,
    MonteCarloResult,
    MonteCarloYieldEstimator,
    StageTimings,
    YieldAnalyzer,
    YieldProblem,
    YieldResult,
    estimate_yield_montecarlo,
    evaluate_yield,
    exact_yield,
)
from .engine import SweepPoint, SweepService
from .distributions import (
    ComponentDefectModel,
    CompoundPoissonDefectDistribution,
    EmpiricalDefectDistribution,
    NegativeBinomialDefectDistribution,
    PoissonDefectDistribution,
)
from .faulttree import FaultTreeBuilder
from .ordering import OrderingSpec

__version__ = "1.0.0"

__all__ = [
    "YieldAnalyzer",
    "CompiledYield",
    "SweepService",
    "SweepPoint",
    "YieldProblem",
    "YieldResult",
    "StageTimings",
    "GeneralizedFaultTree",
    "evaluate_yield",
    "MonteCarloYieldEstimator",
    "MonteCarloResult",
    "estimate_yield_montecarlo",
    "exact_yield",
    "ExactResult",
    "ComponentDefectModel",
    "NegativeBinomialDefectDistribution",
    "PoissonDefectDistribution",
    "CompoundPoissonDefectDistribution",
    "EmpiricalDefectDistribution",
    "FaultTreeBuilder",
    "OrderingSpec",
    "__version__",
]
