"""Benchmark system-on-chip generators (Section 3 of the paper).

* :mod:`repro.soc.ms` — the MSn master/slave bus-based SoC (Fig. 4);
* :mod:`repro.soc.esen` — the ESEN n x m multistage-network SoC (Fig. 5);
* :data:`BENCHMARKS` / :func:`benchmark_problem` — a registry keyed by the
  names used in the paper's tables (``"MS2" .. "MS10"``,
  ``"ESEN4x1" .. "ESEN8x4"``).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List

from ..core.problem import YieldProblem
from .esen import (
    enumerate_paths,
    esen_architecture_summary,
    esen_component_classes,
    esen_component_model,
    esen_component_names,
    esen_fault_tree,
    esen_problem,
    num_stages,
    perfect_shuffle,
)
from .ms import (
    ms_architecture_summary,
    ms_component_classes,
    ms_component_model,
    ms_component_names,
    ms_fault_tree,
    ms_problem,
)

#: Benchmark factories keyed by the names used in the paper's tables.  Every
#: factory accepts the keyword arguments of the underlying ``*_problem``
#: function (``mean_defects``, ``clustering``, ``lethality``...).
BENCHMARKS: Dict[str, Callable[..., YieldProblem]] = {
    "MS2": partial(ms_problem, 2),
    "MS4": partial(ms_problem, 4),
    "MS6": partial(ms_problem, 6),
    "MS8": partial(ms_problem, 8),
    "MS10": partial(ms_problem, 10),
    "ESEN4x1": partial(esen_problem, 4, 1),
    "ESEN4x2": partial(esen_problem, 4, 2),
    "ESEN4x4": partial(esen_problem, 4, 4),
    "ESEN8x1": partial(esen_problem, 8, 1),
    "ESEN8x2": partial(esen_problem, 8, 2),
    "ESEN8x4": partial(esen_problem, 8, 4),
}

#: The benchmark names in the order of Table 1.
BENCHMARK_NAMES: List[str] = list(BENCHMARKS.keys())


def benchmark_problem(name: str, **kwargs) -> YieldProblem:
    """Instantiate one of the paper's benchmarks by name."""
    try:
        factory = BENCHMARKS[name]
    except KeyError:
        raise KeyError(
            "unknown benchmark %r (known: %s)" % (name, ", ".join(BENCHMARK_NAMES))
        ) from None
    return factory(**kwargs)


__all__ = [
    "BENCHMARKS",
    "BENCHMARK_NAMES",
    "benchmark_problem",
    "ms_problem",
    "ms_fault_tree",
    "ms_component_model",
    "ms_component_names",
    "ms_component_classes",
    "ms_architecture_summary",
    "esen_problem",
    "esen_fault_tree",
    "esen_component_model",
    "esen_component_names",
    "esen_component_classes",
    "esen_architecture_summary",
    "enumerate_paths",
    "perfect_shuffle",
    "num_stages",
]
