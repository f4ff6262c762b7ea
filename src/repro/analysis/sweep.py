"""Parameter sweeps around the combinatorial method.

These helpers back the ablation benchmarks: the truncation sweep shows the
pessimistic estimate converging to the yield as ``M`` grows (with the exact
error bound alongside), and the defect-density sweep shows how the yield
degrades with the expected number of lethal defects.

Both routes go through the engine's :class:`repro.engine.service.SweepService`
so that points sharing a diagram structure (same fault tree, truncation and
ordering) are served by a single build and one kernel pass; pass your own
service instance to share its compiled structures across calls or to
enable build threads and the structure store.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..core.problem import YieldProblem
from ..engine.service import SweepService
from ..ordering.strategies import OrderingSpec


def truncation_sweep(
    problem: YieldProblem,
    max_defects_values: Sequence[int],
    *,
    ordering: Optional[OrderingSpec] = None,
    service: Optional[SweepService] = None,
    workers: int = 0,
) -> List[Tuple[int, float, float]]:
    """Return ``(M, yield_estimate, error_bound)`` for every requested ``M``.

    The yield estimates are non-decreasing in ``M`` and the error bounds are
    non-increasing; both facts are asserted by the test-suite.  ``workers``
    builds the independent truncation levels' structures on that many
    threads (ignored when an explicit ``service`` is supplied).
    """
    if service is None:
        service = SweepService(
            ordering=ordering or OrderingSpec("w", "ml"), workers=workers
        )
    return service.truncation_sweep(problem, max_defects_values)


def defect_density_sweep(
    problem_factory: Callable[[float], YieldProblem],
    mean_defect_values: Sequence[float],
    *,
    epsilon: Optional[float] = None,
    ordering: Optional[OrderingSpec] = None,
    service: Optional[SweepService] = None,
    workers: int = 0,
) -> List[Tuple[float, float, int]]:
    """Return ``(mean_defects, yield_estimate, M)`` over a defect-density sweep.

    ``problem_factory`` maps the expected number of manufacturing defects to a
    :class:`YieldProblem` (e.g. ``lambda mean: ms_problem(2, mean_defects=mean)``).
    Every density that resolves to the same truncation level reuses one
    diagram build, and all of a build's defect models are evaluated in one
    batched bottom-up pass.  ``epsilon`` defaults to the service's configured
    budget (1e-4 for a fresh service); passing it explicitly overrides per
    point.  ``workers`` is the number of build threads of the service
    (ignored when an explicit ``service`` is supplied).
    """
    if service is None:
        service = SweepService(
            ordering=ordering or OrderingSpec("w", "ml"),
            epsilon=1e-4 if epsilon is None else epsilon,
            workers=workers,
        )
    return service.density_sweep(
        problem_factory, mean_defect_values, epsilon=epsilon
    )
