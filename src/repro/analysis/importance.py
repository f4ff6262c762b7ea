"""Component importance measures for yield-driven design decisions.

The paper computes a single number (the yield); a designer deciding *where*
to add fault tolerance needs to know which components limit that number.
This module provides two complementary measures, both defined directly on
the paper's defect model:

* **hardening potential** — the yield gained if a component were made
  (practically) immune to defects, e.g. by layout hardening or by moving it
  to a more mature process corner.  Making component ``i`` immune removes
  its contribution from the lethality ``P_L``, so both the number of lethal
  defects and their location distribution change consistently.  This is a
  large, non-linear perturbation of the defect model, so it is computed by
  re-evaluating perturbed problems — but through the engine's
  :class:`~repro.engine.service.SweepService`, which evaluates all perturbed
  models of a structure group in **one** batched linearized pass (and can
  fan groups out over workers) instead of one full sweep per component.
* **yield sensitivity** — the derivative of the yield with respect to a
  relative change of a component's defect probability ``P_i``, useful for
  area/yield trade-off studies where a component's footprint grows or
  shrinks by a few percent.  Since the analytic importance engine landed,
  the default route is **reverse-mode differentiation**: one forward plus
  one adjoint pass over the linearized ROMDD
  (:meth:`repro.core.method.CompiledYield.gradients_many`) yields the exact
  ``dY_M/dP_i`` for *all* components at once.  The legacy central
  finite-difference route survives as ``method="fd"`` — itself batched
  through the sweep service — because it is the oracle the analytic path is
  differentially tested against.

Both measures are exact up to the truncation error of the underlying method
(no sampling), and both rank components, which is what the designer acts on.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.problem import YieldProblem
from ..distributions import ComponentDefectModel
from ..engine.service import SweepService
from ..ordering.strategies import OrderingSpec

#: Residual relative weight used for an "immune" component (cannot be exactly
#: zero because the component model requires positive probabilities).
_IMMUNE_FACTOR = 1e-9


def _validated_epsilon(epsilon: float) -> float:
    """Reject error budgets outside (0, 1) before they turn into bad sweeps.

    ``epsilon`` drives the truncation level ``M``; a non-positive, NaN or
    >= 1 budget either crashes deep inside the truncation search or silently
    selects ``M = 0`` (a yield estimate of the overflow mass alone), so it
    is validated up front.
    """
    epsilon = float(epsilon)
    if not 0.0 < epsilon < 1.0:  # also catches NaN
        raise ValueError(
            "epsilon must be in (0, 1), got %r" % (epsilon,)
        )
    return epsilon


def _perturbed_problem(problem: YieldProblem, scale: Dict[str, float]) -> YieldProblem:
    """Return a copy of ``problem`` with selected ``P_i`` values rescaled.

    Raises
    ------
    KeyError
        If a scaled component does not exist.
    ValueError
        If a rescaled probability is no longer positive and finite — e.g. a
        perturbation factor that underflows a tiny ``P_i`` to zero.  Catching
        this here (instead of letting the perturbed model propagate) keeps
        finite-difference importance measures from dividing garbage.
    """
    probabilities = problem.components.as_dict()
    for name, factor in scale.items():
        if name not in probabilities:
            raise KeyError("unknown component %r" % (name,))
        scaled = probabilities[name] * factor
        if not scaled > 0.0 or math.isinf(scaled):
            raise ValueError(
                "perturbing component %r (P_i = %g) by factor %g yields the "
                "invalid probability %r; use a larger perturbation step or a "
                "larger component probability"
                % (name, probabilities[name], factor, scaled)
            )
        probabilities[name] = scaled
    return YieldProblem(
        problem.fault_tree,
        ComponentDefectModel(probabilities),
        problem.defect_distribution,
        name=problem.name,
    )


def _service_for(
    service: Optional[SweepService],
    ordering: Optional[OrderingSpec],
    epsilon: float,
    workers: int,
) -> Tuple[SweepService, bool]:
    """Return ``(service, owned)`` — an ephemeral service when none is given."""
    if service is not None:
        return service, False
    return SweepService(ordering=ordering, epsilon=epsilon, workers=workers), True


def _yields(
    service: SweepService,
    problems: Sequence[YieldProblem],
    max_defects: Optional[int],
    epsilon: float,
) -> List[float]:
    """``Y_M`` of every problem: one probability column per structure group."""
    truncations = service.resolve(problems, max_defects=max_defects, epsilon=epsilon)
    return service.sweep(problems, truncations).yields


def _batched_gains(
    problem: YieldProblem,
    labeled_scales: Sequence[Tuple[str, Dict[str, float]]],
    *,
    max_defects: Optional[int],
    epsilon: float,
    ordering: Optional[OrderingSpec],
    service: Optional[SweepService],
    workers: int,
) -> List[Tuple[str, float]]:
    """Yield gains of labeled perturbations over the baseline, batched.

    Evaluates the baseline plus one perturbed problem per ``(label, scale)``
    pair through the sweep service — all models of a structure group in one
    linearized pass, optionally fanned out over ``workers`` processes — and
    returns ``[(label, gain), ...]`` sorted by decreasing gain.
    """
    perturbed = [
        _perturbed_problem(problem, scale) for _, scale in labeled_scales
    ]
    service, owned = _service_for(service, ordering, epsilon, workers)
    try:
        yields = _yields(service, [problem] + perturbed, max_defects, epsilon)
    finally:
        if owned:
            service.close()
    baseline = yields[0]
    ranking = [
        (label, estimate - baseline)
        for (label, _), estimate in zip(labeled_scales, yields[1:])
    ]
    ranking.sort(key=lambda item: item[1], reverse=True)
    return ranking


def hardening_potential(
    problem: YieldProblem,
    *,
    components: Optional[Sequence[str]] = None,
    max_defects: Optional[int] = None,
    epsilon: float = 1e-4,
    ordering: Optional[OrderingSpec] = None,
    service: Optional[SweepService] = None,
    workers: int = 0,
) -> List[Tuple[str, float]]:
    """Rank components by the yield gained if they were immune to defects.

    Returns ``[(component, yield_gain), ...]`` sorted by decreasing gain.
    Components outside the fault tree's support always have zero structural
    effect on the system, but hardening them still reduces the overall
    lethality, so they can carry a small positive gain.

    Immunity is a non-linear perturbation (it removes the component's mass
    from the lethality ``P_L``), so this measure re-evaluates perturbed
    problems; the evaluation is batched through the sweep service — all
    perturbed defect models that share a structure run in one linearized
    pass, optionally fanned out over ``workers`` processes.
    """
    epsilon = _validated_epsilon(epsilon)
    names = list(components) if components is not None else list(problem.component_names)
    return _batched_gains(
        problem,
        [(name, {name: _IMMUNE_FACTOR}) for name in names],
        max_defects=max_defects,
        epsilon=epsilon,
        ordering=ordering,
        service=service,
        workers=workers,
    )


def yield_sensitivity(
    problem: YieldProblem,
    *,
    components: Optional[Sequence[str]] = None,
    relative_step: float = 0.05,
    max_defects: Optional[int] = None,
    epsilon: float = 1e-4,
    ordering: Optional[OrderingSpec] = None,
    method: str = "analytic",
    service: Optional[SweepService] = None,
    workers: int = 0,
) -> List[Tuple[str, float]]:
    """Sensitivity ``dY / d(relative change of P_i)`` for every component.

    A value of ``-0.02`` means that growing the component's defect
    probability by 10% costs about ``0.002`` of yield.  Returns
    ``[(component, sensitivity), ...]`` sorted by increasing (most negative
    first) sensitivity.

    ``method="analytic"`` (the default) computes the exact derivative
    ``P_i * dY_M/dP_i`` by one reverse-mode pass over the linearized ROMDD —
    all components at once, no perturbed re-evaluations and no step-size
    noise.  ``method="fd"`` keeps the legacy central finite difference
    ``(Y(P_i(1+h)) - Y(P_i(1-h))) / 2h`` with ``h = relative_step``; both
    its perturbed evaluations per component run through the sweep service's
    batched pass.  On the fd route ``relative_step`` must lie in (0, 1): a
    step of 1 or more drives ``P_i(1-h)`` to zero or below, and steps near
    the floating-point noise floor produce rankings made of rounding error
    (the analytic route never perturbs, so the step is ignored there).
    """
    epsilon = _validated_epsilon(epsilon)
    if method not in ("analytic", "fd"):
        raise ValueError("method must be 'analytic' or 'fd', got %r" % (method,))
    if method == "fd":
        relative_step = float(relative_step)
        if not 0.0 < relative_step < 1.0:  # also catches NaN
            raise ValueError(
                "relative_step must be in (0, 1), got %r — a step >= 1 drives "
                "P_i * (1 - step) to zero or below" % (relative_step,)
            )
    names = list(components) if components is not None else list(problem.component_names)
    service, owned = _service_for(service, ordering, epsilon, workers)
    try:
        if method == "analytic":
            gradients = service.gradients(
                problem, max_defects=max_defects, epsilon=epsilon
            )
            unknown = [name for name in names if name not in gradients.sensitivity]
            if unknown:
                raise KeyError("unknown component %r" % (unknown[0],))
            ranking = [(name, gradients.sensitivity[name]) for name in names]
        else:
            perturbed = [
                _perturbed_problem(problem, {name: factor})
                for name in names
                for factor in (1.0 + relative_step, 1.0 - relative_step)
            ]
            yields = _yields(service, perturbed, max_defects, epsilon)
            ranking = [
                (name, (yields[2 * index] - yields[2 * index + 1]) / (2.0 * relative_step))
                for index, name in enumerate(names)
            ]
    finally:
        if owned:
            service.close()
    ranking.sort(key=lambda item: item[1])
    return ranking


def class_hardening_potential(
    problem: YieldProblem,
    classes: Dict[str, Sequence[str]],
    *,
    max_defects: Optional[int] = None,
    epsilon: float = 1e-4,
    ordering: Optional[OrderingSpec] = None,
    service: Optional[SweepService] = None,
    workers: int = 0,
) -> List[Tuple[str, float]]:
    """Hardening potential of whole component classes (e.g. "all IPMs").

    ``classes`` maps a label to the component names it covers; the measure is
    the yield gained when the entire class is made immune at once, which is
    what a process or layout decision typically affects.  Like
    :func:`hardening_potential`, the perturbed problems are evaluated in
    batched linearized passes through the sweep service.
    """
    epsilon = _validated_epsilon(epsilon)
    return _batched_gains(
        problem,
        [
            (label, {name: _IMMUNE_FACTOR for name in classes[label]})
            for label in classes
        ],
        max_defects=max_defects,
        epsilon=epsilon,
        ordering=ordering,
        service=service,
        workers=workers,
    )
