"""Result floats do not depend on the interpreter's builtin ``sum``.

Python 3.12 made ``sum`` of floats compensated (Neumaier summation), so a
result that summed floats with it would change its last bits with the
interpreter.  Every float sum a result depends on goes through
:func:`repro.distributions.plain_sum`, a plain left-to-right sum.  These
tests replace ``builtins.sum`` with an emulation of the compensated sum and
expect the pinned golden sweep and gradient digests.
"""

import builtins
import math

import pytest

from repro.distributions import plain_sum
from repro.engine.service import SweepService
from repro.soc import benchmark_problem
from tests.engine.test_golden import (
    GOLDEN,
    GRADIENT_DENSITY,
    SWEEP_DIGESTS,
    results_digest,
    sensitivity_digest,
    sweep_points,
)

BUILTIN_SUM = builtins.sum


def compensated_sum(iterable, /, start=0):
    """``sum`` as Python 3.12 computes it for ints and floats.

    Float terms are added with Neumaier's compensation and the compensation
    is added once at the end, when it is finite and non-zero.  Any other
    operand falls back to the interpreter's own ``sum``.
    """
    items = list(iterable)
    numbers = (int, bool, float)
    if type(start) not in numbers or not all(type(item) in numbers for item in items):
        return BUILTIN_SUM(items, start)
    if not any(type(item) is float for item in items) and type(start) is not float:
        return BUILTIN_SUM(items, start)
    total, compensation = float(start), 0.0
    for item in items:
        value = float(item)
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_emulation_compensates_and_plain_sum_does_not():
    values = [1.0, 1e100, 1.0, -1e100]
    assert compensated_sum(values) == 2.0
    assert plain_sum(values) == 0.0
    assert compensated_sum(range(5)) == 10
    assert plain_sum([]) == 0.0


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests_under_a_compensated_builtin_sum(name, monkeypatch):
    truncation = GOLDEN[name]["truncation"]
    points = sweep_points(name, truncation)
    # the replacement moves the saturated count entry of some points, so a
    # builtin sum on the result path would change the digest
    heads = [point.problem.lethal_counts(truncation)[:-1] for point in points]
    assert any(compensated_sum(head) != plain_sum(head) for head in heads)

    monkeypatch.setattr(builtins, "sum", compensated_sum)
    service = SweepService()
    results = service.evaluate_batch(points)
    gradients = service.gradients(
        benchmark_problem(name, mean_defects=GRADIENT_DENSITY), max_defects=truncation
    )
    assert (results_digest(results), sensitivity_digest(gradients)) == SWEEP_DIGESTS[name]
