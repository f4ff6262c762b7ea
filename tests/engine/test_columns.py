"""One request shape: every sweep route evaluates columns, bit for bit.

The sweep service groups a request once per structure, runs one kernel
pass per group and hands back probability columns; only
:meth:`SweepService.evaluate_batch` packages ``YieldResult`` records from
them.  These tests pin that every columnar route — ``density_sweep``,
``truncation_sweep``, :meth:`SweepService.sweep`, hardening and
finite-difference importance — returns exactly the numbers
``evaluate_batch`` does, on the golden structures, a mixed-structure batch
and ``epsilon``-resolved truncations; that the service keys and caches as
:func:`result_key` defines; and how a cache hit is packaged.
"""

import pytest

from repro.analysis.importance import (
    _IMMUNE_FACTOR,
    _perturbed_problem,
    class_hardening_potential,
    hardening_potential,
    yield_sensitivity,
)
from repro.core.problem import YieldProblem
from repro.engine import service as service_module
from repro.engine.service import SweepPoint, SweepService, result_key
from repro.soc import benchmark_problem
from tests.engine.test_golden import GOLDEN

DENSITIES = [0.3 + 0.17 * i for i in range(24)]


def factory(name):
    return lambda mean: benchmark_problem(name, mean_defects=mean)


def batch_rows(points):
    """``(yield, error bound, M)`` of every point through ``evaluate_batch``."""
    return [
        (r.yield_estimate, r.error_bound, r.truncation)
        for r in SweepService().evaluate_batch(points)
    ]


def batch_yields(problems, truncation):
    return [y for y, _, _ in batch_rows([SweepPoint(p, max_defects=truncation) for p in problems])]


class TestColumnsMatchEvaluateBatch:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_density_sweep_on_the_golden_structures(self, name):
        truncation = GOLDEN[name]["truncation"]
        rows = SweepService().density_sweep(factory(name), DENSITIES, max_defects=truncation)
        expected = batch_rows(
            [SweepPoint(factory(name)(mean), max_defects=truncation) for mean in DENSITIES]
        )
        assert rows == [(mean, y, m) for mean, (y, _, m) in zip(DENSITIES, expected)]

    def test_truncation_sweep(self):
        problem = benchmark_problem("ESEN4x1", mean_defects=1.5)
        levels = [2, 3, 4, 5, 6]
        rows = SweepService().truncation_sweep(problem, levels)
        expected = batch_rows([SweepPoint(problem, max_defects=m) for m in levels])
        assert rows == [(m, y, bound) for y, bound, m in expected]

    def test_mixed_structure_batch(self):
        problems = [
            factory(name)(mean)
            for mean in DENSITIES[:8]
            for name in ("MS2", "ESEN4x1")
        ]
        truncations = [3 + index % 3 for index in range(len(problems))]
        service = SweepService()
        columns = service.sweep(problems, truncations)
        expected = batch_rows(
            [SweepPoint(p, max_defects=m) for p, m in zip(problems, truncations)]
        )
        assert list(zip(columns.yields, columns.error_bounds, columns.truncations)) == expected
        # two benchmarks at three levels: six structures, one pass each
        assert service.registry.counter("service.structures.built") == 6
        assert service.registry.counter("service.passes.batched") == 6

    def test_epsilon_resolved_truncations(self):
        densities = [0.2, 0.6, 1.0, 1.6, 2.4]
        service = SweepService()
        rows = service.density_sweep(factory("MS2"), densities, epsilon=1e-3)
        expected = batch_rows(
            [SweepPoint(factory("MS2")(mean), epsilon=1e-3) for mean in densities]
        )
        assert rows == [(mean, y, m) for mean, (y, _, m) in zip(densities, expected)]
        assert len({m for _, _, m in rows}) > 1

    def test_hardening_and_fd_importance(self):
        problem = benchmark_problem("MS2", mean_defects=2.0)
        names = list(problem.component_names)
        truncation = 4
        candidates = [problem] + [
            _perturbed_problem(problem, {name: _IMMUNE_FACTOR}) for name in names
        ]
        yields = batch_yields(candidates, truncation)
        gains = sorted(
            [(name, y - yields[0]) for name, y in zip(names, yields[1:])],
            key=lambda item: item[1],
            reverse=True,
        )
        assert hardening_potential(problem, max_defects=truncation) == gains

        classes = {"first": names[:2], "rest": names[2:]}
        immune = [
            _perturbed_problem(problem, {name: _IMMUNE_FACTOR for name in members})
            for members in classes.values()
        ]
        yields = batch_yields([problem] + immune, truncation)
        expected = sorted(
            [(label, y - yields[0]) for label, y in zip(classes, yields[1:])],
            key=lambda item: item[1],
            reverse=True,
        )
        assert class_hardening_potential(problem, classes, max_defects=truncation) == expected

        step = 0.05
        perturbed = [
            _perturbed_problem(problem, {name: factor})
            for name in names
            for factor in (1.0 + step, 1.0 - step)
        ]
        yields = batch_yields(perturbed, truncation)
        expected = sorted(
            [
                (name, (yields[2 * i] - yields[2 * i + 1]) / (2.0 * step))
                for i, name in enumerate(names)
            ],
            key=lambda item: item[1],
        )
        assert (
            yield_sensitivity(problem, method="fd", relative_step=step, max_defects=truncation)
            == expected
        )


class TestKeysAndGroups:
    def test_stored_keys_are_result_keys(self):
        service = SweepService()
        problems = [factory("ESEN4x1")(mean) for mean in DENSITIES]
        by_mean = dict(zip(DENSITIES, problems))
        service.density_sweep(by_mean.__getitem__, DENSITIES, max_defects=4)
        assert list(service._results) == [
            result_key(problem, 4, service.ordering) for problem in problems
        ]

    def test_a_96_point_sweep_keys_its_structure_once(self, monkeypatch):
        structure_keys = []
        lethal_counts = []
        real_key = service_module.structure_key
        real_counts = YieldProblem.lethal_counts

        def counted_key(*args):
            structure_keys.append(args)
            return real_key(*args)

        def counted_counts(problem, truncation):
            lethal_counts.append(truncation)
            return real_counts(problem, truncation)

        monkeypatch.setattr(service_module, "structure_key", counted_key)
        monkeypatch.setattr(YieldProblem, "lethal_counts", counted_counts)
        densities = [0.25 + 0.04 * i for i in range(96)]
        rows = SweepService().density_sweep(factory("ESEN4x1"), densities, max_defects=4)
        assert len(rows) == 96
        assert len(structure_keys) == 1
        assert lethal_counts == [4] * 96

    def test_a_cache_hit_is_packaged_under_its_own_name(self):
        service = SweepService()
        service.density_sweep(factory("MS2"), [1.0, 2.0], max_defects=3)
        template = factory("MS2")(2.0)
        renamed = YieldProblem(
            template.fault_tree, template.components, template.defect_distribution, name="renamed"
        )
        fresh, hit = service.evaluate_batch(
            [SweepPoint(factory("MS2")(3.0), max_defects=3), SweepPoint(renamed, max_defects=3)]
        )
        assert service.registry.counter("service.cache.result_hits") == 1
        assert fresh.extra["batched_models"] == 1.0
        assert fresh.extra["structure_reused"] == 1.0
        assert hit.name == "renamed"
        assert hit.timings.total == 0.0
        assert hit.extra["batched_models"] == 0.0
        assert hit.extra["structure_reused"] == 1.0
        assert hit.yield_estimate == SweepService().evaluate(template, max_defects=3).yield_estimate
