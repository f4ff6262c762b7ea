"""Tests for the component importance measures.

Beyond the behavioural checks, the golden-ranking classes pin the analytic
gradient route to the legacy finite-difference route: identical component
rankings on the example fault trees, and — for the hardening measure, whose
immune-component perturbation now runs batched through the sweep service —
bit-for-bit identical yield gains versus the original per-point evaluation.
"""

import pytest

from repro.analysis.importance import (
    _IMMUNE_FACTOR,
    _perturbed_problem,
    class_hardening_potential,
    hardening_potential,
    yield_sensitivity,
)
from repro.core.method import YieldAnalyzer
from repro.core.problem import YieldProblem
from repro.distributions import ComponentDefectModel, NegativeBinomialDefectDistribution
from repro.faulttree import FaultTreeBuilder


@pytest.fixture
def series_parallel_problem():
    """SYSTEM fails if S fails, or if both P1 and P2 fail.

    S is a single point of failure, P1/P2 are redundant, and PAD does not
    appear in the structure function at all.
    """
    ft = FaultTreeBuilder("series-parallel")
    ft.set_top(ft.or_(ft.failed("S"), ft.and_(ft.failed("P1"), ft.failed("P2"))))
    model = ComponentDefectModel({"S": 0.15, "P1": 0.15, "P2": 0.15, "PAD": 0.05})
    dist = NegativeBinomialDefectDistribution(mean=1.5, clustering=4.0)
    return YieldProblem(ft.build(), model, dist, name="series-parallel")


def _distinct_weight_problems():
    """Example fault trees with pairwise-distinct component weights.

    Distinct weights keep every pair of sensitivities separated by far more
    than floating-point noise, so ranking comparisons between the analytic
    and the finite-difference routes are meaningful (symmetric components
    would tie up to the last ulp and rank arbitrarily on either route).
    """
    problems = []

    ft = FaultTreeBuilder("series-parallel-distinct")
    ft.set_top(ft.or_(ft.failed("S"), ft.and_(ft.failed("P1"), ft.failed("P2"))))
    model = ComponentDefectModel({"S": 0.11, "P1": 0.17, "P2": 0.08, "PAD": 0.04})
    dist = NegativeBinomialDefectDistribution(mean=1.5, clustering=4.0)
    problems.append(YieldProblem(ft.build(), model, dist, name="sp-distinct"))

    # two redundant pairs in series with a shared voter component
    ft = FaultTreeBuilder("two-pairs")
    ft.set_top(
        ft.or_(
            ft.or_(
                ft.and_(ft.failed("A1"), ft.failed("A2")),
                ft.and_(ft.failed("B1"), ft.failed("B2")),
            ),
            ft.failed("V"),
        )
    )
    model = ComponentDefectModel(
        {"A1": 0.05, "A2": 0.12, "B1": 0.21, "B2": 0.03, "V": 0.07, "PAD": 0.02}
    )
    dist = NegativeBinomialDefectDistribution(mean=2.0, clustering=4.0)
    problems.append(YieldProblem(ft.build(), model, dist, name="two-pairs"))
    return problems


class TestHardeningPotential:
    def test_single_point_of_failure_ranks_first(self, series_parallel_problem):
        ranking = hardening_potential(series_parallel_problem, max_defects=3)
        names = [name for name, _ in ranking]
        assert names[0] == "S"
        gains = dict(ranking)
        assert gains["S"] > gains["P1"] > 0.0
        # hardening a component that the structure never reads still helps a
        # little (fewer lethal defects overall), but far less than hardening S
        assert gains["PAD"] >= 0.0
        assert gains["S"] > 5 * gains["PAD"]

    def test_redundant_pair_is_symmetric(self, series_parallel_problem):
        gains = dict(hardening_potential(series_parallel_problem, max_defects=3))
        assert gains["P1"] == pytest.approx(gains["P2"], rel=1e-6)

    def test_component_subset(self, series_parallel_problem):
        ranking = hardening_potential(
            series_parallel_problem, components=["S", "P1"], max_defects=2
        )
        assert [name for name, _ in ranking] == ["S", "P1"]

    def test_unknown_component(self, series_parallel_problem):
        with pytest.raises(KeyError):
            hardening_potential(series_parallel_problem, components=["ZZZ"], max_defects=2)


class TestYieldSensitivity:
    def test_sensitivities_are_negative_for_used_components(self, series_parallel_problem):
        ranking = yield_sensitivity(series_parallel_problem, max_defects=3)
        values = dict(ranking)
        assert values["S"] < 0.0
        # the single point of failure is the most sensitive component
        assert ranking[0][0] == "S"

    def test_invalid_step(self, series_parallel_problem):
        with pytest.raises(ValueError):
            yield_sensitivity(
                series_parallel_problem, method="fd", relative_step=0.0
            )


class TestGoldenRankings:
    """Analytic vs legacy finite-difference routes on the example trees."""

    @pytest.mark.parametrize(
        "problem", _distinct_weight_problems(), ids=lambda p: p.name
    )
    def test_analytic_and_fd_rankings_are_identical(self, problem):
        analytic = yield_sensitivity(problem, max_defects=3, method="analytic")
        legacy = yield_sensitivity(
            problem, max_defects=3, method="fd", relative_step=0.05
        )
        assert [name for name, _ in analytic] == [name for name, _ in legacy]
        # the two routes approximate the same derivative: the analytic value
        # must sit within the O(h^2) error of the h=0.05 central difference
        for (name, value), (_, fd_value) in zip(analytic, legacy):
            assert value == pytest.approx(fd_value, rel=5e-3, abs=1e-9), name

    @pytest.mark.parametrize(
        "problem", _distinct_weight_problems(), ids=lambda p: p.name
    )
    def test_analytic_matches_tight_finite_difference(self, problem):
        """With a small step, values (not just ranks) agree closely."""
        analytic = dict(yield_sensitivity(problem, max_defects=3))
        legacy = dict(
            yield_sensitivity(
                problem, max_defects=3, method="fd", relative_step=1e-4
            )
        )
        for name, value in analytic.items():
            assert value == pytest.approx(legacy[name], rel=1e-5, abs=1e-8), name

    @pytest.mark.parametrize(
        "problem", _distinct_weight_problems(), ids=lambda p: p.name
    )
    def test_hardening_gains_bit_for_bit_vs_legacy_route(self, problem):
        """The batched service route preserves the immune-component
        semantics of the original per-point evaluation exactly."""
        batched = dict(hardening_potential(problem, max_defects=3))

        analyzer = YieldAnalyzer(epsilon=1e-4)
        baseline = analyzer.evaluate(problem, max_defects=3).yield_estimate
        for name in problem.component_names:
            perturbed = _perturbed_problem(problem, {name: _IMMUNE_FACTOR})
            legacy_gain = (
                analyzer.evaluate(perturbed, max_defects=3).yield_estimate - baseline
            )
            assert batched[name] == legacy_gain  # bit-for-bit, not approx

    def test_hardening_ranking_order_matches_legacy(self, series_parallel_problem):
        batched = hardening_potential(series_parallel_problem, max_defects=3)

        analyzer = YieldAnalyzer(epsilon=1e-4)
        baseline = analyzer.evaluate(
            series_parallel_problem, max_defects=3
        ).yield_estimate
        legacy = []
        for name in series_parallel_problem.component_names:
            perturbed = _perturbed_problem(series_parallel_problem, {name: _IMMUNE_FACTOR})
            legacy.append(
                (
                    name,
                    analyzer.evaluate(perturbed, max_defects=3).yield_estimate
                    - baseline,
                )
            )
        legacy.sort(key=lambda item: item[1], reverse=True)
        assert batched == legacy


class TestValidation:
    """The epsilon / step guards that replace silent NaN-scale rankings."""

    def test_step_of_one_or_more_is_rejected(self, series_parallel_problem):
        with pytest.raises(ValueError, match="relative_step"):
            yield_sensitivity(
                series_parallel_problem, method="fd", relative_step=1.0
            )

    def test_nan_step_is_rejected(self, series_parallel_problem):
        with pytest.raises(ValueError, match="relative_step"):
            yield_sensitivity(
                series_parallel_problem, method="fd", relative_step=float("nan")
            )

    def test_analytic_route_ignores_the_step(self, series_parallel_problem):
        # the analytic route never perturbs, so the step is not validated
        ranking = yield_sensitivity(
            series_parallel_problem, max_defects=2, relative_step=123.0
        )
        assert ranking[0][0] == "S"

    @pytest.mark.parametrize("epsilon", [0.0, -1e-4, 1.0, float("nan")])
    def test_invalid_epsilon_is_rejected(self, series_parallel_problem, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            yield_sensitivity(series_parallel_problem, epsilon=epsilon)
        with pytest.raises(ValueError, match="epsilon"):
            hardening_potential(series_parallel_problem, epsilon=epsilon)
        with pytest.raises(ValueError, match="epsilon"):
            class_hardening_potential(
                series_parallel_problem, {"all": ["S"]}, epsilon=epsilon
            )

    def test_perturbation_underflow_raises_instead_of_nan(self):
        """A perturbation that rounds a tiny P_i to zero must raise."""
        ft = FaultTreeBuilder("tiny")
        ft.set_top(ft.or_(ft.failed("S"), ft.failed("T")))
        model = ComponentDefectModel({"S": 0.2, "T": 5e-324})
        dist = NegativeBinomialDefectDistribution(mean=1.0, clustering=4.0)
        problem = YieldProblem(ft.build(), model, dist, name="tiny")
        # 5e-324 is the smallest subnormal: halving it rounds to 0.0
        assert 5e-324 * 0.5 == 0.0
        with pytest.raises(ValueError, match="invalid probability"):
            yield_sensitivity(
                problem, max_defects=2, method="fd", relative_step=0.5
            )
        with pytest.raises(ValueError, match="invalid probability"):
            hardening_potential(problem, components=["T"], max_defects=2)

    def test_unknown_component_analytic_route(self, series_parallel_problem):
        with pytest.raises(KeyError):
            yield_sensitivity(
                series_parallel_problem, components=["ZZZ"], max_defects=2
            )

    def test_analytic_route_is_default_and_rejects_bad_method(
        self, series_parallel_problem
    ):
        with pytest.raises(ValueError, match="method"):
            yield_sensitivity(series_parallel_problem, method="magic")


class TestServiceIntegration:
    def test_shared_service_reuses_one_structure(self, series_parallel_problem):
        from repro.engine.service import SweepService

        service = SweepService()
        try:
            yield_sensitivity(
                series_parallel_problem, max_defects=3, service=service
            )
            hardening_potential(
                series_parallel_problem, max_defects=3, service=service
            )
            # one structure serves the gradient pass and every perturbed model
            assert service.registry.counter("service.structures.built") == 1
            assert service.registry.counter("service.passes.gradient") == 1
            assert service.registry.counter("service.points.differentiated") == 1
            assert service.registry.counter("service.passes.batched") == 1
        finally:
            service.close()

    def test_gradient_batch_groups_by_truncation(self, series_parallel_problem):
        from repro.engine.service import SweepPoint, SweepService

        service = SweepService()
        try:
            points = [
                SweepPoint(series_parallel_problem, max_defects=2),
                SweepPoint(series_parallel_problem, max_defects=3),
                SweepPoint(series_parallel_problem, max_defects=2),
            ]
            gradients = service.gradient_batch(points)
            assert [g.truncation for g in gradients] == [2, 3, 2]
            assert service.registry.counter("service.passes.gradient") == 2  # one per structure group
            assert service.registry.counter("service.points.differentiated") == 3
            # results come back in request order with per-point values
            assert gradients[0].sensitivity == gradients[2].sensitivity
        finally:
            service.close()


class TestClassHardening:
    def test_class_measure_orders_series_before_parallel(self, series_parallel_problem):
        ranking = class_hardening_potential(
            series_parallel_problem,
            {"single-point": ["S"], "redundant-pair": ["P1", "P2"], "padding": ["PAD"]},
            max_defects=3,
        )
        labels = [label for label, _ in ranking]
        gains = dict(ranking)
        assert gains["single-point"] > 0.0
        assert gains["redundant-pair"] > 0.0
        assert labels[-1] == "padding"
