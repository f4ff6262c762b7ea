"""Tests for the operational-reliability extension."""

import itertools
import math

import pytest

from repro import evaluate_yield
from repro.core.problem import YieldProblem
from repro.distributions import ComponentDefectModel, NegativeBinomialDefectDistribution
from repro.faulttree import FaultTreeBuilder
from repro.ordering import OrderingSpec
from repro.reliability import (
    ExponentialFieldModel,
    ReliabilityAnalyzer,
    ReliabilityFaultTree,
    TabularFieldModel,
    estimate_reliability_montecarlo,
    evaluate_reliability,
)


@pytest.fixture
def duplex_problem():
    ft = FaultTreeBuilder("duplex")
    ft.set_top(ft.and_(ft.failed("A"), ft.failed("B")))
    model = ComponentDefectModel({"A": 0.25, "B": 0.25})
    dist = NegativeBinomialDefectDistribution(mean=1.0, clustering=4.0)
    return YieldProblem(ft.build(), model, dist, name="duplex")


@pytest.fixture
def tmr_problem():
    ft = FaultTreeBuilder("tmr")
    ft.set_top(ft.k_out_of_n_failed(2, ["M1", "M2", "M3"]))
    model = ComponentDefectModel.uniform(["M1", "M2", "M3"], lethality=0.6)
    dist = NegativeBinomialDefectDistribution(mean=1.0, clustering=4.0)
    return YieldProblem(ft.build(), model, dist, name="tmr")


class TestReliabilityFaultTree:
    def test_variables(self, duplex_problem):
        g = ReliabilityFaultTree(duplex_problem.fault_tree, duplex_problem.component_names, 2)
        names = [v.name for v in g.variables]
        assert names == ["w", "v1", "v2", "y[A]", "y[B]"]
        assert g.field_variable("A").values == (0, 1)

    def test_semantics_mixed_failures(self, duplex_problem):
        g = ReliabilityFaultTree(duplex_problem.fault_tree, duplex_problem.component_names, 2)
        # no defect, no field failure: operational
        assert g.evaluate(0, [], []) is False
        # defect kills A, field kills B: duplex fails
        assert g.evaluate(1, [1], ["B"]) is True
        # defect kills A only: still operational
        assert g.evaluate(1, [1], []) is False
        # field kills both: fails even without defects
        assert g.evaluate(0, [], ["A", "B"]) is True
        # overflow is pessimistic
        assert g.evaluate(3, [1, 1, 1], []) is True

    def test_unknown_field_component(self, duplex_problem):
        g = ReliabilityFaultTree(duplex_problem.fault_tree, duplex_problem.component_names, 1)
        with pytest.raises(Exception):
            g.field_variable("Z")


class TestAnalyzer:
    def test_zero_mission_time_recovers_the_yield(self, duplex_problem):
        field = ExponentialFieldModel({}, default_rate=0.05)
        result = evaluate_reliability(duplex_problem, field, 0.0, max_defects=3)
        plain_yield = evaluate_yield(duplex_problem, max_defects=3)
        assert result.survival_probability == pytest.approx(
            plain_yield.yield_estimate, rel=1e-10
        )
        assert result.conditional_reliability == pytest.approx(1.0, rel=1e-9)

    def test_survival_decreases_with_mission_time(self, tmr_problem):
        field = ExponentialFieldModel({}, default_rate=0.02)
        analyzer = ReliabilityAnalyzer(OrderingSpec("w", "ml"))
        curve = analyzer.mission_sweep(tmr_problem, field, [0.0, 1.0, 5.0, 20.0], max_defects=2)
        survivals = [r.survival_probability for r in curve]
        assert survivals == sorted(survivals, reverse=True)
        conditionals = [r.conditional_reliability for r in curve]
        assert conditionals == sorted(conditionals, reverse=True)
        assert all(0.0 <= value <= 1.0 for value in survivals)

    def test_matches_exact_enumeration_on_duplex(self, duplex_problem):
        # closed form: duplex with independent defect/field failures
        field = TabularFieldModel({"A": 0.3, "B": 0.1})
        result = evaluate_reliability(duplex_problem, field, 1.0, max_defects=4)

        lethal = duplex_problem.lethal_defect_distribution()
        p_a, p_b = duplex_problem.lethal_component_probabilities()
        expected = 0.0
        for k in range(0, 5):
            q_k = lethal.pmf(k)
            # P(A not hit by any of k defects) etc.; defects hit A or B only
            survive = 0.0
            for hits in itertools.product((0, 1), repeat=k):
                prob = 1.0
                a_hit = b_hit = False
                for h in hits:
                    if h == 0:
                        prob *= p_a
                        a_hit = True
                    else:
                        prob *= p_b
                        b_hit = True
                a_failed = 1.0 if a_hit else 0.3
                b_failed = 1.0 if b_hit else 0.1
                # duplex works unless both failed
                survive += prob * (1.0 - a_failed * b_failed)
            expected += q_k * survive
        assert result.survival_probability == pytest.approx(expected, rel=1e-9)

    def test_matches_montecarlo(self, tmr_problem):
        field = ExponentialFieldModel({}, default_rate=0.05)
        combinatorial = evaluate_reliability(tmr_problem, field, 2.0, epsilon=1e-6)
        simulated = estimate_reliability_montecarlo(tmr_problem, field, 2.0, 20_000, seed=5)
        tolerance = 5 * simulated.standard_error + 1e-5
        assert abs(combinatorial.survival_probability - simulated.yield_estimate) < tolerance

    def test_result_fields_and_summary(self, duplex_problem):
        field = ExponentialFieldModel({"A": 0.1, "B": 0.1})
        result = evaluate_reliability(duplex_problem, field, 3.0, max_defects=2)
        assert 0.0 <= result.survival_probability <= result.yield_estimate + 1e-12
        assert result.coded_robdd_size > 0 and result.romdd_size > 0
        assert result.truncation == 2
        assert "duplex" in result.summary()
        assert result.extra["field_variables"] == 2.0

    def test_heuristic_ordering_also_works(self, tmr_problem):
        field = ExponentialFieldModel({}, default_rate=0.05)
        reference = evaluate_reliability(
            tmr_problem, field, 1.0, max_defects=2, ordering=OrderingSpec("wv", "ml")
        )
        heuristic = evaluate_reliability(
            tmr_problem, field, 1.0, max_defects=2, ordering=OrderingSpec("w", "ml")
        )
        assert heuristic.survival_probability == pytest.approx(
            reference.survival_probability, rel=1e-10
        )


#: The MS2 mission-survival curve of ``examples/operational_reliability.py``
#: at M = 4, bit for bit the values of evaluating each mission time on its
#: own (its own ``G_rel`` build and yield evaluation):
#: ``(time, survival, conditional)``.
MS2_CURVE = [
    (0.0, 0.9396192014631912, 1.0),
    (0.5, 0.9333167354885755, 0.9932925317354079),
    (1.0, 0.9266663845437643, 0.986214823090826),
    (2.0, 0.9123857656977348, 0.9710165184757313),
    (3.0, 0.8969031099933913, 0.9545389330025592),
    (5.0, 0.8628190051076683, 0.9182645520271102),
    (7.0, 0.8253514669553964, 0.8783893152355177),
    (10.0, 0.7646891567031342, 0.8138287888458932),
]


class TestMissionSweep:
    @pytest.fixture
    def ms2(self):
        from repro.soc import ms_problem

        problem = ms_problem(2, mean_defects=2.0)
        rates = {"IPM": 0.020, "IPS": 0.020, "CM": 0.004, "CS": 0.004}
        field = ExponentialFieldModel(
            {name: rates[name.split("_", 1)[0]] for name in problem.component_names}
        )
        return problem, field

    @pytest.fixture
    def builds(self, monkeypatch):
        from repro.bdd.builder import CircuitBDDBuilder

        calls = []
        build = CircuitBDDBuilder.build

        def counted(builder, *args, **kwargs):
            calls.append(args[0].name)
            return build(builder, *args, **kwargs)

        monkeypatch.setattr(CircuitBDDBuilder, "build", counted)
        return calls

    def test_ms2_curve_is_pinned_bit_for_bit(self, ms2, builds):
        problem, field = ms2
        times = [time for time, _, _ in MS2_CURVE]
        curve = ReliabilityAnalyzer().mission_sweep(problem, field, times, max_defects=4)
        assert [
            (r.mission_time, r.survival_probability, r.conditional_reliability)
            for r in curve
        ] == MS2_CURVE
        for result in curve:
            assert result.name == "MS2"
            assert result.yield_estimate == 0.9396192014631912
            assert result.error_bound == 0.010406400000000371
            assert result.truncation == 4
            assert (result.coded_robdd_size, result.romdd_size) == (19902, 6740)
            assert result.extra == {"binary_variables": 41.0, "field_variables": 18.0}
        # one G_rel build and one yield build per sweep, not two per time
        assert len(builds) == 2

    def test_single_time_equals_its_sweep_point(self, ms2, builds):
        problem, field = ms2
        analyzer = ReliabilityAnalyzer()
        single = analyzer.evaluate(problem, field, 5.0, max_defects=4)
        assert (single.survival_probability, single.conditional_reliability) == MS2_CURVE[5][1:]
        assert len(builds) == 2
        assert analyzer.mission_sweep(problem, field, [], max_defects=4) == []
        assert len(builds) == 2
