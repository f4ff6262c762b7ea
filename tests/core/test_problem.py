"""Unit tests for the yield-problem container."""

import pytest

from repro.core.problem import ProblemError, YieldProblem
from repro.distributions import (
    ComponentDefectModel,
    NegativeBinomialDefectDistribution,
    PoissonDefectDistribution,
)
from repro.faulttree import FaultTreeBuilder


def simple_tree():
    ft = FaultTreeBuilder("pair")
    ft.set_top(ft.and_(ft.failed("A"), ft.failed("B")))
    return ft.build()


class TestConstruction:
    def test_basic(self):
        model = ComponentDefectModel({"A": 0.2, "B": 0.3})
        problem = YieldProblem(simple_tree(), model, PoissonDefectDistribution(1.0))
        assert problem.num_components == 2
        assert problem.lethality == pytest.approx(0.5)
        assert problem.component_names == ("A", "B")

    def test_model_may_contain_extra_components(self):
        model = ComponentDefectModel({"A": 0.2, "B": 0.2, "PAD": 0.1})
        problem = YieldProblem(simple_tree(), model, PoissonDefectDistribution(1.0))
        assert problem.num_components == 3

    def test_fault_tree_inputs_must_be_components(self):
        model = ComponentDefectModel({"A": 0.2})
        with pytest.raises(ProblemError):
            YieldProblem(simple_tree(), model, PoissonDefectDistribution(1.0))

    def test_fault_tree_needs_single_output(self):
        from repro.faulttree import Circuit

        circuit = Circuit("no-output")
        circuit.add_input("A")
        model = ComponentDefectModel({"A": 0.2})
        with pytest.raises(ProblemError):
            YieldProblem(circuit, model, PoissonDefectDistribution(1.0))

    def test_default_name_comes_from_circuit(self):
        model = ComponentDefectModel({"A": 0.2, "B": 0.3})
        problem = YieldProblem(simple_tree(), model, PoissonDefectDistribution(1.0))
        assert problem.name == "pair"


class TestWithDefects:
    def test_copy_shares_everything_but_the_distribution(self):
        model = ComponentDefectModel({"A": 0.2, "B": 0.3})
        first = PoissonDefectDistribution(1.0)
        problem = YieldProblem(simple_tree(), model, first, name="pair-1")
        second = PoissonDefectDistribution(2.0)
        copy = problem.with_defects(second)
        assert copy.fault_tree is problem.fault_tree
        assert copy.components is problem.components
        assert copy.name == "pair-1"
        assert copy.defect_distribution is second
        assert problem.defect_distribution is first

    def test_frozen_tree_is_checked_once(self, pair_checks):
        model = ComponentDefectModel({"A": 0.2, "B": 0.3})
        template = YieldProblem(simple_tree(), model, PoissonDefectDistribution(1.0))
        for mean in (0.5, 1.5, 2.5):
            template.with_defects(PoissonDefectDistribution(mean))
        assert len(pair_checks) == 1

    def test_mutable_tree_is_checked_on_every_copy(self, pair_checks):
        from repro.faulttree import Circuit, GateOp

        circuit = Circuit("mutable")
        circuit.set_output(circuit.add_gate(GateOp.BUF, [circuit.add_input("A")]), "F")
        model = ComponentDefectModel({"A": 0.2, "B": 0.3})
        template = YieldProblem(circuit, model, PoissonDefectDistribution(1.0))
        template.with_defects(PoissonDefectDistribution(2.0))
        template.with_defects(PoissonDefectDistribution(3.0))
        assert len(pair_checks) == 3

        circuit.add_input("INTRUDER")
        with pytest.raises(ProblemError, match="INTRUDER"):
            template.with_defects(PoissonDefectDistribution(2.0))
        circuit.set_output(circuit.input_index("A"), "G")
        with pytest.raises(ProblemError, match="exactly one output"):
            template.with_defects(PoissonDefectDistribution(2.0))


class TestLethalModel:
    def test_lethal_distribution_is_thinned(self):
        model = ComponentDefectModel({"A": 0.2, "B": 0.3})
        raw = NegativeBinomialDefectDistribution(mean=2.0, clustering=4.0)
        problem = YieldProblem(simple_tree(), model, raw)
        lethal = problem.lethal_defect_distribution()
        assert lethal.mean() == pytest.approx(1.0)

    def test_lethal_component_probabilities_sum_to_one(self):
        model = ComponentDefectModel({"A": 0.2, "B": 0.3})
        problem = YieldProblem(simple_tree(), model, PoissonDefectDistribution(1.0))
        assert sum(problem.lethal_component_probabilities()) == pytest.approx(1.0)

    def test_truncation_level_delegates(self):
        model = ComponentDefectModel({"A": 0.25, "B": 0.25})
        raw = NegativeBinomialDefectDistribution(mean=2.0, clustering=4.0)
        problem = YieldProblem(simple_tree(), model, raw)
        assert problem.truncation_level(1e-3) == raw.thinned(0.5).truncation_level(1e-3)


class TestStructureEvaluation:
    def test_system_fails(self):
        model = ComponentDefectModel({"A": 0.2, "B": 0.3})
        problem = YieldProblem(simple_tree(), model, PoissonDefectDistribution(1.0))
        assert problem.system_fails(["A", "B"]) is True
        assert problem.system_fails(["A"]) is False
        assert problem.system_fails([]) is False

    def test_unknown_component_rejected(self):
        model = ComponentDefectModel({"A": 0.2, "B": 0.3})
        problem = YieldProblem(simple_tree(), model, PoissonDefectDistribution(1.0))
        with pytest.raises(ProblemError):
            problem.system_fails(["Z"])
