"""Benchmark problems share frozen fault-tree and component-model templates."""

import pickle

import pytest

from repro.core.problem import YieldProblem
from repro.engine.service import result_key, structure_key
from repro.faulttree import CircuitError, GateOp
from repro.ordering import OrderingSpec
from repro.soc import benchmark_problem, esen_problem, ms_fault_tree, ms_problem

ORDERING = OrderingSpec("w", "ml")


class TestTemplateSharing:
    def test_densities_share_one_frozen_template(self):
        first = benchmark_problem("MS4", mean_defects=1.0)
        second = benchmark_problem("MS4", mean_defects=3.0)
        assert first.fault_tree is second.fault_tree
        assert first.components is second.components
        assert first.defect_distribution is not second.defect_distribution
        assert first.fault_tree.frozen

    def test_shared_template_rejects_every_mutator(self):
        tree = benchmark_problem("ESEN4x1").fault_tree
        top = tree.primary_output
        size = len(tree)
        for mutate in (
            lambda: tree.add_input("INTRUDER"),
            lambda: tree.add_const(False),
            lambda: tree.add_gate(GateOp.NOT, [top]),
            lambda: tree.set_output(top, "G"),
        ):
            with pytest.raises(CircuitError):
                mutate()
        assert len(tree) == size
        assert benchmark_problem("ESEN4x1").fault_tree.outputs == {"F": top}

    def test_required_ipa_gets_its_own_template(self):
        default = esen_problem(4, 2)
        strict = esen_problem(4, 2, required_ipa=4)
        assert strict.fault_tree is not default.fault_tree
        assert strict.fault_tree.digest() != default.fault_tree.digest()
        assert esen_problem(4, 2, required_ipa=4).fault_tree is strict.fault_tree

    def test_lethality_gets_its_own_component_model(self):
        default = ms_problem(2)
        lethal = ms_problem(2, lethality=0.25)
        assert lethal.fault_tree is default.fault_tree
        assert lethal.components is not default.components
        assert lethal.lethality == pytest.approx(0.25)
        assert ms_problem(2, lethality=0.25).components is lethal.components

    def test_lethality_shares_the_structure_but_not_the_result(self):
        default = ms_problem(2, mean_defects=2.0)
        lethal = ms_problem(2, mean_defects=2.0, lethality=0.25)
        assert structure_key(default, 4, ORDERING) == structure_key(lethal, 4, ORDERING)
        default_key = result_key(default, 4, ORDERING)
        lethal_key = result_key(lethal, 4, ORDERING)
        assert default_key != lethal_key
        # the structure key is the result key's prefix
        assert default_key[:-2] == structure_key(default, 4, ORDERING)
        assert lethal_key[:-2] == structure_key(lethal, 4, ORDERING)

    def test_pickled_problem_keeps_its_digest(self):
        problem = benchmark_problem("ESEN4x2", mean_defects=1.5)
        copy = pickle.loads(pickle.dumps(problem))
        assert copy.fault_tree is not problem.fault_tree
        assert copy.fault_tree.frozen
        assert copy.fault_tree.digest() == problem.fault_tree.digest()
        with pytest.raises(CircuitError):
            copy.fault_tree.add_input("INTRUDER")
        assert result_key(copy, 5, ORDERING) == result_key(problem, 5, ORDERING)

    def test_fresh_circuits_key_like_the_shared_template(self):
        shared = ms_problem(2, mean_defects=1.0)
        # the generator body without its template cache: a new circuit
        fresh = YieldProblem(
            ms_fault_tree.__wrapped__(2),
            shared.components,
            shared.defect_distribution,
            name=shared.name,
        )
        assert fresh.fault_tree is not shared.fault_tree
        assert result_key(fresh, 3, ORDERING) == result_key(shared, 3, ORDERING)
