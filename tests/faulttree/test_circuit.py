"""Unit tests for the gate-level circuit representation."""

import pytest

from repro.faulttree import Circuit, CircuitError, FaultTreeBuilder, GateOp
from repro.faulttree.parser import loads


def build_small_circuit():
    """out = (a AND b) OR (NOT c)"""
    circuit = Circuit("small")
    a = circuit.add_input("a")
    b = circuit.add_input("b")
    c = circuit.add_input("c")
    g1 = circuit.add_gate(GateOp.AND, [a, b])
    g2 = circuit.add_gate(GateOp.NOT, [c])
    g3 = circuit.add_gate(GateOp.OR, [g1, g2])
    circuit.set_output(g3, "out")
    return circuit


class TestConstruction:
    def test_inputs_are_deduplicated(self):
        circuit = Circuit()
        first = circuit.add_input("x")
        second = circuit.add_input("x")
        assert first == second
        assert circuit.num_inputs == 1

    def test_constants_are_shared(self):
        circuit = Circuit()
        assert circuit.add_const(True) == circuit.add_const(True)
        assert circuit.add_const(True) != circuit.add_const(False)

    def test_structural_sharing_of_gates(self):
        circuit = Circuit()
        a, b = circuit.add_input("a"), circuit.add_input("b")
        g1 = circuit.add_gate(GateOp.AND, [a, b])
        g2 = circuit.add_gate(GateOp.AND, [a, b])
        g3 = circuit.add_gate(GateOp.AND, [b, a])  # different fanin order
        assert g1 == g2
        assert g1 != g3

    def test_sharing_can_be_disabled(self):
        circuit = Circuit()
        a, b = circuit.add_input("a"), circuit.add_input("b")
        g1 = circuit.add_gate(GateOp.AND, [a, b], share=False)
        g2 = circuit.add_gate(GateOp.AND, [a, b], share=False)
        assert g1 != g2

    def test_invalid_fanin_rejected(self):
        circuit = Circuit()
        circuit.add_input("a")
        with pytest.raises(CircuitError):
            circuit.add_gate(GateOp.AND, [0, 99])

    def test_invalid_arity_rejected(self):
        circuit = Circuit()
        a, b = circuit.add_input("a"), circuit.add_input("b")
        with pytest.raises(CircuitError):
            circuit.add_gate(GateOp.NOT, [a, b])

    def test_output_bookkeeping(self):
        circuit = build_small_circuit()
        assert circuit.outputs == {"out": circuit.primary_output}
        with pytest.raises(CircuitError):
            circuit.set_output(10_000)

    def test_primary_output_requires_single_output(self):
        circuit = Circuit()
        a = circuit.add_input("a")
        with pytest.raises(CircuitError):
            circuit.primary_output
        circuit.set_output(a, "o1")
        circuit.set_output(a, "o2")
        with pytest.raises(CircuitError):
            circuit.primary_output

    def test_node_counts(self):
        circuit = build_small_circuit()
        assert circuit.num_inputs == 3
        assert circuit.num_gates == 3
        assert len(circuit) == 6


class TestEvaluation:
    def test_truth_table(self):
        circuit = build_small_circuit()
        for a in (False, True):
            for b in (False, True):
                for c in (False, True):
                    expected = (a and b) or (not c)
                    got = circuit.evaluate({"a": a, "b": b, "c": c})["out"]
                    assert got is expected

    def test_missing_input_raises(self):
        circuit = build_small_circuit()
        with pytest.raises(CircuitError):
            circuit.evaluate({"a": True, "b": False})

    def test_evaluate_output_named_and_unnamed(self):
        circuit = build_small_circuit()
        assignment = {"a": True, "b": True, "c": True}
        assert circuit.evaluate_output(assignment) is True
        assert circuit.evaluate_output(assignment, "out") is True
        with pytest.raises(CircuitError):
            circuit.evaluate_output(assignment, "nope")

    def test_constants_evaluate(self):
        circuit = Circuit()
        t = circuit.add_const(True)
        a = circuit.add_input("a")
        g = circuit.add_gate(GateOp.AND, [t, a])
        circuit.set_output(g, "out")
        assert circuit.evaluate({"a": True})["out"] is True
        assert circuit.evaluate({"a": False})["out"] is False


class TestStructuralQueries:
    def test_cone_and_support(self):
        circuit = Circuit()
        a, b, c = (circuit.add_input(x) for x in "abc")
        g = circuit.add_gate(GateOp.OR, [a, b])
        circuit.set_output(g, "out")
        support = circuit.support()
        assert [circuit.node(i).name for i in support] == ["a", "b"]
        assert c not in circuit.cone(circuit.primary_output)

    def test_depth(self):
        circuit = build_small_circuit()
        assert circuit.depth() == 2

    def test_fanouts(self):
        circuit = build_small_circuit()
        fanouts = circuit.fanouts()
        a = circuit.input_index("a")
        and_gate = [n.index for n in circuit.nodes if n.is_gate and n.op is GateOp.AND][0]
        assert and_gate in fanouts[a]

    def test_dfs_leftmost_visits_leftmost_branch_first(self):
        circuit = build_small_circuit()
        names = [
            circuit.node(i).name
            for i in circuit.dfs_leftmost()
            if circuit.node(i).is_input
        ]
        # out = (a AND b) OR (NOT c): left branch first -> a, b, then c
        assert names == ["a", "b", "c"]

    def test_dfs_visits_each_node_once(self):
        circuit = build_small_circuit()
        visited = list(circuit.dfs_leftmost())
        assert len(visited) == len(set(visited))

    def test_input_index_unknown(self):
        circuit = build_small_circuit()
        with pytest.raises(CircuitError):
            circuit.input_index("zzz")

    def test_stats(self):
        stats = build_small_circuit().stats()
        assert stats["inputs"] == 3
        assert stats["gates"] == 3
        assert stats["depth"] == 2


class TestFreezing:
    def test_frozen_circuit_rejects_every_mutator(self):
        circuit = build_small_circuit().freeze()
        a = circuit.input_index("a")
        mutations = [
            lambda: circuit.add_input("d"),
            lambda: circuit.add_input("a"),  # even an existing name
            lambda: circuit.add_const(True),
            lambda: circuit.add_gate(GateOp.NOT, [a]),
            lambda: circuit.set_output(a, "out2"),
        ]
        for mutate in mutations:
            with pytest.raises(CircuitError):
                mutate()
        with pytest.raises(CircuitError):
            circuit.name = "renamed"
        assert len(circuit) == 6
        assert circuit.outputs == {"out": circuit.primary_output}

    def test_freeze_is_idempotent(self):
        circuit = build_small_circuit()
        assert not circuit.frozen
        assert circuit.freeze() is circuit
        assert circuit.freeze().frozen

    def test_builder_returns_one_frozen_circuit(self):
        ft = FaultTreeBuilder("pair")
        a = ft.failed("A")
        ft.set_top(ft.and_(a, ft.failed("B")))
        circuit = ft.build()
        assert circuit.frozen
        assert ft.build() is circuit
        assert circuit.outputs == {"F": circuit.primary_output}
        with pytest.raises(CircuitError):
            ft.failed("C")
        with pytest.raises(CircuitError):
            ft.set_top(a)

    def test_parser_returns_a_frozen_circuit(self):
        circuit, _ = loads("toplevel S; S and A B; A prob 0.1; B prob 0.2;", name="pair")
        assert circuit.frozen
        assert circuit.name == "pair"

    def test_has_input(self):
        circuit = build_small_circuit()
        assert circuit.has_input("a")
        assert not circuit.has_input("zzz")


class TestDigest:
    def test_frozen_and_mutable_circuits_hash_alike(self):
        assert build_small_circuit().digest() == build_small_circuit().freeze().digest()

    def test_name_and_structure_enter_the_digest(self):
        renamed = build_small_circuit()
        renamed.name = "other"
        assert renamed.digest() != build_small_circuit().digest()
        rewired = Circuit("small")
        a, b, c = (rewired.add_input(x) for x in "abc")
        g1 = rewired.add_gate(GateOp.AND, [b, a])
        g2 = rewired.add_gate(GateOp.NOT, [c])
        rewired.set_output(rewired.add_gate(GateOp.OR, [g1, g2]), "out")
        assert rewired.digest() != build_small_circuit().digest()

    def test_mutable_circuit_rehashes_after_a_mutation(self):
        circuit = build_small_circuit()
        before = circuit.digest()
        circuit.set_output(circuit.input_index("a"), "extra")
        assert circuit.digest() != before

    def test_frozen_circuit_hashes_once(self, monkeypatch):
        circuit = build_small_circuit().freeze()
        first = circuit.digest()
        # a second hash would call sha256 and fail
        monkeypatch.setattr("repro.faulttree.circuit.hashlib.sha256", None)
        assert circuit.digest() == first
