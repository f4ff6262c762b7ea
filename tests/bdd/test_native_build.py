"""The native coded-ROBDD builder against the Python gate loop.

The gate loop of :class:`repro.bdd.builder.CircuitBDDBuilder` is the
reference: the native route must build the same function (same size, same
converted fused arrays), create exactly the nodes the gate loop creates
without garbage collection, fail the same builds under a node limit, fall
back to the gate loop when the library cannot be built, and keep no shared
state between concurrent builds.
"""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BDDManager, ResourceLimitExceeded, build_circuit_bdd
from repro.bdd.builder import CircuitBDDBuilder
from repro.bdd.manager import TRUE
from repro.core.gfunction import GeneralizedFaultTree
from repro.core.method import YieldAnalyzer
from repro.engine import native
from repro.engine.batch import LinearizedDiagram
from repro.faulttree import Circuit, GateOp
from repro.mdd.from_bdd import convert_bdd_to_mdd
from repro.ordering import OrderingSpec
from repro.soc import benchmark_problem
from tests.engine.test_deep_recursion import DEPTH, build_and_chain
from tests.property.test_method_properties import build_problem, structure_expressions

needs_native = pytest.mark.skipif(
    not native.available(), reason="the native library cannot be built here"
)


def coded_circuit(problem, ordering, truncation):
    """The binary circuit and grouped order the analyzer would build."""
    grouped = YieldAnalyzer(OrderingSpec(ordering, "ml")).grouped_order_for(
        problem, truncation
    )
    gfunction = GeneralizedFaultTree(problem.fault_tree, problem.component_names, truncation)
    return gfunction.binary_circuit(), grouped


def fused_arrays(bdd, root, grouped):
    mdd, mdd_root = convert_bdd_to_mdd(bdd, root, grouped.groups)
    diagram = LinearizedDiagram.from_mdd(mdd, mdd_root)
    schedule = diagram.fused()
    return (
        diagram.root_slot,
        diagram.num_slots,
        schedule.bounds,
        *(np.asarray(a, dtype=np.int64).tobytes() for a in (
            schedule.kids, schedule.seg, schedule.slot_levels
        )),
    )


def gate_loop(order, circuit, **options):
    builder = CircuitBDDBuilder(order, track_peak=False, **options)
    return builder.build(circuit, BDDManager(order))


def limit_outcome(order, circuit, limit, *, native_route, collect_garbage=True):
    builder = CircuitBDDBuilder(
        order, track_peak=False, node_limit=limit, collect_garbage=collect_garbage
    )
    try:
        builder.build(circuit, None if native_route else BDDManager(order))
    except ResourceLimitExceeded:
        return "exceeded"
    return "built"


@needs_native
@settings(max_examples=25, deadline=None)
@given(
    structure_expressions(),
    st.lists(st.floats(min_value=0.1, max_value=3.0), min_size=5, max_size=5),
    st.sampled_from(["wv", "w", "vrw"]),
)
def test_native_build_matches_the_gate_loop(expr, weights, ordering):
    problem = build_problem(expr, weights, 1.0, 4.0)
    circuit, grouped = coded_circuit(problem, ordering, 3)
    order = grouped.flat_bit_order()

    bdd, root, stats = CircuitBDDBuilder(order, track_peak=False).build(circuit)
    assert stats.backend == "native"
    ref_bdd, ref_root, ref_stats = gate_loop(order, circuit)
    assert ref_stats.backend == "python"
    assert stats.final_size == ref_stats.final_size == ref_bdd.size(ref_root)
    assert stats.gates_processed == ref_stats.gates_processed
    assert fused_arrays(bdd, root, grouped) == fused_arrays(ref_bdd, ref_root, grouped)

    # without collection the gate loop allocates every distinct node once
    _, _, no_gc = gate_loop(order, circuit, collect_garbage=False)
    created = stats.allocated_nodes
    assert created == no_gc.allocated_nodes

    # ... so the two routes fail the same builds, on both sides of the count
    for limit, expected in (
        (max(2, created // 2), "exceeded"),
        (created - 1, "exceeded"),
        (created, "built"),
    ):
        assert limit_outcome(order, circuit, limit, native_route=True) == expected
        assert (
            limit_outcome(order, circuit, limit, native_route=False, collect_garbage=False)
            == expected
        )
    # the collecting gate loop counts at least as many nodes
    assert limit_outcome(order, circuit, created - 1, native_route=False) == "exceeded"


GATES = [GateOp.AND, GateOp.OR, GateOp.NAND, GateOp.NOR, GateOp.XOR, GateOp.XNOR]


@st.composite
def random_circuits(draw):
    """Circuits over every gate kind, constants included."""
    circuit = Circuit("random")
    nodes = [circuit.add_input("x%d" % i) for i in range(5)]
    if draw(st.booleans()):
        nodes.append(circuit.add_const(draw(st.booleans())))
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        op = draw(st.sampled_from(GATES + [GateOp.NOT, GateOp.BUF]))
        if op in (GateOp.NOT, GateOp.BUF):
            fanins = [draw(st.sampled_from(nodes))]
        else:
            fanins = draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=4))
        nodes.append(circuit.add_gate(op, fanins, share=False))
    circuit.set_output(nodes[-1])
    order = draw(st.permutations(["x%d" % i for i in range(5)]))
    return circuit, list(order)


@needs_native
@settings(max_examples=60, deadline=None)
@given(random_circuits())
def test_native_build_matches_the_gate_loop_on_every_gate_kind(sample):
    circuit, order = sample
    bdd, root, stats = build_circuit_bdd(circuit, order)
    assert stats.backend == "native"
    ref_bdd, ref_root, ref_stats = gate_loop(order, circuit, collect_garbage=False)
    assert stats.final_size == ref_stats.final_size
    assert stats.allocated_nodes == ref_stats.allocated_nodes
    assert bdd.sat_count(root) == ref_bdd.sat_count(ref_root)
    for values in range(32):
        assignment = {"x%d" % i: bool(values >> i & 1) for i in range(5)}
        assert bdd.evaluate(root, assignment) == circuit.evaluate_output(assignment)


@needs_native
def test_loaded_manager_keeps_working():
    """Unique table, refcounts and cache stats come with the bulk load."""
    circuit = Circuit("mixed")
    a, b, c = (circuit.add_input(x) for x in "abc")
    out = circuit.add_gate(GateOp.OR, [circuit.add_gate(GateOp.AND, [a, b]), c])
    circuit.set_output(out)
    manager, root, stats = build_circuit_bdd(circuit, ["a", "b", "c"])
    assert stats.backend == "native"
    assert manager.num_nodes_allocated == stats.allocated_nodes
    assert manager.ref_count(root) == 1
    assert manager.cache_totals()["misses"] > 0
    # the unique table, made on first use, holds exactly the loaded nodes
    loaded = {manager._node_key(h): h for h in manager.reachable(root) if h > TRUE}
    assert manager._unique == loaded
    assert manager.garbage_collect() == 0  # everything loaded is reachable
    # hash-consing finds the loaded nodes; new nodes extend the table
    assert manager.var("c") in manager.reachable(root)
    assert manager.or_(manager.and_(manager.var("a"), manager.var("b")), manager.var("c")) == root
    assert manager.garbage_collect() == 3  # a AND b, a and b were only temporaries


@needs_native
def test_loaded_manager_collects_before_its_first_hash_cons():
    """A collection is the first use of the table; rebuilding then works."""
    circuit = Circuit("xor")
    x = [circuit.add_input("x%d" % i) for i in range(6)]
    circuit.set_output(circuit.add_gate(GateOp.XOR, x))
    order = ["x%d" % i for i in range(6)]
    manager, root, stats = build_circuit_bdd(circuit, order)
    assert stats.backend == "native"
    size = manager.size(root)
    manager.deref(root)
    assert manager.garbage_collect() == size - 2  # every loaded node is freed
    # the gate loop rebuilds in the same manager through the updated table
    _, rebuilt, _ = CircuitBDDBuilder(order, track_peak=False).build(circuit, manager)
    assert manager.size(rebuilt) == size
    assert manager.sat_count(rebuilt) == 2 ** 5


@needs_native
def test_node_limit_counts_created_nodes():
    circuit = Circuit("xor")
    x = [circuit.add_input("x%d" % i) for i in range(8)]
    circuit.set_output(circuit.add_gate(GateOp.XOR, x))
    order = ["x%d" % i for i in range(8)]
    created = build_circuit_bdd(circuit, order)[2].allocated_nodes
    assert build_circuit_bdd(circuit, order, node_limit=created)[2].backend == "native"
    with pytest.raises(ResourceLimitExceeded):
        build_circuit_bdd(circuit, order, node_limit=created - 1)


@needs_native
def test_deep_chain_builds_natively():
    """The apply stack is sized by the variable count, not the C stack."""
    order = ["x%d" % i for i in range(DEPTH)]
    manager, root, stats = CircuitBDDBuilder(order, track_peak=False).build(
        build_and_chain(DEPTH)
    )
    assert stats.backend == "native"
    assert manager.size(root) == DEPTH + 2


def test_no_compiler_falls_back_to_the_gate_loop(tmp_path, monkeypatch):
    problem = benchmark_problem("ESEN4x1", mean_defects=1.0)
    circuit, grouped = coded_circuit(problem, "w", 4)
    order = grouped.flat_bit_order()
    builder = CircuitBDDBuilder(order, track_peak=False)
    reference = fused_arrays(*builder.build(circuit)[:2], grouped)  # native when it loads

    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
    monkeypatch.setenv("CC", "/nonexistent")
    native.reset()
    try:
        bdd, root, stats = builder.build(circuit)
        assert stats.backend == "python"
        assert fused_arrays(bdd, root, grouped) == reference
    finally:
        native.reset()


@needs_native
def test_concurrent_builds_equal_serial_builds():
    """Eight threads, four structures: no state is shared between builds."""
    structures = [("MS2", 4), ("ESEN4x1", 5), ("MS4", 3), ("ESEN4x2", 3)]
    jobs = []
    for name, truncation in structures:
        circuit, grouped = coded_circuit(benchmark_problem(name, mean_defects=1.0), "w", truncation)
        jobs.append((circuit, grouped))

    def build(job):
        circuit, grouped = job
        bdd, root, stats = CircuitBDDBuilder(
            grouped.flat_bit_order(), track_peak=False
        ).build(circuit)
        assert stats.backend == "native"
        return stats.final_size, stats.allocated_nodes, fused_arrays(bdd, root, grouped)

    serial = [build(job) for job in jobs]
    results = {}
    errors = []

    def worker(index):
        try:
            for round_ in range(2):
                job = (index + round_) % len(jobs)
                results[(index, round_)] = (job, build(jobs[job]))
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    deadline = time.monotonic() + 120.0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the Python parts of the builds
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), "builds did not finish in time"
    assert not errors
    assert len(results) == 16
    for job, outcome in results.values():
        assert outcome == serial[job]
