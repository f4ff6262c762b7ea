"""The array routes of the ROMDD pipeline against the list routes they replaced.

:func:`~repro.mdd.from_bdd.convert_bdd_to_mdd` deduplicates rows in bulk
and bulk-loads its manager; :meth:`~repro.engine.batch.LinearizedDiagram.from_mdd`
linearizes from CSR node arrays.  Each runs on two routes: the native
library when it loads, and numpy otherwise.  The oracles of
:mod:`tests.mdd.oracles` make every node with ``_mk_raw`` and walk node
tuples.  On the random fault trees of the method properties (both
coded-ROBDD build routes) and the random multiple-valued expressions of
the ROMDD properties, constant roots included, every example runs both
routes: the loaded manager of each must equal the oracle manager node for
node, and the fused arrays of each must be identical and structurally
valid — also on an apply-built manager whose reclaimed slots were reused.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.bdd import build_circuit_bdd
from repro.bdd.builder import CircuitBDDBuilder
from repro.bdd.manager import BDDManager
from repro.core.gfunction import GeneralizedFaultTree
from repro.core.method import YieldAnalyzer
from repro.engine import native
from repro.engine.batch import LinearizedDiagram
from repro.mdd.direct import build_mdd_from_mvcircuit
from repro.mdd.from_bdd import _convert
from repro.mdd.manager import TRUE
from repro.ordering import OrderingSpec
from tests.engine.test_golden import fused_digest
from tests.mdd.oracles import convert_by_rows, linearize_by_walk, node_state
from tests.property.test_mdd_properties import (
    DOMAINS,
    VARIABLE_NAMES,
    build_mv_circuit,
    mv_expressions,
)
from tests.property.test_method_properties import build_problem, structure_expressions

#: The conversion and linearization routes every example runs on: numpy
#: everywhere, and native where the library loads.
ROUTES = (False, True) if native.available() else (False,)


def linearize(manager, root, use_native):
    diagram = LinearizedDiagram._linearize(manager, root, native=use_native)
    diagram.fused().validate(diagram.num_slots)
    return diagram


def assert_matches_oracles(bdd, bdd_root, groups):
    oracle, oracle_root = convert_by_rows(bdd, bdd_root, groups)
    expected = fused_digest(linearize_by_walk(oracle, oracle_root))
    for use_native in ROUTES:
        loaded, root = _convert(bdd, bdd_root, groups, native=use_native)
        assert root == oracle_root
        # the array routes first, while the loaded manager has no lists yet
        diagram = linearize(loaded, root, use_native)
        size = loaded.size(root)
        arrays = loaded.node_arrays()
        assert "_loaded" in vars(loaded) or root <= TRUE
        for array, oracle_array in zip(arrays, oracle.node_arrays()):
            np.testing.assert_array_equal(array, oracle_array)
        assert node_state(loaded) == node_state(oracle)
        assert size == len(oracle.reachable(oracle_root))
        assert fused_digest(diagram) == expected


@settings(max_examples=25, deadline=None)
@given(
    structure_expressions(),
    st.lists(st.floats(min_value=0.1, max_value=3.0), min_size=5, max_size=5),
    st.integers(min_value=0, max_value=3),
    st.sampled_from(["wv", "w", "vrw"]),
    st.sampled_from(["native", "python"]),
)
def test_fault_tree_conversion_matches_the_oracles(expr, weights, truncation, ordering, route):
    problem = build_problem(expr, weights, 1.0, 2.0)
    grouped = YieldAnalyzer(OrderingSpec(ordering, "ml")).grouped_order_for(
        problem, truncation
    )
    order = grouped.flat_bit_order()
    circuit = GeneralizedFaultTree(
        problem.fault_tree, problem.component_names, truncation
    ).binary_circuit()
    # a supplied manager keeps the build on the gate loop
    manager = BDDManager(order) if route == "python" else None
    bdd, root, _ = CircuitBDDBuilder(order, track_peak=False).build(circuit, manager)
    assert_matches_oracles(bdd, root, grouped.groups)


@settings(max_examples=40, deadline=None)
@given(mv_expressions(), st.permutations(VARIABLE_NAMES), st.sampled_from(["ml", "lm"]))
def test_mv_conversion_matches_the_oracles(expr, order_names, bit_order):
    mv = build_mv_circuit(expr)
    step = 1 if bit_order == "ml" else -1
    groups = [
        (mv.variable(name), list(mv.variable(name).bit_names())[::step])
        for name in order_names
    ]
    flat = [bit for _, bits in groups for bit in bits]
    bdd, root, _ = build_circuit_bdd(mv.binary_encode(), flat)
    assert_matches_oracles(bdd, root, groups)


@pytest.mark.parametrize("constant", [0, 1])
def test_constant_roots_match_the_oracles(constant):
    name = VARIABLE_NAMES[0]
    mv = build_mv_circuit(("eq", name, DOMAINS[name][0]))
    groups = [(variable, variable.bit_names()) for variable in mv.variables]
    bdd = BDDManager([bit for _, bits in groups for bit in bits])
    assert_matches_oracles(bdd, constant, groups)


@settings(max_examples=40, deadline=None)
@given(mv_expressions(), mv_expressions())
def test_apply_built_manager_with_reclaimed_slots(first, second):
    mv = build_mv_circuit(first)
    manager, root, _ = build_mdd_from_mvcircuit(mv, list(mv.variables))
    assume(root > TRUE)
    manager.ref(root)
    manager.not_(root)  # unreferenced: reclaimed below with the intermediates
    assert manager.garbage_collect() > 0
    _, other, _ = build_mdd_from_mvcircuit(
        build_mv_circuit(second), list(mv.variables), manager=manager
    )
    combined = manager.xor_(root, other)  # new nodes fill the reclaimed slots
    for node in (root, other, combined):
        expected = fused_digest(linearize_by_walk(manager, node))
        for use_native in ROUTES:
            assert fused_digest(linearize(manager, node, use_native)) == expected
        assert manager.size(node) == len(manager.reachable(node))
