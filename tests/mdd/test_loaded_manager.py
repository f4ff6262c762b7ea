"""A bulk-loaded manager is a whole manager.

:meth:`repro.mdd.MDDManager.load_layers` and
:meth:`repro.bdd.BDDManager.load_diagram` keep the loaded arrays and build
the node lists and the unique table only when an operation first needs
them.  Whatever operation comes first must work and leave the manager in
exactly the state of the oracle: the ROMDD made node by node with
``_mk_raw`` (:mod:`tests.mdd.oracles`), and the ROBDD built by the gate
loop whose arrays were loaded.  The cold sweep path must never build the
lists at all.
"""

import itertools
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.bdd import BDDManager, build_circuit_bdd
from repro.bdd.builder import CircuitBDDBuilder
from repro.engine.batch import LinearizedDiagram
from repro.engine.service import SweepService
from repro.faulttree import Circuit, GateOp
from repro.mdd import MDDManager, convert_bdd_to_mdd
from repro.soc import benchmark_problem
from tests.mdd.oracles import convert_by_rows, node_state, pipeline_romdd
from tests.mdd.test_from_bdd import groups_for, make_mv_circuit


def bdd_state(manager):
    return (
        manager._level,
        manager._low,
        manager._high,
        manager._refs,
        manager._unique,
        manager._free,
        manager.num_nodes_allocated,
    )


def assert_same_arrays(manager, oracle):
    """node_arrays() must describe the manager as it is now."""
    for array, expected in zip(manager.node_arrays(), oracle.node_arrays()):
        np.testing.assert_array_equal(array, expected)


def pickled(assignments, state):
    """The pickle round trip as a first operation: the copy's answers and
    node tables (a loaded manager travels as its arrays, still lazy)."""

    def run(manager, root):
        lazy = "_loaded" in vars(manager)
        copy = pickle.loads(pickle.dumps(manager))
        assert ("_loaded" in vars(copy)) == lazy
        return [copy.evaluate(root, a) for a in assignments], state(copy)

    return run


# ---------------------------------------------------------------------- #
# ROMDD: load_layers against the row-by-row oracle
# ---------------------------------------------------------------------- #

MV = make_mv_circuit()
MV_ASSIGNMENTS = [
    dict(zip("xyz", values))
    for values in itertools.product(*(MV.variable(name).values for name in "xyz"))
]


def converted(route):
    groups = groups_for(MV, ["x", "y", "z"])
    flat = [bit for _, bits in groups for bit in bits]
    bdd, root, _ = build_circuit_bdd(MV.binary_encode(), flat)
    convert = convert_bdd_to_mdd if route == "loaded" else convert_by_rows
    return convert(bdd, root, groups)


MDD_OPERATIONS = {
    "evaluate": lambda m, root: [m.evaluate(root, a) for a in MV_ASSIGNMENTS],
    "size": lambda m, root: m.size(root),
    "reachable": lambda m, root: sorted(m.reachable(root)),
    "mk": lambda m, root: m.and_(root, m.mk(m.level_of("y"), [1, 0, 1])),
    "ref": lambda m, root: (m.ref(root), m.deref(root), m.deref(root), m.ref_count(root)),
    "garbage_collect": lambda m, root: (m.deref(root), m.garbage_collect()),
    "pickle": pickled(MV_ASSIGNMENTS, node_state),
}


@pytest.mark.parametrize("operation", sorted(MDD_OPERATIONS))
def test_first_use_of_a_loaded_romdd_agrees_with_the_oracle(operation):
    loaded, root = converted("loaded")
    oracle, oracle_root = converted("oracle")
    assert "_loaded" in vars(loaded)
    run = MDD_OPERATIONS[operation]
    assert run(loaded, root) == run(oracle, oracle_root)
    assert_same_arrays(loaded, oracle)
    assert node_state(loaded) == node_state(oracle)


def test_pickled_romdd_builds_its_lists_on_first_use():
    loaded, root = converted("loaded")
    oracle, _ = converted("oracle")
    copy = pickle.loads(pickle.dumps(loaded))
    assert "_loaded" in vars(copy)
    assert_same_arrays(copy, oracle)
    assert node_state(copy) == node_state(oracle)
    assert copy.garbage_collect() == oracle.garbage_collect()


# ---------------------------------------------------------------------- #
# ROBDD: load_diagram against the gate-loop manager it was loaded from
# ---------------------------------------------------------------------- #


def bdd_pair():
    """A gate-loop ROBDD and a fresh manager bulk-loaded with its nodes."""
    circuit = Circuit("mixed")
    a, b, c, d = (circuit.add_input(x) for x in "abcd")
    out = circuit.add_gate(
        GateOp.OR,
        [circuit.add_gate(GateOp.AND, [a, b]), circuit.add_gate(GateOp.XOR, [c, d])],
    )
    circuit.set_output(out)
    order = list("abcd")
    # without collection every intermediate stays and handles follow
    # creation order: children before parents, as the native builder exports
    oracle, root, _ = CircuitBDDBuilder(
        order, track_peak=False, collect_garbage=False
    ).build(circuit, BDDManager(order))
    oracle.ref(root)  # a loaded root holds one reference
    level, low, high = (column[2:] for column in oracle.node_arrays())
    loaded = BDDManager(order)
    loaded.load_diagram(
        level,
        low,
        high,
        root,
        created=oracle.num_nodes_allocated,
        cache_stats=oracle._ite_cache.stats.as_dict(),
    )
    return loaded, oracle, root


BDD_ASSIGNMENTS = [
    dict(zip("abcd", values)) for values in itertools.product((False, True), repeat=4)
]

BDD_OPERATIONS = {
    "evaluate": lambda m, root: [m.evaluate(root, a) for a in BDD_ASSIGNMENTS],
    "size": lambda m, root: (m.size(root), m.sat_count(root)),
    "reachable": lambda m, root: sorted(m.reachable(root)),
    "mk": lambda m, root: m.and_(root, m.var("c")),
    "ref": lambda m, root: (m.ref(root), m.deref(root), m.deref(root), m.ref_count(root)),
    "garbage_collect": lambda m, root: (m.deref(root), m.garbage_collect()),
    "pickle": pickled(BDD_ASSIGNMENTS, bdd_state),
}


@pytest.mark.parametrize("operation", sorted(BDD_OPERATIONS))
def test_first_use_of_a_loaded_robdd_agrees_with_the_oracle(operation):
    loaded, oracle, root = bdd_pair()
    assert "_loaded" in vars(loaded)
    run = BDD_OPERATIONS[operation]
    assert run(loaded, root) == run(oracle, root)
    assert_same_arrays(loaded, oracle)
    assert bdd_state(loaded) == bdd_state(oracle)
    assert loaded.cache_totals() == oracle.cache_totals()


def test_concurrent_first_reads_agree():
    """Threads racing to be a loaded manager's first reader all succeed."""

    def compiled():
        _, built = pipeline_romdd(benchmark_problem("ESEN4x1", mean_defects=1.0), 4)
        return built.mdd_manager, built.mdd_root

    oracle, oracle_root = compiled()
    expected = sorted(oracle.reachable(oracle_root))
    for _ in range(5):
        loaded, root = compiled()
        answers, errors = [], []

        def read():
            try:
                answers.append(sorted(loaded.reachable(root)))
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=read) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert answers == [expected] * len(threads)
        assert node_state(loaded) == node_state(oracle)


# ---------------------------------------------------------------------- #
# Lookups the lazy tables must not swallow
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("cls", [MDDManager, BDDManager])
def test_other_names_keep_raising_attribute_error(cls):
    """Pickle and copy probe optional hooks with getattr; on interpreters
    without ``object.__getstate__`` the probe reaches ``__getattr__``, on an
    instance whose ``__dict__`` may still be empty."""
    blank = cls.__new__(cls)
    for name in ("__getstate__", "__setstate__", "__getnewargs_ex__", "_unique", "_level"):
        with pytest.raises(AttributeError):
            cls.__getattr__(blank, name)
    loaded = converted("loaded")[0] if cls is MDDManager else bdd_pair()[0]
    for name in ("__getstate__", "__setstate__", "_no_such_table"):
        with pytest.raises(AttributeError):
            cls.__getattr__(loaded, name)
    assert "_loaded" in vars(loaded)  # a failed lookup builds nothing


def test_cold_sweep_builds_no_romdd_lists(monkeypatch):
    """The cold path converts, counts and linearizes on the loaded arrays."""
    linearized = []
    from_mdd = LinearizedDiagram.from_mdd.__func__

    def recorded(cls, manager, root):
        linearized.append(manager)
        return from_mdd(cls, manager, root)

    monkeypatch.setattr(LinearizedDiagram, "from_mdd", classmethod(recorded))
    service = SweepService()
    service.density_sweep(
        lambda mean: benchmark_problem("ESEN4x1", mean_defects=mean),
        [0.5, 1.0, 2.0],
        max_defects=6,
    )
    (manager,) = linearized
    assert "_loaded" in vars(manager)
    assert not set(MDDManager._NODE_TABLES) & set(vars(manager))
