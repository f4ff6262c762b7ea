"""The native ROMDD conversion and linearization: checks, fallback, threads.

:func:`repro.engine.native.convert_bdd` and
:func:`repro.engine.native.linearize_mdd` take arrays straight from the
managers.  Every array is checked before its pointer reaches C, so
malformed input raises :class:`ValueError` (the C side rejects what only a
walk can see — a child that is not deeper, a reachable free slot — with a
status that raises the same).  A host without a compiler converts and
linearizes on numpy with byte-identical results, and the ``compile.romdd``
span records which route ran.  Concurrent calls share no state.  The
oracle tests of ``tests/property/test_array_routes.py`` pin both routes'
outputs.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.bdd.builder import CircuitBDDBuilder
from repro.core.method import YieldAnalyzer
from repro.engine import native
from repro.engine.batch import LinearizedDiagram
from repro.mdd.from_bdd import _bit_positions, _convert, _validate_grouping, convert_bdd_to_mdd
from repro.mdd.manager import MDDManager
from repro.obs import trace as obs_trace
from repro.ordering import OrderingSpec
from repro.soc import benchmark_problem
from tests.bdd.test_native_build import coded_circuit, fused_arrays

needs_native = pytest.mark.skipif(
    not native.available(), reason="the native library cannot be built here"
)


def coded_robdd(name, truncation):
    circuit, grouped = coded_circuit(benchmark_problem(name, mean_defects=1.0), "w", truncation)
    bdd, root, _ = CircuitBDDBuilder(grouped.flat_bit_order(), track_peak=False).build(circuit)
    return bdd, root, grouped


def conversion_inputs(bdd, root, groups):
    """The arguments :func:`repro.mdd.from_bdd._convert` passes the library."""
    per_level = _validate_grouping(bdd, groups, _bit_positions(groups))
    level_layers, level_bits = (np.array(column, dtype=np.int64) for column in zip(*per_level))
    codes = [
        np.array([variable.code.codeword(v) for v in variable.values], dtype=np.int64)
        for variable, _ in groups
    ]
    level, low, high = (np.array(array) for array in bdd.node_arrays())
    return [level, low, high, root, level_layers, level_bits, codes]


def manager_state(mdd):
    return tuple(array.tobytes() for array in mdd.node_arrays())


@pytest.fixture(scope="module")
def small():
    return coded_robdd("ESEN4x1", 3)


def replaced(arguments, index, value):
    arguments = list(arguments)
    arguments[index] = value
    return arguments


@needs_native
def test_malformed_conversion_inputs_raise_value_error(small):
    bdd, root, grouped = small
    good = conversion_inputs(bdd, root, grouped.groups)
    level, low, high, _, level_layers, level_bits, codes = good
    n = len(level)
    far = high.copy()
    far[-1] = n
    shallow = level.copy()
    shallow[low[root]] = level[root]  # a child at its parent's level
    free = level.copy()
    free[high[root]] = -1  # a reachable free slot
    bad_layers = level_layers.copy()
    bad_layers[0] = level_layers[-1]
    wide_bits = level_bits.copy()
    wide_bits[0] = codes[level_layers[0]].shape[1]
    three = [table.copy() for table in codes]
    three[0][0, 0] = 3
    flat = [table.ravel() for table in codes]
    cases = [
        (0, level.astype(np.int32)),
        (1, np.repeat(low, 2)[::2]),  # not contiguous
        (2, high[:-1]),
        (2, far),
        (3, 1),
        (3, n),
        (4, bad_layers),
        (5, wide_bits),
        (6, three),
        (6, flat),
        (6, []),
        (0, shallow),
        (0, free),
    ]
    for index, value in cases:
        with pytest.raises(ValueError):
            native.convert_bdd(*replaced(good, index, value))
    # the good arguments still convert, to the numpy route's layers
    layers, image = native.convert_bdd(*good)
    mdd, mdd_root = _convert(bdd, root, grouped.groups, native=False)
    assert image == mdd_root
    assert np.concatenate([rows.ravel() for _, rows in layers]).tolist() == (
        mdd.node_arrays()[2].tolist()
    )


@needs_native
def test_loaded_children_share_memory_with_the_export(small):
    """A native conversion's child array is loaded as it is, not copied."""
    bdd, root, grouped = small
    layers, image = native.convert_bdd(*conversion_inputs(bdd, root, grouped.groups))
    exported = layers[0][1].base
    mdd = MDDManager([variable for variable, _ in grouped.groups])
    mdd.load_layers(layers, image)
    children = mdd.node_arrays()[2]
    assert np.shares_memory(children, exported)
    assert children.tolist() == np.concatenate([rows.ravel() for _, rows in layers]).tolist()
    # rows of any other origin are joined into a fresh array
    copies = [(layer, rows.copy()) for layer, rows in layers]
    numpy_loaded = MDDManager([variable for variable, _ in grouped.groups])
    numpy_loaded.load_layers(copies, image)
    assert not np.shares_memory(numpy_loaded.node_arrays()[2], exported)
    assert manager_state(numpy_loaded) == manager_state(mdd)


@needs_native
def test_malformed_linearization_inputs_raise_value_error(small):
    bdd, root, grouped = small
    mdd, mdd_root = convert_bdd_to_mdd(bdd, root, grouped.groups)
    level, offsets, children = (np.array(array) for array in mdd.node_arrays())
    good = [level, offsets, children, mdd_root, mdd.num_variables]
    backwards = offsets.copy()
    backwards[2], backwards[3] = backwards[3], backwards[2] - 1
    far = children.copy()
    far[-1] = len(level)
    deep = level.copy()
    deep[mdd_root] = mdd.num_variables  # a walked node below every level
    cases = [
        (0, level.astype(np.float64)),
        (1, offsets[:-1]),
        (1, backwards),
        (1, offsets + 1),
        (2, far),
        (2, children[::-1]),
        (3, 1),
        (3, len(level)),
        (4, 0),
        (0, deep),
    ]
    for index, value in cases:
        with pytest.raises(ValueError):
            native.linearize_mdd(*replaced(good, index, value))
    # the root (level 0) above two level-1 nodes with two and three
    # children, then above a level-1 node without children
    terminal = 1 << 30
    for arrays in (
        ([terminal, terminal, 1, 1, 0], [0, 0, 0, 2, 5, 7], [0, 1, 0, 1, 0, 2, 3], 4),
        ([terminal, terminal, 1, 0], [0, 0, 0, 0, 2], [2, 1], 3),
    ):
        *csr, root_handle = (np.array(a, dtype=np.int64) for a in arrays)
        with pytest.raises(ValueError):
            native.linearize_mdd(*csr, int(root_handle), 2)
    root_slot, num_slots, arrays = native.linearize_mdd(*good)
    diagram = LinearizedDiagram.from_fused_arrays(root_slot, num_slots, *arrays)
    assert fused_arrays(bdd, root, grouped) == (
        diagram.root_slot,
        diagram.num_slots,
        diagram.fused().bounds,
        *(np.asarray(a, dtype=np.int64).tobytes() for a in arrays[:3]),
    )


def test_out_of_memory_status_raises_memory_error():
    with pytest.raises(MemoryError):
        native._raise_for(native.BUILD_NO_MEMORY, "ROMDD conversion")
    with pytest.raises(ValueError):
        native._raise_for(native.BUILD_INVALID, "ROMDD conversion")
    native._raise_for(native.BUILD_OK, "ROMDD conversion")


def romdd_backend(analyzer, problem):
    tracer = obs_trace.start()
    try:
        analyzer.compile_for_truncation(problem, 3)
    finally:
        obs_trace.stop()
    (span,) = [s for s in tracer.spans() if s["name"] == "compile.romdd"]
    return span["args"]["backend"]


def test_no_compiler_converts_byte_identically(tmp_path, monkeypatch):
    bdd, root, grouped = coded_robdd("MS2", 4)
    problem = benchmark_problem("MS2", mean_defects=1.0)
    analyzer = YieldAnalyzer(OrderingSpec("w", "ml"))
    mdd, mdd_root = convert_bdd_to_mdd(bdd, root, grouped.groups)  # native when it loads
    reference = (manager_state(mdd), fused_arrays(bdd, root, grouped))
    expected = "native" if native.available() else "numpy"
    assert romdd_backend(analyzer, problem) == expected

    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
    monkeypatch.setenv("CC", "/nonexistent")
    native.reset()
    try:
        assert not native.available()
        mdd, mdd_root = convert_bdd_to_mdd(bdd, root, grouped.groups)
        assert "_loaded" in vars(mdd)  # a cold conversion builds no node lists
        assert (manager_state(mdd), fused_arrays(bdd, root, grouped)) == reference
        assert romdd_backend(analyzer, problem) == "numpy"
        with pytest.raises(native.NativeError):
            native.convert_bdd(*conversion_inputs(bdd, root, grouped.groups))
    finally:
        native.reset()


@needs_native
def test_concurrent_conversions_equal_serial_conversions():
    """Eight threads, four structures: no state is shared between calls."""
    structures = [("MS2", 4), ("ESEN4x1", 5), ("MS4", 3), ("ESEN4x2", 3)]
    jobs = [coded_robdd(name, truncation) for name, truncation in structures]

    def run(job):
        bdd, root, grouped = job
        mdd, mdd_root = _convert(bdd, root, grouped.groups, native=True)
        diagram = LinearizedDiagram._linearize(mdd, mdd_root, native=True)
        schedule = diagram.fused()
        return (
            manager_state(mdd),
            mdd_root,
            diagram.root_slot,
            diagram.num_slots,
            schedule.bounds,
            *(np.asarray(a).tobytes() for a in (schedule.kids, schedule.seg, schedule.slot_levels)),
        )

    serial = [run(job) for job in jobs]
    results = {}
    errors = []

    def worker(index):
        try:
            for round_ in range(2):
                job = (index + round_) % len(jobs)
                results[(index, round_)] = (job, run(jobs[job]))
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    deadline = time.monotonic() + 120.0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the Python parts of the calls
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), "calls did not finish in time"
    assert not errors
    assert len(results) == 16
    for job, outcome in results.values():
        assert outcome == serial[job]
