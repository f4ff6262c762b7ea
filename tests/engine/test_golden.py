"""Golden record of the paper-table cases, through the sweep service.

MS2 and ESEN4x1 at ``M = 6`` and ESEN4x2 and MS4 at ``M = 5`` with the
paper's best ordering pair ``("w", "ml")``: the coded-ROBDD / ROMDD sizes,
the fault tree's circuit digest, the structure-store digest and exact
yields.  Every value is read from one :class:`SweepService` twice: fresh
(the sweep builds the structure and saves it to the store) and warm (the
same sweep again, served from the caches).  The store digests pin the
structure keys, so stores written by earlier versions keep hitting.

The ROMDD allocation count and a SHA-256 of the fused schedule are pinned
too, on both coded-ROBDD build routes — the native builder and the Python
gate loop (forced by passing a :class:`BDDManager`) — times both
conversion and linearization routes, native and numpy.  Every pair must
give byte-identical fused arrays, so store entries and yields never
depend on which route built them.
"""

import hashlib

import numpy as np
import pytest

from repro.bdd.builder import CircuitBDDBuilder
from repro.bdd.manager import BDDManager
from repro.core.gfunction import GeneralizedFaultTree
from repro.core.method import YieldAnalyzer
from repro.engine import native
from repro.engine.batch import LinearizedDiagram
from repro.engine.service import SweepService, structure_key
from repro.engine.store import StructureStore, digest_of
from repro.mdd.from_bdd import _convert
from repro.ordering import OrderingSpec
from repro.soc import benchmark_problem

DENSITIES = (1.0, 2.0)

GOLDEN = {
    "MS2": {
        "truncation": 6,
        "sizes": (24101, 2034),
        "circuit": "480bf43963a720869f21a44800ce160ee535732d3a53535e6034ed267f58a664",
        "store": "8c63c25cc60c02347a74528614f3cd6edc61163d7d031e1edb21a7bae1d3489b",
        "yields": (0.9838061311242933, 0.9425800885597787),
        "mdd_allocated": 2034,
        "fused": "6ae2ea4b9edc00ca943674ffff15da4045e2251e20f88ce1264b9802f5d42965",
    },
    "ESEN4x1": {
        "truncation": 6,
        "sizes": (10279, 1460),
        "circuit": "7cc7b036e722d07d4616c1aee74b2cbf1285e42f71125ecb9dc566e1065722fd",
        "store": "7c13d053143590a3994f7bd8f96e32a4dea8dd38f76f5de4f08ad31e11688bb6",
        "yields": (0.9834367262223577, 0.9418469867461742),
        "mdd_allocated": 1460,
        "fused": "eee3b890116b9f14715f0c060dac8385ddf9725a2ed09e767ecd3eb0825d9bac",
    },
    "ESEN4x2": {
        "truncation": 5,
        "sizes": (50994, 7735),
        "circuit": "a797e750a20a3f0b8b04f0c29aeeb930e5e0e320431dcd4d2a4df5e071b7e615",
        "store": "ccc0e36cc9dedda5011d0c8dab6320e175af1d089d6ba86338c19155f25aec57",
        "yields": (0.9723821989278082, 0.9074238694473424),
        "mdd_allocated": 7735,
        "fused": "326c777e096a15d2c4713a1d7d5951cffbcd93bc584bc96eb2f788368986a117",
    },
    "MS4": {
        "truncation": 5,
        "sizes": (43434, 4791),
        "circuit": "94ad825aa252ec7ea201a5c62ffe78ead132f530d4e9987b1573143207394e52",
        "store": "dca30460f345ca243314a936bb37b097a61650f9b399d9e3feec2d9c3a191ea8",
        "yields": (0.9898275308036171, 0.9615871630955453),
        "mdd_allocated": 4791,
        "fused": "ef6e512adce925aae65fc62927a12b4ccd7a81ba4a107b0e56565b09caf4e8c4",
    },
}


def fused_digest(diagram):
    """SHA-256 over the fused schedule arrays, root slot and slot count."""
    schedule = diagram.fused()
    digest = hashlib.sha256()
    for array in (schedule.kids, schedule.seg, schedule.slot_levels, schedule.bounds):
        digest.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    digest.update(np.array([diagram.root_slot, diagram.num_slots], dtype=np.int64).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_record_fresh_then_warm(name, tmp_path):
    golden = GOLDEN[name]
    truncation = golden["truncation"]
    store_dir = str(tmp_path / "store")
    service = SweepService(store_dir=store_dir)

    def factory(mean):
        return benchmark_problem(name, mean_defects=mean)

    for state in ("fresh", "warm"):
        rows = service.density_sweep(factory, DENSITIES, max_defects=truncation)
        assert rows == [
            (mean, value, truncation) for mean, value in zip(DENSITIES, golden["yields"])
        ], state
        result = service.evaluate(factory(DENSITIES[0]), max_defects=truncation)
        assert (result.coded_robdd_size, result.romdd_size) == golden["sizes"], state

        problem = factory(DENSITIES[0])
        assert problem.fault_tree.digest() == golden["circuit"], state
        skey = structure_key(problem, truncation, service.ordering)
        assert skey[0] == golden["circuit"], state
        assert digest_of(skey) == golden["store"], state

        store = StructureStore(store_dir)
        assert [entry.digest for entry in store.entries()] == [golden["store"]], state
        diagnostics = store.meta_of(golden["store"])["diagnostics"]
        sizes = (diagnostics["coded_robdd_size"], diagnostics["romdd_size"])
        assert sizes == golden["sizes"], state
        assert diagnostics["mdd_allocated"] == golden["mdd_allocated"], state

    # the warm pass was served from the caches: one build in total
    assert service.registry.counter("service.structures.built") == 1
    assert service.registry.counter("service.points.evaluated") == 2 * (len(DENSITIES) + 1)


@pytest.mark.parametrize("route", ["native", "python"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_fused_schedule_on_both_build_routes(name, route):
    golden = GOLDEN[name]
    problem = benchmark_problem(name, mean_defects=DENSITIES[0])
    truncation = golden["truncation"]
    grouped = YieldAnalyzer(OrderingSpec("w", "ml")).grouped_order_for(problem, truncation)
    order = grouped.flat_bit_order()
    circuit = GeneralizedFaultTree(
        problem.fault_tree, problem.component_names, truncation
    ).binary_circuit()

    # a supplied manager keeps the build on the gate loop
    manager = BDDManager(order) if route == "python" else None
    bdd, root, stats = CircuitBDDBuilder(order, track_peak=False).build(circuit, manager)
    expected = "native" if route == "native" and native.available() else "python"
    assert stats.backend == expected

    # every conversion and linearization route: numpy, and native where
    # the library loads
    for use_native in (False, True) if native.available() else (False,):
        mdd, mdd_root = _convert(bdd, root, grouped.groups, native=use_native)
        assert (stats.final_size, mdd.size(mdd_root)) == golden["sizes"]
        assert mdd.num_nodes_allocated == golden["mdd_allocated"]
        diagram = LinearizedDiagram._linearize(mdd, mdd_root, native=use_native)
        assert fused_digest(diagram) == golden["fused"]


#: The fixed densities of the 96-point sweep digests.
SWEEP = tuple(0.05 + 0.03 * i for i in range(96))

#: Density of the pinned gradient sensitivities.
GRADIENT_DENSITY = 1.5

#: ``(results, sensitivity)`` SHA-256 digests per golden structure: every
#: ``YieldResult`` field but the timings over the 96-point sweep, and the
#: ``sensitivity`` of ``gradients`` at ``GRADIENT_DENSITY``.  The one
#: build-route diagnostic, ``extra["robdd_allocated"]`` (the native builder
#: and the gate loop allocate different node counts), is left out of the
#: digest and checked to be one value across the sweep instead.
SWEEP_DIGESTS = {
    "MS2": (
        "d2d7f1e64058cc8f890a0e52432bf288f8a8fee24fcd592cc0535ebc29122749",
        "dac58f6014cb07990ef988affe94f61ba9566beeb763200645921329b0ccba3f",
    ),
    "ESEN4x1": (
        "834824dc58018af4b615bfa05da9851a08454bcb78bf9dcd33867758ffd6bfba",
        "08a301b892df1b1591bbaa55a839ed56ba41fc9b8bc247e3b47707da7312ba23",
    ),
    "ESEN4x2": (
        "b498e14ebee0493705e7e59bd8631d7e38dd06ddfd440e894f02da6c01186719",
        "0190b7003617b8949b676a906f6510fca71d017ddef07deb0abbd42bec257b4d",
    ),
    "MS4": (
        "71f1fa971b74d5638fe8395fe31f4e56c08773ddf5570a04df76ccec019ee1ec",
        "fc6179de40001f9824ea2a79a7d21ff6307be6cc4c05155606520a508b1a2782",
    ),
}


def results_digest(results):
    """SHA-256 over every field of the results except their timings."""
    digest = hashlib.sha256()
    for r in results:
        fields = (
            r.name,
            r.yield_estimate,
            r.error_bound,
            r.truncation,
            r.probability_not_functioning,
            r.coded_robdd_size,
            r.robdd_peak,
            r.romdd_size,
            r.ordering,
            r.variable_order,
            sorted(item for item in r.extra.items() if item[0] != "robdd_allocated"),
        )
        digest.update(repr(fields).encode())
    return digest.hexdigest()


def sensitivity_digest(gradients):
    return hashlib.sha256(repr(list(gradients.sensitivity.items())).encode()).hexdigest()


def sweep_points(name, truncation):
    from repro.engine.service import SweepPoint

    return [
        SweepPoint(benchmark_problem(name, mean_defects=mean), max_defects=truncation)
        for mean in SWEEP
    ]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_sweep_and_gradient_digests(name):
    truncation = GOLDEN[name]["truncation"]
    service = SweepService()
    results = service.evaluate_batch(sweep_points(name, truncation))
    gradients = service.gradients(
        benchmark_problem(name, mean_defects=GRADIENT_DENSITY), max_defects=truncation
    )
    assert (results_digest(results), sensitivity_digest(gradients)) == SWEEP_DIGESTS[name]
    assert len({r.extra["robdd_allocated"] for r in results}) == 1


def test_golden_sweep_digests_on_the_whole_group_pool_route(tmp_path):
    """Two golden structures in one batch on a fresh ``workers=2`` service:
    a fan-out thread builds each, the pass evaluates all 96 points, and each
    group's digest is its serial pin (a fresh build, not a reuse)."""
    names = ["ESEN4x1", "MS2"]
    points = [
        point
        for name in names
        for point in sweep_points(name, GOLDEN[name]["truncation"])
    ]
    service = SweepService(workers=2, store_dir=str(tmp_path / "store"))
    results = service.evaluate_batch(points)
    assert service.registry.counter("service.batches.parallel") == 1
    assert service.registry.counter("service.structures.built") == len(names)
    assert service.registry.counter("service.structures.reused") == 0
    for index, name in enumerate(names):
        group = results[index * len(SWEEP) : (index + 1) * len(SWEEP)]
        assert results_digest(group) == SWEEP_DIGESTS[name][0]


def test_golden_sweep_digest_on_the_default_pooled_route(tmp_path):
    name = "ESEN4x1"
    truncation = GOLDEN[name]["truncation"]
    primer = benchmark_problem(name, mean_defects=1.0)
    service = SweepService(workers=2, store_dir=str(tmp_path / "store"))
    # a held structure: the sweep takes the default in-process route
    service.prime_structure(primer, truncation)
    results = service.evaluate_batch(sweep_points(name, truncation))
    assert service.registry.counter("dispatch.groups_in_process") == 1
    assert service.registry.counter("service.batches.parallel") == 0
    # a reused structure flags its results, so the reference is a primed
    # serial service rather than the fresh pin
    serial = SweepService()
    serial.prime_structure(primer, truncation)
    expected = serial.evaluate_batch(sweep_points(name, truncation))
    assert results_digest(results) == results_digest(expected)
