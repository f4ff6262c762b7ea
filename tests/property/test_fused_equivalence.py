"""Property tests: native IS the fused kernel IS the recursive traversal.

The fused CSR schedule (blocked workspace accumulation plus model-uniform
level collapse) and the native compiled backend behind it must not change
a single bit of any result: for every diagram shape the engine produces —
pipeline ROMDDs compiled through the full method, the multi-valued layouts
the static ``wv``, ``vw`` and ``vrw`` orders permute, chains far deeper
than the recursion limit, degenerate 0/1 probability columns — the
native kernel's ``evaluate`` *and* ``backward``
outputs are compared ``==`` (never approx) against the fused kernel's,
and the fused probabilities ``==`` against the original recursive
traversal (the gradients are checked against finite differences in
``test_gradient_equivalence.py``).  On hosts without a working C compiler
``kernel="native"`` degrades to the fused kernel, so the native leg still
runs (and still compares ``==``) — it just exercises the fallback
instead.  The store leg pins format v2 round trips to the same
bit-for-bit bar, and v1 entries to a clean miss-and-rebuild.
"""

import json
import os

import numpy as np

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.method import YieldAnalyzer
from repro.core.problem import YieldProblem
from repro.distributions import (
    ComponentDefectModel,
    NegativeBinomialDefectDistribution,
    PoissonDefectDistribution,
)
from repro.engine import native as native_backend
from repro.engine.batch import LinearizedDiagram
from repro.engine.service import SweepPoint, SweepService, structure_key
from repro.engine.store import StructureStore, digest_of
from repro.faulttree import FaultTreeBuilder
from repro.faulttree.multivalued import MultiValuedVariable
from repro.mdd.manager import FALSE, TRUE, MDDManager
from repro.mdd.probability import (
    VariableDistributions,
    level_columns_for,
    probability_of_one_reference,
)
from repro.ordering import OrderingSpec
from tests.engine.test_golden import fused_digest
from tests.mdd.oracles import pipeline_romdd

COMPONENTS = ["C0", "C1", "C2", "C3", "C4"]


def structure_expressions():
    leaves = st.sampled_from(COMPONENTS)

    def extend(children):
        return st.one_of(
            st.tuples(st.just("and"), children, children),
            st.tuples(st.just("or"), children, children),
            st.tuples(st.just("k2"), children, children, children),
        )

    return st.recursive(leaves, extend, max_leaves=7)


def build_problem(expr, weights, mean, clustering):
    ft = FaultTreeBuilder("random")

    def build(node):
        if isinstance(node, str):
            return ft.failed(node)
        if node[0] == "and":
            return ft.and_(build(node[1]), build(node[2]))
        if node[0] == "or":
            return ft.or_(build(node[1]), build(node[2]))
        return ft.at_least(2, [build(node[1]), build(node[2]), build(node[3])])

    ft.set_top(build(expr))
    circuit = ft.build()
    model = ComponentDefectModel.from_relative_weights(
        dict(zip(COMPONENTS, weights)), lethality=0.5
    )
    distribution = NegativeBinomialDefectDistribution(mean=mean, clustering=clustering)
    return YieldProblem(circuit, model, distribution, name="random")


def model_columns(gfunction, built, problems):
    """Per-level tuple-row columns (converted once by the pass), over the
    linearization of the pipeline step's ROMDD."""
    lethal = [p.lethal_defect_distribution() for p in problems]
    distributions = [
        gfunction.variable_distributions(dist, p.lethal_component_probabilities())
        for dist, p in zip(lethal, problems)
    ]
    linearized = LinearizedDiagram.from_mdd(built.mdd_manager, built.mdd_root)
    validated = [VariableDistributions(built.mdd_manager, d) for d in distributions]
    return linearized, level_columns_for(linearized, validated), distributions


def reference(built, distributions):
    """The recursive traversal of the pipeline step's ROMDD, per model."""
    return [
        probability_of_one_reference(built.mdd_manager, built.mdd_root, d)
        for d in distributions
    ]


def assert_kernels_agree(linearized, columns, num_models, expected=None):
    """Evaluate + backward on both kernels, compared ``==``.

    Probabilities and gradients are bit-for-bit identical between the
    native and fused kernels — the guarantee the compiled backend must
    uphold — and the probabilities equal the recursive reference, when
    given.  The native leg runs even where the library cannot load: it
    then exercises the documented fused fallback, whose results are the
    fused results.
    """
    results = {}
    for kernel in ("fused", "native"):
        probabilities = linearized.evaluate(columns, num_models, kernel=kernel)
        grad_probabilities, gradients = linearized.backward(
            columns, num_models, kernel=kernel
        )
        assert grad_probabilities == probabilities  # forward == backward forward
        results[kernel] = (probabilities, gradients)
    assert results["native"] == results["fused"]  # bit-for-bit, not approx
    if expected is not None:
        assert results["fused"][0] == expected  # bit-for-bit, not approx
    return results["fused"]


@settings(max_examples=20, deadline=None)
@given(
    structure_expressions(),
    st.lists(st.floats(min_value=0.1, max_value=3.0), min_size=5, max_size=5),
    st.lists(st.floats(min_value=0.2, max_value=3.0), min_size=2, max_size=5),
    st.floats(min_value=0.5, max_value=8.0),
    st.integers(min_value=1, max_value=4),
)
def test_fused_matches_reference_on_pipeline_romdds(
    expr, weights, means, clustering, truncation
):
    problems = [build_problem(expr, weights, mean, clustering) for mean in means]
    gfunction, built = pipeline_romdd(problems[0], truncation, OrderingSpec("w", "ml"))
    linearized, columns, distributions = model_columns(gfunction, built, problems)
    expected = reference(built, distributions)
    assert_kernels_agree(linearized, columns, len(problems), expected)


@settings(max_examples=10, deadline=None)
@given(
    structure_expressions(),
    st.lists(st.floats(min_value=0.1, max_value=3.0), min_size=5, max_size=5),
    st.floats(min_value=0.2, max_value=3.0),
    st.integers(min_value=1, max_value=3),
    st.sampled_from(("wv", "vw", "vrw")),
)
def test_fused_matches_reference_on_permuted_layouts(expr, weights, mean, truncation, mv):
    """The static orders permute the multi-valued layout; the kernels must not care."""
    problem = build_problem(expr, weights, mean, 4.0)
    gfunction, built = pipeline_romdd(problem, truncation, OrderingSpec(mv, "ml"))
    # a small density batch over the permuted structure: its location
    # columns are model-uniform, so under ``wv`` (count variable on top)
    # the fused kernel's model collapse engages
    problems = [
        build_problem(expr, weights, m, 4.0) for m in (mean, mean + 0.3, mean + 0.7)
    ]
    linearized, columns, distributions = model_columns(gfunction, built, problems)
    expected = reference(built, distributions)
    fused_before = linearized.fused_passes
    native_before = linearized.native_passes
    collapsed_before = linearized.collapsed_layers
    assert_kernels_agree(linearized, columns, len(problems), expected)
    # evaluate + backward per kernel; the native legs either ran natively
    # or (no compiler on this host) degraded into two more fused passes
    native_delta = linearized.native_passes - native_before
    fused_delta = linearized.fused_passes - fused_before
    if native_backend.available():
        assert native_delta == 2 and fused_delta == 2
    else:
        assert native_delta == 0 and fused_delta == 4
    # the deepest layer's children are terminals, so when its columns are
    # model-uniform (every location level of this density-style batch) the
    # fused passes must have collapsed it to a width-1 evaluation
    deepest = tuple(zip(*columns[linearized.levels[0]]))
    if all(model_column == deepest[0] for model_column in deepest):
        assert linearized.collapsed_layers > collapsed_before


class TestDeepChains:
    DEPTH = 1500

    @pytest.fixture(scope="class")
    def chain(self):
        variables = [
            MultiValuedVariable("x%d" % i, range(2)) for i in range(self.DEPTH)
        ]
        manager = MDDManager(variables)
        node = TRUE
        for level in reversed(range(self.DEPTH)):
            node = manager.mk(level, (FALSE, node))
        return manager, node

    def test_fused_kernel_on_1500_deep_chain(self, chain):
        manager, root = chain
        linearized = LinearizedDiagram.from_mdd(manager, root)
        models = [0.999, 0.9995, 0.5, 1.0]
        columns = {
            level: tuple(
                zip(*[[1.0 - p, p] for p in models])
            )
            for level in range(self.DEPTH)
        }
        probabilities = assert_kernels_agree(linearized, columns, len(models))[0]
        assert probabilities[0] == pytest.approx(0.999 ** self.DEPTH, rel=1e-9)
        assert probabilities[3] == 1.0  # exact: every level contributes 1.0

    def test_chain_through_store_v2_round_trip(self, chain, tmp_path):
        """Fused arrays of a deep chain survive the v2 store bit-for-bit."""
        manager, root = chain
        linearized = LinearizedDiagram.from_mdd(manager, root)
        schedule = linearized.fused()
        restored = LinearizedDiagram.from_fused_arrays(
            linearized.root_slot,
            linearized.num_slots,
            schedule.kids,
            schedule.seg,
            schedule.slot_levels,
            schedule.bounds,
        )
        assert fused_digest(restored) == fused_digest(linearized)
        columns = {
            level: ((0.001, 0.3), (0.999, 0.7)) for level in range(self.DEPTH)
        }
        expected = linearized.evaluate(columns, 2, kernel="fused")
        for kernel in ("fused", "native"):
            assert restored.evaluate(columns, 2, kernel=kernel) == expected


class TestDegenerateColumns:
    """Exact 0/1 probabilities must flow through every kernel unchanged."""

    def build(self):
        ft = FaultTreeBuilder("degenerate")
        ft.set_top(ft.k_out_of_n_failed(2, ["M1", "M2", "M3"]))
        model = ComponentDefectModel.uniform(["M1", "M2", "M3"], lethality=0.8)
        # extreme Poisson means underflow the pmf to exact 0/1 columns
        problems = [
            YieldProblem(ft.build(), model, PoissonDefectDistribution(mean=mean))
            for mean in (1e5, 1e-18, 1.0)
        ]
        return problems

    def test_kernels_agree_on_underflowed_columns(self):
        problems = self.build()
        gfunction, built = pipeline_romdd(problems[0], 3)
        linearized, columns, distributions = model_columns(gfunction, built, problems)
        expected = reference(built, distributions)
        probabilities = assert_kernels_agree(
            linearized, columns, len(problems), expected
        )[0]
        assert probabilities[0] == 1.0  # certain failure at mean 1e5


class TestStoreMigration:
    """v1 entries load as misses and are rebuilt; v2 round-trips are exact."""

    def compile_one(self):
        ft = FaultTreeBuilder("migrate")
        ft.set_top(ft.k_out_of_n_failed(2, ["M1", "M2", "M3"]))
        tree = ft.build()
        model = ComponentDefectModel.uniform(["M1", "M2", "M3"], lethality=0.8)

        def make(mean):
            return YieldProblem(
                tree, model, PoissonDefectDistribution(mean=mean), name="migrate"
            )

        problem = make(1.0)
        ordering = OrderingSpec("w", "ml")
        compiled = YieldAnalyzer(ordering).compile_for_truncation(problem, 3)
        skey = structure_key(problem, 3, ordering)
        return make, compiled, skey

    def write_v1_entry(self, store, skey, compiled):
        """Write an entry in the legacy v1 layout (npz layer arrays)."""
        digest = digest_of(skey)
        store.save(skey, compiled)  # v2 files + correct metadata to start from
        json_path = store._json_path(digest)
        with open(json_path) as handle:
            meta = json.load(handle)
        schedule = compiled.linearized().fused()
        arrays = {}
        for index, (level, s0, s1, e0, e1, card) in enumerate(schedule.bounds):
            arrays["slots_%d" % index] = np.arange(s0, s1, dtype=np.int64)
            # v1 stored node-major kid rows: one row of children per node
            arrays["kids_%d" % index] = schedule.kids[e0:e1].reshape(card, s1 - s0).T
        np.savez(store._sidecar(digest, ".npz"), **arrays)
        for suffix in (".kids.npy", ".seg.npy", ".levels.npy", ".bounds.npy"):
            os.unlink(store._sidecar(digest, suffix))
        meta["version"] = 1
        meta["linearized"]["encoding"] = "npz"
        meta["linearized"]["levels"] = [bound[0] for bound in schedule.bounds]
        del meta["checksums"]
        with open(json_path, "w") as handle:
            json.dump(meta, handle)

    def test_v1_entry_loads_as_a_miss(self, tmp_path):
        make, compiled, skey = self.compile_one()
        store = StructureStore(str(tmp_path / "v1"))
        self.write_v1_entry(store, skey, compiled)
        digest = digest_of(skey)
        assert store.load(skey, mmap=True) is None  # like any unsupported version
        assert store.entries() == []
        ok, problems = store.verify_entry(digest)
        assert not ok and problems

    def test_v1_entry_migrates_to_v2_on_save(self, tmp_path):
        """A service rebuild over a v1 entry leaves a clean v2 entry."""
        make, compiled, skey = self.compile_one()
        store_dir = str(tmp_path / "store")
        store = StructureStore(store_dir)
        self.write_v1_entry(store, skey, compiled)
        digest = digest_of(skey)
        assert os.path.exists(store._sidecar(digest, ".npz"))

        problems = [make(m) for m in (0.7, 1.3)]
        service = SweepService(store_dir=store_dir)
        rows = service.evaluate_batch([SweepPoint(p, max_defects=3) for p in problems])
        assert [r.yield_estimate for r in rows] == [
            r.yield_estimate for r in compiled.evaluate_many(problems)
        ]
        assert service.registry.counter("store.misses") == 1 and service.registry.counter("service.structures.built") == 1
        assert not os.path.exists(store._sidecar(digest, ".npz"))
        for suffix in (".kids.npy", ".seg.npy", ".levels.npy", ".bounds.npy"):
            assert os.path.exists(store._sidecar(digest, suffix))
        with open(store._json_path(digest)) as handle:
            assert json.load(handle)["version"] == 2
        assert store.verify_entry(digest) == (True, [])
        restored, _ = store.load(skey, mmap=True)
        assert [r.yield_estimate for r in restored.evaluate_many(problems)] == [
            r.yield_estimate for r in rows
        ]

    def test_stale_v1_sidecar_is_removed_on_save(self, tmp_path):
        """Saving over a v1 entry that was never loaded drops its .npz."""
        make, compiled, skey = self.compile_one()
        store = StructureStore(str(tmp_path / "store"))
        self.write_v1_entry(store, skey, compiled)
        digest = digest_of(skey)
        assert os.path.exists(store._sidecar(digest, ".npz"))
        store.save(skey, compiled)
        assert not os.path.exists(store._sidecar(digest, ".npz"))
        assert store.verify_entry(digest) == (True, [])

    def test_truncated_v2_array_is_a_miss(self, tmp_path):
        make, compiled, skey = self.compile_one()
        store = StructureStore(str(tmp_path / "store"))
        store.save(skey, compiled)
        digest = digest_of(skey)
        bounds_path = store._sidecar(digest, ".bounds.npy")
        with open(bounds_path, "r+b") as handle:
            handle.truncate(16)
        assert store.load(skey, mmap=True) is None

    def test_bit_rotted_kids_array_is_a_miss(self, tmp_path):
        """Out-of-range children must never load as a silently-wrong hit."""
        make, compiled, skey = self.compile_one()
        store = StructureStore(str(tmp_path / "store"))
        digest = digest_of(skey)
        kids_path = store._sidecar(digest, ".kids.npy")
        for rotten in (-1, 10 ** 6):
            store.save(skey, compiled)
            kids = np.load(kids_path)
            kids[len(kids) // 2] = rotten
            np.save(kids_path, kids)
            assert store.load(skey, mmap=True) is None
