"""Unit tests of the batched probability engine and its service plumbing."""

import pytest

from repro.core.method import YieldAnalyzer
from repro.core.problem import YieldProblem
from repro.distributions import ComponentDefectModel, PoissonDefectDistribution
from repro.engine import native
from repro.engine.batch import BatchEvalError, LinearizedDiagram
from repro.engine.service import SweepPoint, SweepService
from repro.faulttree import FaultTreeBuilder
from repro.faulttree.multivalued import MultiValuedVariable
from repro.mdd.manager import FALSE, TRUE, MDDManager
from repro.mdd.probability import (
    probability_of_many,
    probability_of_one,
    probability_of_one_reference,
)
from repro.ordering import OrderingSpec
from tests.engine.test_golden import fused_digest


def small_manager():
    variables = [
        MultiValuedVariable("w", (0, 1, 2)),
        MultiValuedVariable("v", (1, 2)),
    ]
    manager = MDDManager(variables)
    # f = (w >= 1) AND (v == 2), shares the v node under two w values
    v_node = manager.literal("v", [2])
    root = manager.mk(0, [FALSE, v_node, v_node])
    return manager, root


DIST = {"w": {0: 0.5, 1: 0.3, 2: 0.2}, "v": {1: 0.4, 2: 0.6}}
DIST2 = {"w": {0: 0.1, 1: 0.1, 2: 0.8}, "v": {1: 0.25, 2: 0.75}}


class TestLinearizedDiagram:
    def test_layers_are_bottom_up(self):
        manager, root = small_manager()
        linearized = LinearizedDiagram.from_mdd(manager, root)
        assert linearized.node_count == 2
        assert list(linearized.levels) == [1, 0]
        assert linearized.cardinality_at(0) == 3
        assert linearized.cardinality_at(1) == 2

    def test_terminal_roots(self):
        manager, _ = small_manager()
        for terminal, value in ((FALSE, 0.0), (TRUE, 1.0)):
            linearized = LinearizedDiagram.from_mdd(manager, terminal)
            assert linearized.evaluate({}, 3) == [value] * 3

    def test_matches_recursive_reference_exactly(self):
        manager, root = small_manager()
        expected = probability_of_one_reference(manager, root, DIST)
        assert probability_of_one(manager, root, DIST) == expected
        batched = probability_of_many(manager, root, [DIST, DIST2])
        assert batched[0] == expected
        assert batched[1] == probability_of_one_reference(manager, root, DIST2)

    def test_numpy_path_is_bit_for_bit(self):
        manager, root = small_manager()
        models = [DIST, DIST2] * 4
        reference = [
            probability_of_one_reference(manager, root, model) for model in models
        ]
        assert probability_of_many(manager, root, models) == reference
        linearized = LinearizedDiagram.from_mdd(manager, root)
        columns = {
            0: tuple(tuple(m["w"][value] for m in models) for value in (0, 1, 2)),
            1: tuple(tuple(m["v"][value] for m in models) for value in (1, 2)),
        }
        for kernel in ALL_KERNELS:
            assert linearized.evaluate(columns, len(models), kernel=kernel) == reference

    def test_missing_level_probabilities_raise(self):
        manager, root = small_manager()
        linearized = LinearizedDiagram.from_mdd(manager, root)
        with pytest.raises(BatchEvalError):
            linearized.evaluate({0: ((1.0,), (0.0,), (0.0,))}, 1)

    def test_zero_models_short_circuit(self):
        manager, root = small_manager()
        linearized = LinearizedDiagram.from_mdd(manager, root)
        # K = 0 batches short-circuit identically on every kernel — no
        # columns are read, no pass counters move
        for kernel in ALL_KERNELS:
            assert linearized.evaluate({}, 0, kernel=kernel) == []
            assert linearized.backward({}, 0, kernel=kernel) == ([], {})
        assert linearized.fused_passes == 0
        assert linearized.native_passes == 0
        assert linearized.models_evaluated == 0
        with pytest.raises(BatchEvalError):
            linearized.evaluate({}, -1)

    def test_pass_counters(self):
        manager, root = small_manager()
        linearized = LinearizedDiagram.from_mdd(manager, root)
        columns = {
            0: ((0.5,), (0.3,), (0.2,)),
            1: ((0.4,), (0.6,)),
        }
        linearized.evaluate(columns, 1, kernel="fused")
        assert linearized.fused_passes == 1
        assert linearized.models_evaluated == 1
        linearized.evaluate(columns, 1)
        assert linearized.fused_passes + linearized.native_passes == 2
        assert linearized.models_evaluated == 2


COLUMNS_1 = {0: ((0.5,), (0.3,), (0.2,)), 1: ((0.4,), (0.6,))}
#: ``native`` degrades to ``fused`` where the library cannot load.
ALL_KERNELS = ["fused", "native"]


class TestKernelDecision:
    """The kernel is resolved once per pass: native if it loads, else fused."""

    def test_exactly_one_kernel_family_per_pass(self):
        manager, root = small_manager()
        linearized = LinearizedDiagram.from_mdd(manager, root)
        for kernel in ALL_KERNELS + [None]:
            before = linearized.fused_passes + linearized.native_passes
            linearized.evaluate(COLUMNS_1, 1, kernel=kernel)
            moved = linearized.fused_passes + linearized.native_passes - before
            assert moved == 1  # one pass, one kernel — never a mix

    def test_auto_resolves_native_else_fused(self):
        manager, root = small_manager()
        linearized = LinearizedDiagram.from_mdd(manager, root)
        fallbacks = native.counters()["fallbacks"]
        # even a one-model pass over a two-node diagram takes the backend
        # that loads: there is no size threshold
        linearized.evaluate(COLUMNS_1, 1)
        if native.available():
            assert linearized.last_kernel == "native"
            assert linearized.native_passes == 1
            assert native.counters()["fallbacks"] == fallbacks
        else:
            assert linearized.last_kernel == "fused"
            assert linearized.fused_passes == 1
            assert native.counters()["fallbacks"] == fallbacks + 1
        linearized.evaluate(COLUMNS_1, 1, kernel="fused")
        assert linearized.last_kernel == "fused"

    def test_unknown_kernel_rejected(self):
        manager, root = small_manager()
        linearized = LinearizedDiagram.from_mdd(manager, root)
        for kernel in ("simd", "python", "layered", "auto"):
            with pytest.raises(BatchEvalError):
                linearized.evaluate(COLUMNS_1, 1, kernel=kernel)

    def test_non_contiguous_slots_are_rejected(self):
        # hand-built layers with a slot gap cannot be compiled into the
        # fused schedule, the diagram's only representation
        layers = ((0, (3,), ((0, 1, 1),)),)
        with pytest.raises(BatchEvalError):
            LinearizedDiagram(3, 4, layers)


class TestColumnShapes:
    """Every level's matrix must be ``cardinality x K`` on both kernels."""

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    @pytest.mark.parametrize("width", [1, 3])
    def test_wrong_model_width_is_rejected(self, kernel, width):
        manager, root = small_manager()
        linearized = LinearizedDiagram.from_mdd(manager, root)
        columns = {
            0: tuple((p,) * width for p in (0.5, 0.3, 0.2)),
            1: tuple((p,) * width for p in (0.4, 0.6)),
        }
        # K = 2: width-1 columns would broadcast silently in the fused
        # kernel, width-3 columns would fail deep inside numpy
        for run in (linearized.evaluate, linearized.backward):
            with pytest.raises(BatchEvalError):
                run(columns, 2, kernel=kernel)
        assert linearized.fused_passes == linearized.native_passes == 0

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_wrong_cardinality_is_rejected(self, kernel):
        manager, root = small_manager()
        linearized = LinearizedDiagram.from_mdd(manager, root)
        for columns in (
            {0: ((0.5,), (0.5,)), 1: ((0.4,), (0.6,))},
            {0: ((0.5,), (0.3,), (0.2,)), 1: ((0.4,), (0.6, 0.1))},
        ):
            with pytest.raises(BatchEvalError):
                linearized.evaluate(columns, 1, kernel=kernel)


class TestDegenerateInputs:
    """Terminal-only and single-layer diagrams short-circuit identically."""

    def test_terminal_only_diagrams_on_every_kernel(self):
        manager, _ = small_manager()
        for terminal, value in ((FALSE, 0.0), (TRUE, 1.0)):
            linearized = LinearizedDiagram.from_mdd(manager, terminal)
            assert linearized.root_slot <= 1
            for kernel in ALL_KERNELS:
                assert linearized.evaluate({}, 3, kernel=kernel) == [value] * 3
                probabilities, gradients = linearized.backward({}, 3, kernel=kernel)
                assert probabilities == [value] * 3
                assert gradients == {}
            assert linearized.fused_passes == 0  # short-circuits, no pass
            assert linearized.native_passes == 0

    def test_single_layer_diagram_on_every_kernel(self):
        variables = [MultiValuedVariable("w", (0, 1, 2))]
        manager = MDDManager(variables)
        root = manager.mk(0, [FALSE, TRUE, TRUE])
        linearized = LinearizedDiagram.from_mdd(manager, root)
        assert linearized.levels == (0,)
        columns = {0: ((0.5, 0.1), (0.3, 0.2), (0.2, 0.7))}
        expected = [0.3 + 0.2, 0.2 + 0.7]
        reference = None
        for kernel in ALL_KERNELS:
            probabilities = linearized.evaluate(columns, 2, kernel=kernel)
            assert probabilities == pytest.approx(expected)
            backward_probabilities, gradients = linearized.backward(
                columns, 2, kernel=kernel
            )
            assert backward_probabilities == probabilities
            assert gradients[0] == ((0.0, 0.0), (1.0, 1.0), (1.0, 1.0))
            if reference is None:
                reference = probabilities
            assert probabilities == reference  # bit-for-bit across kernels


class TestFusedSchedule:
    def test_csr_arrays_are_consistent(self):
        import numpy as np

        manager, root = small_manager()
        linearized = LinearizedDiagram.from_mdd(manager, root)
        schedule = linearized.fused()
        total_edges = sum(
            (s1 - s0) * card for _, s0, s1, _, _, card in schedule.bounds
        )
        assert len(schedule.kids) == total_edges
        assert len(schedule.seg) == linearized.num_slots - 1
        assert int(schedule.seg[-1]) == total_edges
        assert len(schedule.slot_levels) == linearized.node_count
        # seg describes the node-major ordering: per-slot branching factors
        widths = np.diff(schedule.seg)
        for level, s0, s1, _, _, card in schedule.bounds:
            assert (widths[s0 - 2 : s1 - 2] == card).all()
            assert (schedule.slot_levels[s0 - 2 : s1 - 2] == level).all()

    def test_layers_round_trip_through_fused_arrays(self):
        # (level, slots, kid_rows) layers compile into the fused arrays,
        # and the arrays rebuild a diagram with the same schedule
        layers = (
            (1, (2,), ((0, 1),)),
            (0, (3, 4), ((0, 2, 2), (2, 1, 0))),
        )
        linearized = LinearizedDiagram(4, 5, layers)
        schedule = linearized.fused()
        assert schedule.bounds == ((1, 2, 3, 0, 2, 2), (0, 3, 5, 2, 8, 3))
        # child-position major within a layer: node 3's and node 4's
        # first children, then their second, then their third
        assert schedule.kids.tolist() == [0, 1, 0, 2, 2, 1, 2, 0]
        rebuilt = LinearizedDiagram.from_fused_arrays(
            linearized.root_slot,
            linearized.num_slots,
            schedule.kids,
            schedule.seg,
            schedule.slot_levels,
            schedule.bounds,
        )
        assert fused_digest(rebuilt) == fused_digest(linearized)
        assert rebuilt.levels == linearized.levels == (1, 0)
        columns = {0: ((0.5,), (0.3,), (0.2,)), 1: ((0.4,), (0.6,))}
        assert rebuilt.evaluate(columns, 1) == linearized.evaluate(columns, 1)

    def test_corrupt_bounds_are_rejected(self):
        manager, root = small_manager()
        schedule = LinearizedDiagram.from_mdd(manager, root).fused()
        bad = list(schedule.bounds)
        bad[0] = (bad[0][0], bad[0][1] + 1) + bad[0][2:]
        with pytest.raises(BatchEvalError):
            LinearizedDiagram.from_fused_arrays(
                2, 4, schedule.kids, schedule.seg, schedule.slot_levels, bad
            )

    def test_model_collapse_engages_on_uniform_columns(self):
        manager, root = small_manager()
        linearized = LinearizedDiagram.from_mdd(manager, root)
        varying = {
            0: ((0.5, 0.4), (0.3, 0.4), (0.2, 0.2)),
            1: ((0.4, 0.4), (0.6, 0.6)),  # uniform across the two models
        }
        expected = [
            probability_of_one_reference(
                manager,
                root,
                {"w": dict(zip((0, 1, 2), w)), "v": dict(zip((1, 2), v))},
            )
            for w, v in zip(zip(*varying[0]), zip(*varying[1]))
        ]
        for kernel in ALL_KERNELS:
            collapsed_before = linearized.collapsed_layers
            assert linearized.evaluate(varying, 2, kernel=kernel) == expected
            assert linearized.collapsed_layers == collapsed_before + 1  # level 1 only


def build_tree():
    ft = FaultTreeBuilder("batch-tmr")
    ft.set_top(ft.k_out_of_n_failed(2, ["M1", "M2", "M3"]))
    return ft.build()


TREE = build_tree()


def make_problem(mean_defects):
    model = ComponentDefectModel.uniform(["M1", "M2", "M3"], lethality=0.8)
    distribution = PoissonDefectDistribution(mean=mean_defects)
    return YieldProblem(TREE, model, distribution, name="batch-tmr")


MEANS = [0.2 + 0.2 * i for i in range(12)]


class TestCompiledYieldBatching:
    def test_evaluate_many_matches_per_point_evaluate(self):
        analyzer = YieldAnalyzer()
        compiled = analyzer.compile(make_problem(1.0), max_defects=3)
        problems = [make_problem(m) for m in MEANS]
        batched = compiled.evaluate_many(problems)
        for problem, result in zip(problems, batched):
            single = analyzer.compile(problem, max_defects=3).evaluate(problem)
            assert result.yield_estimate == single.yield_estimate
            assert result.error_bound == pytest.approx(single.error_bound)
        assert batched[0].extra["structure_reused"] == 0.0
        assert all(r.extra["structure_reused"] == 1.0 for r in batched[1:])
        assert all(r.extra["batched_models"] == len(problems) for r in batched)

    def test_linearization_is_cached(self):
        compiled = YieldAnalyzer().compile(make_problem(1.0), max_defects=3)
        compiled.evaluate_many([make_problem(m) for m in MEANS])
        compiled.evaluate_many([make_problem(m + 0.05) for m in MEANS])
        assert compiled.linearize_builds == 1
        assert compiled.linearize_reuses == 1

    def test_empty_batch(self):
        compiled = YieldAnalyzer().compile(make_problem(1.0), max_defects=2)
        assert compiled.evaluate_many([]) == []


class TestServiceSharding:
    """A ``workers > 1`` service resolves each unheld structure group on a
    fan-out thread, then passes every group in-process."""

    def points(self):
        return [
            SweepPoint(make_problem(mean), max_defects=truncation)
            for truncation in (3, 4)
            for mean in MEANS
        ]

    def test_sharded_sweep_matches_serial(self):
        expected = SweepService().evaluate_batch(self.points())

        pooled = SweepService(workers=2)
        results = pooled.evaluate_batch(self.points())
        for a, b in zip(expected, results):
            assert b.truncation == a.truncation
            assert b.yield_estimate == a.yield_estimate  # same batched arithmetic

        counter = pooled.registry.counter
        # one thread per group built its structure once, and the service
        # kept both for later batches
        assert counter("service.batches.parallel") == 1
        assert counter("service.structures.built") == 2
        assert counter("service.passes.batched") == 2
        assert len(pooled._structures) == 2

    def test_small_groups_stay_whole(self):
        service = SweepService(workers=4)
        service.density_sweep(make_problem, MEANS[:4], max_defects=3)
        assert service.registry.counter("service.batches.parallel") == 0
        assert service.registry.counter("service.passes.batched") == 1

    def test_batched_pass_counters_and_phase_clock(self):
        service = SweepService()
        service.density_sweep(make_problem, MEANS, max_defects=3)
        registry = service.registry
        assert registry.counter("service.passes.batched") == 1
        assert registry.counter("service.linearize.builds") == 1
        assert registry.histogram_sum("phase.evaluate_seconds") > 0.0
        assert registry.histogram_sum("phase.build_seconds") > 0.0


class TestSiftConvergence:
    def test_ordering_key_modes(self):
        assert OrderingSpec("w", "ml").key() == ("w", "ml", False)
        assert OrderingSpec("w", "ml", sift=True).key() == ("w", "ml", True)
        converge = OrderingSpec("w", "ml", sift_converge=True)
        assert converge.key() == ("w", "ml", "converge")
        assert converge.sift  # implied
        rebuilt = OrderingSpec.from_key(converge.key())
        assert rebuilt.sift and rebuilt.sift_converge
        assert OrderingSpec.from_key(("w", "ml", True)).sift
        assert not OrderingSpec.from_key(("w", "ml", False)).sift

    def test_converge_never_worse_than_static(self):
        problem = make_problem(1.0)
        static = YieldAnalyzer(OrderingSpec("vrw", "ml"))
        converge = YieldAnalyzer(OrderingSpec("vrw", "ml", sift_converge=True))
        static_size, _ = static.diagram_sizes(problem, max_defects=3)
        converged_size, _ = converge.diagram_sizes(problem, max_defects=3)
        assert converged_size <= static_size

    def test_converge_yield_is_unchanged(self):
        problem = make_problem(1.2)
        plain = YieldAnalyzer().evaluate(problem, max_defects=3)
        converged = YieldAnalyzer(
            OrderingSpec("w", "ml", sift_converge=True)
        ).evaluate(problem, max_defects=3)
        assert converged.yield_estimate == pytest.approx(
            plain.yield_estimate, abs=1e-12
        )
