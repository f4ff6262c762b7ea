"""The native forward pass's memo of its bottom run of model-uniform layers.

In ``G(w, v_1 .. v_M)`` the defect density reaches only the count level;
the location levels carry ``P'``, which a density sweep never changes,
and under the default ``w``/``ml`` order they all lie below ``w``.  The
native forward pass therefore memoizes, per diagram, the width-1 values
of its bottom run of model-uniform layers, keyed on the run's first
columns (:func:`repro.engine.native.forward`).  A hit must give exactly
the floats of a miss, of the fused kernel and of the recursive reference;
a pass whose layers are not model-uniform must take no memo; and the
memo must stay within its bound, across threads too.

Without a loadable native library every pass runs fused: the equality
checks still run, and the memo counters must stay at zero.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.method import YieldAnalyzer
from repro.core.problem import YieldProblem
from repro.distributions import (
    ComponentDefectModel,
    NegativeBinomialDefectDistribution,
)
from repro.engine import native
from repro.engine.service import SweepService, structure_key
from repro.engine.store import StructureStore
from repro.faulttree import FaultTreeBuilder
from repro.mdd.probability import columns_from_matrices, probability_of_one_reference
from repro.ordering import OrderingSpec
from repro.soc import benchmark_problem
from tests.engine.test_golden import GOLDEN
from tests.mdd.oracles import pipeline_romdd
from tests.property.test_fused_equivalence import build_problem, structure_expressions

COMPONENTS = ("C0", "C1", "C2", "C3", "C4")
DENSITIES = (0.4, 1.1, 2.3)


def small_tree():
    ft = FaultTreeBuilder("memo")
    c0, c1, c2, c3, c4 = (ft.failed(name) for name in COMPONENTS)
    ft.set_top(ft.at_least(2, [c0, ft.or_(c1, c2), ft.and_(c3, c4)]))
    return ft.build()


TREE = small_tree()


def problems_of(weights, densities=DENSITIES):
    """One component model (``weights``) at every density."""
    model = ComponentDefectModel.from_relative_weights(
        dict(zip(COMPONENTS, weights)), lethality=0.6
    )
    return [
        YieldProblem(TREE, model, NegativeBinomialDefectDistribution(mean, 2.0))
        for mean in densities
    ]


WEIGHTS = [(1.0, 2.0, 3.0, 4.0, 5.0), (5.0, 1.0, 1.0, 2.0, 3.0)] + [
    (1.0, 1.0, 1.0, 1.0, float(extra)) for extra in range(2, 8)
]


def compiled_for(problem, truncation=3, mv="w"):
    return YieldAnalyzer(OrderingSpec(mv, "ml")).compile_for_truncation(
        problem, truncation
    )


def production_columns(compiled, problems):
    """The columns a sweep passes: the two shared model matrices."""
    counts = [p.lethal_counts(compiled.truncation) for p in problems]
    return columns_from_matrices(
        compiled.linearized(),
        compiled.level_profile,
        *compiled.model_matrices(problems, counts),
    )


def reference(compiled, problems):
    """The recursive traversal, one model at a time, over the pipeline
    step's ROMDD of ``compiled``'s structure."""
    gfunction, built = pipeline_romdd(problems[0], compiled.truncation, compiled.ordering)
    return [
        probability_of_one_reference(
            built.mdd_manager,
            built.mdd_root,
            gfunction.variable_distributions(
                p.lethal_defect_distribution(), p.lethal_component_probabilities()
            ),
        )
        for p in problems
    ]


def memo_counts(linearized):
    return linearized.memo_hits, linearized.memo_misses


def expect_memo(linearized, hits, misses):
    """The memo counters, or zero where passes fall back to fused."""
    if native.available():
        assert memo_counts(linearized) == (hits, misses)
    else:
        assert memo_counts(linearized) == (0, 0)


def memo_size(linearized):
    return len(native._context(linearized.fused()).memo)


def poison_free_blocks(linearized):
    """Free NaN values and cleared flags in the sizes a pass allocates.

    The next pass's work arrays then likely reuse these blocks, not the
    last pass's, so a hit that left a slot of its run unset reads garbage
    instead of the floats the miss before it left behind.
    """
    slots = linearized.num_slots
    poison = (np.full(slots, np.nan), np.zeros(slots, dtype=np.uint8))
    del poison


def collapsed_by(linearized, columns, num_models, kernel=None):
    """``(probabilities, layers collapsed by this one pass)``."""
    before = linearized.collapsed_layers
    probabilities = linearized.evaluate(columns, num_models, kernel=kernel)
    return probabilities, linearized.collapsed_layers - before


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_hit_miss_fused_and_reference_agree_on_the_golden_structures(name):
    truncation = GOLDEN[name]["truncation"]
    problems = [benchmark_problem(name, mean_defects=mean) for mean in (1.0, 2.0)]
    compiled = compiled_for(problems[0], truncation)
    linearized = compiled.linearized()
    columns = production_columns(compiled, problems)
    fused, fused_collapsed = collapsed_by(linearized, columns, 2, "fused")
    assert fused == reference(compiled, problems)  # bit for bit
    miss, miss_collapsed = collapsed_by(linearized, columns, 2)
    expect_memo(linearized, 0, 1)
    poison_free_blocks(linearized)
    hit, hit_collapsed = collapsed_by(linearized, columns, 2)
    expect_memo(linearized, 1, 1)
    assert miss == fused and hit == fused
    # the memoized run counts as collapsed: every pass collapses alike
    assert miss_collapsed == hit_collapsed == fused_collapsed
    # every location level lies in the run: only the root's layer is left
    assert fused_collapsed == len(linearized.levels) - 1


def drawn_column(data, card):
    """A probability vector of ``card`` entries, zeros and ties likely."""
    weights = data.draw(
        st.lists(st.integers(0, 4), min_size=card, max_size=card).filter(any)
    )
    total = float(sum(weights))
    return [w / total for w in weights]


@settings(max_examples=25, deadline=None)
@given(
    structure_expressions(),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
def test_drawn_columns_agree_over_successive_passes(expr, truncation, num_models, data):
    """Passes over one diagram draw each level's columns from a small pool.

    A level's matrix is one of two model-uniform columns or a per-model
    (non-uniform) draw, so successive passes share some run layers and
    differ in others: a key that left out a layer, or a run that took in
    a non-uniform layer, would hand a later pass the wrong values.
    """
    problem = build_problem(expr, [1.0] * 5, 1.0, 2.0)
    compiled = compiled_for(problem, truncation)
    linearized = compiled.linearized()
    _, built = pipeline_romdd(problem, truncation, compiled.ordering)
    manager = built.mdd_manager
    variables = {manager.level_of(v.name): v for v in manager.variables}
    pools = {
        level: [drawn_column(data, len(variables[level].values)) for _ in range(2)]
        for level in linearized.levels
    }
    for _ in range(3):
        columns = {}
        for level, pool in pools.items():
            choice = data.draw(st.sampled_from((0, 1, "mixed")))
            if choice == "mixed":
                per_model = [
                    drawn_column(data, len(pool[0])) for _ in range(num_models)
                ]
            else:
                per_model = [pool[choice]] * num_models
            columns[level] = np.array(per_model, dtype=np.float64).T
        fused = linearized.evaluate(columns, num_models, kernel="fused")
        for _ in range(2):  # a miss or a hit, then a hit
            assert linearized.evaluate(columns, num_models) == fused
        for model in range(num_models):
            distributions = {
                v.name: (
                    dict(zip(v.values, columns[level][:, model].tolist()))
                    if level in columns
                    else {value: 1.0 / len(v.values) for value in v.values}
                )
                for level, v in variables.items()
            }
            assert fused[model] == probability_of_one_reference(
                manager, built.mdd_root, distributions
            )
    assert memo_size(linearized) <= native.MEMO_ENTRIES


class TestKeysAndBound:
    def test_a_second_component_model_misses_and_is_right(self):
        first, second = problems_of(WEIGHTS[0]), problems_of(WEIGHTS[1])
        compiled = compiled_for(first[0])
        linearized = compiled.linearized()
        for problems, memo in (
            (first, (0, 1)),
            (problems_of(WEIGHTS[0], (0.7, 3.0)), (1, 1)),  # new densities hit
            (second, (1, 2)),
            (first, (2, 2)),
        ):
            columns = production_columns(compiled, problems)
            expected = linearized.evaluate(columns, len(problems), kernel="fused")
            assert linearized.evaluate(columns, len(problems)) == expected
            assert expected == reference(compiled, problems)
            expect_memo(linearized, *memo)

    def test_the_memo_holds_at_most_its_bound(self):
        compiled = compiled_for(problems_of(WEIGHTS[0])[0])
        linearized = compiled.linearized()
        assert len(WEIGHTS) > native.MEMO_ENTRIES + 1
        for weights in WEIGHTS:
            problems = problems_of(weights)
            columns = production_columns(compiled, problems)
            expected = linearized.evaluate(columns, 3, kernel="fused")
            assert linearized.evaluate(columns, 3) == expected
            assert memo_size(linearized) <= native.MEMO_ENTRIES
        expect_memo(linearized, 0, len(WEIGHTS))
        # the oldest key was evicted and misses again; the newest still hits
        for weights, memo in ((WEIGHTS[0], (0, 1)), (WEIGHTS[-1], (1, 0))):
            before = memo_counts(linearized)
            linearized.evaluate(production_columns(compiled, problems_of(weights)), 3)
            after = memo_counts(linearized)
            if native.available():
                assert (after[0] - before[0], after[1] - before[1]) == memo

    def test_mixed_component_models_take_no_memo(self):
        problems = problems_of(WEIGHTS[0])[:2] + problems_of(WEIGHTS[1])[2:]
        compiled = compiled_for(problems[0])
        linearized = compiled.linearized()
        columns = production_columns(compiled, problems)
        expected = linearized.evaluate(columns, 3, kernel="fused")
        assert expected == reference(compiled, problems)
        for _ in range(2):
            assert linearized.evaluate(columns, 3) == expected
        expect_memo(linearized, 0, 0)
        assert memo_size(linearized) == 0

    def test_single_model_passes(self):
        compiled = compiled_for(problems_of(WEIGHTS[0])[0])
        linearized = compiled.linearized()
        for index, problem in enumerate(problems_of(WEIGHTS[0])):
            columns = production_columns(compiled, [problem])
            fused, fused_collapsed = collapsed_by(linearized, columns, 1, "fused")
            assert fused == reference(compiled, [problem])
            native_pass, native_collapsed = collapsed_by(linearized, columns, 1)
            assert native_pass == fused
            assert native_collapsed == fused_collapsed == len(linearized.levels)
            # one model is uniform everywhere; the count level is the root's
            # layer, so every density after the first hits
            expect_memo(linearized, index, 1)

    def test_count_level_deepest(self):
        """Under ``vw`` the count level is the deepest: a density batch has
        no model-uniform run, and one model memoizes the count level too."""
        first = problems_of(WEIGHTS[0])
        compiled = compiled_for(first[0], mv="vw")
        linearized = compiled.linearized()
        assert linearized.levels[0] == compiled.level_profile.level_of("w")
        columns = production_columns(compiled, first)
        expected = linearized.evaluate(columns, 3, kernel="fused")
        assert expected == reference(compiled, first)
        assert linearized.evaluate(columns, 3) == expected
        expect_memo(linearized, 0, 0)
        for problem, memo in ((first[0], (0, 1)), (first[1], (0, 2)), (first[0], (1, 2))):
            columns = production_columns(compiled, [problem])
            expected = linearized.evaluate(columns, 1, kernel="fused")
            assert expected == reference(compiled, [problem])
            assert linearized.evaluate(columns, 1) == expected
            expect_memo(linearized, *memo)


def test_a_memory_mapped_store_structure_hits(tmp_path):
    problems = problems_of(WEIGHTS[0])
    compiled = compiled_for(problems[0])
    ordering = OrderingSpec("w", "ml")
    skey = structure_key(problems[0], 3, ordering)
    store = StructureStore(str(tmp_path / "store"))
    store.save(skey, compiled)
    restored, _ = store.load(skey, mmap=True)
    assert restored.store_mmapped
    linearized = restored.linearized()
    expected = reference(compiled, problems)
    columns = production_columns(restored, problems)
    assert linearized.evaluate(columns, 3, kernel="fused") == expected
    for _ in range(2):
        assert linearized.evaluate(columns, 3) == expected
    expect_memo(linearized, 1, 1)


def test_threads_over_one_diagram_get_the_serial_bits():
    """More threads than cores, each with its own component model, share
    one diagram's memo; a short switch interval makes them interleave."""
    threads_count, rounds = 4, 25
    compiled = compiled_for(problems_of(WEIGHTS[0])[0])
    linearized = compiled.linearized()
    work = [
        [
            production_columns(compiled, problems_of(WEIGHTS[t], (0.3 + i, 1.7 + i)))
            for i in range(3)
        ]
        for t in range(threads_count)
    ]
    serial = [
        [linearized.evaluate(columns, 2, kernel="fused") for columns in sets]
        for sets in work
    ]
    barrier = threading.Barrier(threads_count, timeout=60)
    results = [[] for _ in range(threads_count)]
    errors = []

    def run(index):
        try:
            barrier.wait()
            for _ in range(rounds):
                for columns in work[index]:
                    results[index].append(linearized.evaluate(columns, 2))
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=run, args=(index,)) for index in range(threads_count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    for index in range(threads_count):
        assert results[index] == serial[index] * rounds
    assert memo_size(linearized) <= native.MEMO_ENTRIES
    passes = threads_count * rounds * 3
    if native.available():
        hits, misses = memo_counts(linearized)
        # counted under the memo's lock: no pass is lost or counted twice
        assert hits + misses == passes and misses >= threads_count


def test_the_service_publishes_the_memo_counters():
    service = SweepService()

    def factory(mean):
        return benchmark_problem("ESEN4x1", mean_defects=mean)

    for densities in ((0.5, 1.0), (1.5, 2.0)):
        service.density_sweep(factory, densities, max_defects=3)
    counters = service.registry.snapshot()["counters"]
    expected = (1, 1) if native.available() else (0, 0)
    assert (
        counters.get("kernel.memo_hits", 0),
        counters.get("kernel.memo_misses", 0),
    ) == expected
