"""Property tests: store → load round-trips are bit-for-bit transparent.

Random fault trees are compiled through the full pipeline (ordering, coded
ROBDD, multi-valued ROMDD conversion), persisted to a temporary structure
store, loaded back, and driven through both the batched evaluation and the
reverse-mode gradient pass.  The restored structure must reproduce the
fresh build **bit for bit** — same fused arrays, same yields, same error
bounds, same gradients — including degenerate defect models whose
probabilities collapse to 0/1.
"""

import tempfile

from hypothesis import given, settings, strategies as st

from repro.core.method import YieldAnalyzer
from repro.core.problem import YieldProblem
from repro.distributions import (
    ComponentDefectModel,
    NegativeBinomialDefectDistribution,
    PoissonDefectDistribution,
)
from repro.engine.service import structure_key
from repro.engine.store import StructureStore
from repro.faulttree import FaultTreeBuilder
from repro.ordering import OrderingSpec
from tests.engine.test_golden import fused_digest

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


def build_circuit(expr):
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
    return ft.build()


def build_problem(circuit, weights, mean, clustering):
    model = ComponentDefectModel.from_relative_weights(
        dict(zip(COMPONENTS, weights)), lethality=0.5
    )
    distribution = NegativeBinomialDefectDistribution(mean=mean, clustering=clustering)
    return YieldProblem(circuit, model, distribution, name="random")


def roundtrip(compiled, skey):
    """Persist ``compiled`` into a throwaway store and load it back."""
    with tempfile.TemporaryDirectory() as root:
        store = StructureStore(root)
        store.save(skey, compiled)
        loaded = store.load(skey)
        assert loaded is not None
        return loaded[0]


def assert_equivalent(compiled, restored, problems):
    assert fused_digest(restored.linearized()) == fused_digest(compiled.linearized())

    fresh_results = compiled.evaluate_many(problems)
    restored_results = restored.evaluate_many(problems)
    for fresh, loaded in zip(fresh_results, restored_results):
        assert loaded.yield_estimate == fresh.yield_estimate  # bit-for-bit
        assert loaded.error_bound == fresh.error_bound
        assert loaded.truncation == fresh.truncation
        assert loaded.romdd_size == fresh.romdd_size
        assert loaded.variable_order == fresh.variable_order

    fresh_gradients = compiled.gradients_many(problems)
    restored_gradients = restored.gradients_many(problems)
    for fresh, loaded in zip(fresh_gradients, restored_gradients):
        assert loaded.yield_estimate == fresh.yield_estimate
        assert loaded.d_yield_d_raw == fresh.d_yield_d_raw  # bit-for-bit
        assert loaded.sensitivity == fresh.sensitivity
        assert loaded.d_failure_d_count == fresh.d_failure_d_count
        assert loaded.d_failure_d_location == fresh.d_failure_d_location


@settings(max_examples=15, deadline=None)
@given(
    structure_expressions(),
    st.lists(st.floats(min_value=0.1, max_value=3.0), min_size=5, max_size=5),
    st.lists(st.floats(min_value=0.2, max_value=3.0), min_size=2, max_size=4),
    st.floats(min_value=0.5, max_value=8.0),
    st.integers(min_value=0, max_value=4),
)
def test_roundtrip_is_bit_for_bit_on_pipeline_romdds(
    expr, weights, means, clustering, truncation
):
    circuit = build_circuit(expr)
    problems = [
        build_problem(circuit, weights, mean, clustering) for mean in means
    ]
    compiled = YieldAnalyzer(OrderingSpec("w", "ml")).compile(
        problems[0], max_defects=truncation
    )
    skey = structure_key(problems[0], truncation, OrderingSpec("w", "ml"))
    restored = roundtrip(compiled, skey)
    assert restored.level_profile == compiled.level_profile
    assert_equivalent(compiled, restored, problems)


@settings(max_examples=10, deadline=None)
@given(
    structure_expressions(),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=3),
)
def test_roundtrip_survives_degenerate_probabilities(expr, hot, truncation):
    """Defect models whose probability columns collapse to exact 0/1.

    Nearly all the location mass sits on one component (the model forbids
    exact zeros, so the cold components get denormal-range weights), and
    the count distributions underflow to exactly degenerate columns: a
    Poisson with mean 1e5 has ``pmf(k) == 0.0`` for every small ``k``, so
    the ``w`` column is exactly ``[0, ..., 0, 1]`` (all mass in the
    saturated overflow entry), while a mean of 1e-18 rounds ``Q'_0`` to
    exactly 1.0.
    """
    circuit = build_circuit(expr)
    weights = [1e-300] * len(COMPONENTS)
    weights[hot] = 1.0
    model = ComponentDefectModel.from_relative_weights(
        dict(zip(COMPONENTS, weights)), lethality=1.0
    )
    problems = [
        YieldProblem(
            circuit, model, PoissonDefectDistribution(mean=mean), name="degenerate"
        )
        for mean in (1e-18, 1.0, 1e5)
    ]
    compiled = YieldAnalyzer(OrderingSpec("w", "ml")).compile(
        problems[0], max_defects=truncation
    )
    skey = structure_key(problems[0], truncation, OrderingSpec("w", "ml"))
    restored = roundtrip(compiled, skey)
    assert_equivalent(compiled, restored, problems)


def test_roundtrip_of_a_count_last_multi_valued_structure():
    """``vrw`` puts the count variable last; the profile must track the layout."""
    circuit = build_circuit(("k2", "C0", ("or", "C1", "C2"), ("and", "C3", "C4")))
    weights = [1.0, 2.0, 0.5, 1.5, 1.0]
    ordering = OrderingSpec("vrw", "ml")
    problems = [
        build_problem(circuit, weights, mean, 4.0) for mean in (0.5, 1.5, 2.5)
    ]
    compiled = YieldAnalyzer(ordering).compile(problems[0], max_defects=3)
    skey = structure_key(problems[0], 3, ordering)
    restored = roundtrip(compiled, skey)
    assert restored.ordering.key() == ordering.key()
    assert_equivalent(compiled, restored, problems)
