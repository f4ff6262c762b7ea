"""Property-based tests of the end-to-end yield method on random fault trees.

Every sample builds a random coherent fault tree over a handful of
components, assigns random defect probabilities and checks the combinatorial
method against the exact enumeration baseline — the strongest invariant the
library has, because it crosses every subsystem.  The oracle also reaches
through the production stack: the sweep service, in process, after a round
trip through the structure store, and sharded over a worker pool on both of
its routes (a pickled structure, and shared memory with a store).
"""

import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exact import exact_yield
from repro.core.method import evaluate_yield
from repro.core.problem import YieldProblem
from repro.distributions import ComponentDefectModel, NegativeBinomialDefectDistribution
from repro.engine.service import SweepPoint, SweepService
from repro.faulttree import FaultTreeBuilder
from repro.ordering import OrderingSpec

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


@settings(max_examples=25, deadline=None)
@given(
    structure_expressions(),
    st.lists(st.floats(min_value=0.1, max_value=3.0), min_size=5, max_size=5),
    st.floats(min_value=0.2, max_value=3.0),
    st.floats(min_value=0.5, max_value=8.0),
    st.sampled_from(["wv", "w", "vrw"]),
)
def test_method_matches_exact_enumeration(expr, weights, mean, clustering, ordering):
    problem = build_problem(expr, weights, mean, clustering)
    from repro.core.method import YieldAnalyzer

    analyzer = YieldAnalyzer(OrderingSpec(ordering, "ml"))
    result = analyzer.evaluate(problem, max_defects=3)
    reference = exact_yield(problem, max_defects=3)
    assert result.yield_estimate == pytest.approx(reference.yield_estimate, rel=1e-9)
    assert 0.0 <= result.yield_estimate <= 1.0


@settings(max_examples=15, deadline=None)
@given(
    structure_expressions(),
    st.lists(st.floats(min_value=0.1, max_value=3.0), min_size=5, max_size=5),
)
def test_truncation_estimates_are_monotone(expr, weights):
    problem = build_problem(expr, weights, 1.0, 4.0)
    results = [evaluate_yield(problem, max_defects=m) for m in (0, 1, 2, 3)]
    previous = -1.0
    for result in results:
        assert result.yield_estimate >= previous - 1e-12
        previous = result.yield_estimate
    # the paper's guarantee: Y_M misses at most the tail mass beyond M
    for result in results[:-1]:
        assert results[-1].yield_estimate - result.yield_estimate <= (
            result.error_bound + 1e-12
        )


@settings(max_examples=15, deadline=None)
@given(
    structure_expressions(),
    st.lists(st.floats(min_value=0.1, max_value=3.0), min_size=5, max_size=5),
    st.lists(st.floats(min_value=0.2, max_value=3.0), min_size=1, max_size=4),
    st.floats(min_value=0.5, max_value=8.0),
    st.integers(min_value=0, max_value=3),
)
def test_service_matches_exact_enumeration(expr, weights, means, clustering, truncation):
    """Two service routes: in process, then a fresh service on the same store
    (memory-mapped load); bit-for-bit equal, and exact to rel 1e-9."""
    problems = [build_problem(expr, weights, mean, clustering) for mean in means]
    points = [SweepPoint(problem, max_defects=truncation) for problem in problems]
    with tempfile.TemporaryDirectory() as store_dir:
        in_process = SweepService(store_dir=store_dir).evaluate_batch(points)
        restored_service = SweepService(store_dir=store_dir)
        restored = restored_service.evaluate_batch(points)
        counter = restored_service.registry.counter
        assert (
            counter("store.hits"),
            counter("store.mmap_loads"),
            counter("service.structures.built"),
        ) == (1, 1, 0)
    for problem, fresh, loaded in zip(problems, in_process, restored):
        assert loaded.yield_estimate == fresh.yield_estimate  # bit-for-bit
        reference = exact_yield(problem, max_defects=truncation)
        assert fresh.yield_estimate == pytest.approx(reference.yield_estimate, rel=1e-9)


def fixed_expression(rng, depth=0):
    """One expression of the :func:`structure_expressions` grammar."""
    if depth >= 3 or (depth and rng.random() < 0.3):
        return rng.choice(COMPONENTS)
    kind = rng.choice(["and", "or", "k2"])
    arity = 3 if kind == "k2" else 2
    return (kind,) + tuple(fixed_expression(rng, depth + 1) for _ in range(arity))


#: Five fixed random fault trees with their component weights.
FIXED_TREES = [
    (fixed_expression(rng), [rng.uniform(0.1, 3.0) for _ in COMPONENTS])
    for rng in map(random.Random, range(5))
]


@pytest.mark.parametrize("route", ["build", "store"])
def test_service_pool_matches_exact_enumeration(route, tmp_path):
    """The five trees in one batch on two workers, one whole group per job:
    without a store each worker builds its structure, with a pre-warmed
    store each memory-maps it.  Bit-for-bit equal to the in-process
    route, and exact to rel 1e-9."""
    problems = [
        build_problem(expr, weights, mean, 2.0)
        for expr, weights in FIXED_TREES
        for mean in (0.3, 0.9, 1.6, 2.4)
    ]
    points = [SweepPoint(problem, max_defects=3) for problem in problems]
    store_dir = None
    if route == "store":
        store_dir = str(tmp_path / "store")
        SweepService(store_dir=store_dir).evaluate_batch(points[::4])
    pool = SweepService(workers=2, store_dir=store_dir)
    try:
        pooled = pool.evaluate_batch(points)
    finally:
        pool.close()
    assert pool.registry.counter("service.batches.parallel") == 1
    if route == "store":
        assert pool.registry.counter("service.structures.built") == 0
        assert pool.registry.counter("store.mmap_loads") == len(FIXED_TREES)
    in_process = SweepService().evaluate_batch(points)
    for problem, fresh, result in zip(problems, in_process, pooled):
        assert result.yield_estimate == fresh.yield_estimate  # bit-for-bit
        reference = exact_yield(problem, max_defects=3)
        assert result.yield_estimate == pytest.approx(
            reference.yield_estimate, rel=1e-9
        )
