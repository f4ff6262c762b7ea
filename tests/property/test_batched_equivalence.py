"""Property tests: the batched probability kernel is the recursive traversal.

Random fault trees, random truncation levels and random defect models are
compiled through the full pipeline; the batched evaluation (through
:func:`probability_of_many` and through :meth:`CompiledYield.evaluate_many`)
must match the original recursive traversal **bit for bit** — the kernels
accumulate each node's children in the same IEEE order, so even the
floating-point rounding is identical.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.method import YieldAnalyzer
from repro.core.problem import YieldProblem
from repro.distributions import ComponentDefectModel, NegativeBinomialDefectDistribution
from repro.faulttree import FaultTreeBuilder
from repro.mdd.probability import probability_of_many, probability_of_one_reference
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


def model_distributions(compiled, problem):
    lethal = problem.lethal_defect_distribution()
    return compiled.gfunction.variable_distributions(
        lethal, problem.lethal_component_probabilities()
    )


@settings(max_examples=20, deadline=None)
@given(
    structure_expressions(),
    st.lists(st.floats(min_value=0.1, max_value=3.0), min_size=5, max_size=5),
    st.lists(st.floats(min_value=0.2, max_value=3.0), min_size=2, max_size=5),
    st.floats(min_value=0.5, max_value=8.0),
    st.integers(min_value=1, max_value=4),
)
def test_batched_kernel_matches_recursive_traversal(
    expr, weights, means, clustering, truncation
):
    problems = [build_problem(expr, weights, mean, clustering) for mean in means]
    compiled = YieldAnalyzer(OrderingSpec("w", "ml")).compile(
        problems[0], max_defects=truncation
    )
    distributions = [model_distributions(compiled, p) for p in problems]
    expected = [
        probability_of_one_reference(compiled.mdd_manager, compiled.mdd_root, d)
        for d in distributions
    ]

    batched = probability_of_many(compiled.mdd_manager, compiled.mdd_root, distributions)
    assert batched == expected  # bit-for-bit, not approx

    batched_results = compiled.evaluate_many(problems)
    for result, probability in zip(batched_results, expected):
        assert result.yield_estimate == 1.0 - probability


@settings(max_examples=10, deadline=None)
@given(
    structure_expressions(),
    st.lists(st.floats(min_value=0.1, max_value=3.0), min_size=5, max_size=5),
    st.floats(min_value=0.2, max_value=3.0),
    st.integers(min_value=1, max_value=3),
)
def test_sift_converge_preserves_the_function(expr, weights, mean, truncation):
    problem = build_problem(expr, weights, mean, 4.0)
    plain = YieldAnalyzer(OrderingSpec("w", "ml")).evaluate(
        problem, max_defects=truncation
    )
    converged = YieldAnalyzer(OrderingSpec("w", "ml", sift_converge=True)).evaluate(
        problem, max_defects=truncation
    )
    assert converged.yield_estimate == pytest.approx(plain.yield_estimate, abs=1e-12)
    assert converged.coded_robdd_size <= plain.coded_robdd_size
