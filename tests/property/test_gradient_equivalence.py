"""Differential tests: analytic gradients vs finite differences.

The reverse-mode pass of :meth:`repro.engine.batch.LinearizedDiagram.backward`
claims the *exact* derivative of the root probability with respect to every
per-level value-probability entry.  Because the root probability is
multilinear in those entries (a root-to-terminal path crosses each level at
most once), a central finite difference of the original recursive traversal
:func:`repro.mdd.probability.probability_of_one_reference` has **no**
truncation error — only floating-point roundoff — so the two must agree to
roundoff precision (pinned at 1e-8 relative).

Covered shapes: randomized ROMDDs from the full pipeline (grouped variables
``w``/``v_l`` with shared location distributions), hand-built ungrouped
diagrams, chains far deeper than the interpreter recursion limit, and
degenerate distributions with exact 0/1 probabilities.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.problem import YieldProblem
from repro.distributions import ComponentDefectModel, NegativeBinomialDefectDistribution
from repro.engine.batch import BatchEvalError, LinearizedDiagram
from repro.faulttree import FaultTreeBuilder
from repro.faulttree.multivalued import MultiValuedVariable
from repro.mdd.manager import FALSE, TRUE, MDDManager
from repro.mdd.probability import gradient_of_many, probability_of_one_reference
from repro.ordering import OrderingSpec
from tests.mdd.oracles import pipeline_romdd

#: Perturbation step of the finite differences.  Small enough that a
#: perturbed distribution still passes the sum-to-one validation (tolerance
#: 1e-6) of ``VariableDistributions``; since the function is multilinear in
#: each entry, *any* step gives the exact derivative up to roundoff.
FD_STEP = 2.0 ** -21

#: The acceptance tolerance of the differential suite (plus an absolute
#: floor for derivatives at the roundoff noise level of the differences).
REL_TOL = 1e-8
ABS_TOL = 5e-9

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


def fd_gradient(manager, root, distributions, variable, value):
    """Central finite difference of the reference traversal, exact for the
    multilinear root probability (forward difference at the 0 boundary so the
    perturbed entry stays a valid non-negative probability)."""
    base = distributions[variable][value]
    step = FD_STEP

    def evaluate_at(entry):
        perturbed = {
            name: dict(values) for name, values in distributions.items()
        }
        perturbed[variable][value] = entry
        return probability_of_one_reference(manager, root, perturbed)

    if base >= step:
        return (evaluate_at(base + step) - evaluate_at(base - step)) / (2.0 * step)
    return (evaluate_at(base + step) - evaluate_at(base)) / step


def assert_gradients_match_fd(manager, root, distributions_list):
    """Assert the analytic gradients equal FD of the reference traversal."""
    probabilities, gradients = gradient_of_many(manager, root, distributions_list)
    for distributions, probability, grads in zip(
        distributions_list, probabilities, gradients
    ):
        assert probability == probability_of_one_reference(
            manager, root, distributions
        )
        for variable, per_value in grads.items():
            for value, analytic in per_value.items():
                fd = fd_gradient(manager, root, distributions, variable, value)
                assert analytic == pytest.approx(fd, rel=REL_TOL, abs=ABS_TOL), (
                    "d/dP(%s=%s)" % (variable, value)
                )


def model_distributions(gfunction, problem):
    lethal = problem.lethal_defect_distribution()
    return gfunction.variable_distributions(
        lethal, problem.lethal_component_probabilities()
    )


@settings(max_examples=15, deadline=None)
@given(
    structure_expressions(),
    st.lists(st.floats(min_value=0.1, max_value=3.0), min_size=5, max_size=5),
    st.lists(st.floats(min_value=0.2, max_value=3.0), min_size=2, max_size=4),
    st.floats(min_value=0.5, max_value=8.0),
    st.integers(min_value=1, max_value=3),
)
def test_pipeline_romdd_gradients_match_finite_differences(
    expr, weights, means, clustering, truncation
):
    """Grouped-variable ROMDDs from the full pipeline, K models per pass."""
    problems = [build_problem(expr, weights, mean, clustering) for mean in means]
    gfunction, built = pipeline_romdd(problems[0], truncation, OrderingSpec("w", "ml"))
    distributions = [model_distributions(gfunction, p) for p in problems]
    assert_gradients_match_fd(built.mdd_manager, built.mdd_root, distributions)


@settings(max_examples=10, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3),
        min_size=2,
        max_size=5,
    ),
    st.randoms(use_true_random=False),
)
def test_ungrouped_mdd_gradients_match_finite_differences(rows, rng):
    """Hand-built multi-valued diagrams, including degenerate 0/1 entries."""
    variables = [
        MultiValuedVariable("x%d" % i, range(3)) for i in range(len(rows))
    ]
    manager = MDDManager(variables)
    # random three-valued structure: each variable accepts a random value
    # subset, combined with alternating AND/OR
    root = None
    for level, _ in enumerate(rows):
        accepted = [value for value in range(3) if rng.random() < 0.6] or [1]
        literal = manager.literal("x%d" % level, accepted)
        if root is None:
            root = literal
        elif level % 2:
            root = manager.or_(root, literal)
        else:
            root = manager.and_(root, literal)

    distributions = {}
    for variable, row in zip(variables, rows):
        total = sum(row)
        if total <= 0.0:
            # degenerate: all mass on one value (exact 0/1 probabilities)
            values = [1.0, 0.0, 0.0]
        else:
            values = [value / total for value in row]
            # repair the rounding drift so the sum is exactly 1.0
            values[2] = 1.0 - values[0] - values[1]
            if values[2] < 0.0:
                values[1] += values[2]
                values[2] = 0.0
        distributions[variable.name] = dict(enumerate(values))

    assert_gradients_match_fd(manager, root, [distributions])


class TestDeepChains:
    """Chains several times deeper than the default recursion limit."""

    DEPTH = 1500

    @pytest.fixture(scope="class")
    def chain(self):
        variables = [
            MultiValuedVariable("x%d" % i, range(2)) for i in range(self.DEPTH)
        ]
        manager = MDDManager(variables)
        # AND chain built bottom-up with mk(): one node per level
        node = TRUE
        for level in reversed(range(self.DEPTH)):
            node = manager.mk(level, (FALSE, node))
        return manager, node

    def test_backward_is_iterative_and_exact(self, chain):
        manager, root = chain
        probability = 0.999
        distributions = {
            "x%d" % i: {0: 1.0 - probability, 1: probability}
            for i in range(self.DEPTH)
        }
        probabilities, gradients = gradient_of_many(manager, root, [distributions])
        expected_root = probability ** self.DEPTH
        assert probabilities[0] == pytest.approx(expected_root, rel=1e-9)
        # d/dp(x_i = 1) = prod_{j != i} p_j, identical at every level
        [grads] = gradients
        expected = probability ** (self.DEPTH - 1)
        for level in (0, 1, self.DEPTH // 2, self.DEPTH - 1):
            assert grads["x%d" % level][1] == pytest.approx(expected, rel=1e-9)
            assert grads["x%d" % level][0] == 0.0

    def test_native_backward_matches_fused(self, chain):
        manager, root = chain
        linearized = LinearizedDiagram.from_mdd(manager, root)
        columns = {
            level: ((0.001, 0.0005), (0.999, 0.9995)) for level in range(self.DEPTH)
        }
        fused = linearized.backward(columns, 2, kernel="fused")
        assert linearized.backward(columns, 2, kernel="native") == fused  # bit-for-bit
        probabilities, gradients = fused
        for p, probability in zip((0.999, 0.9995), probabilities):
            assert probability == pytest.approx(p ** self.DEPTH, rel=1e-9)
        for level in (0, 750, self.DEPTH - 1):
            for k, p in enumerate((0.999, 0.9995)):
                assert gradients[level][1][k] == pytest.approx(
                    p ** (self.DEPTH - 1), rel=1e-9
                )


class TestBackwardEdgeCases:
    def test_terminal_root_has_zero_gradients(self):
        linearized = LinearizedDiagram(TRUE, 2, ())
        probabilities, gradients = linearized.backward({}, 3)
        assert probabilities == [1.0, 1.0, 1.0]
        assert gradients == {}

    def test_zero_models_short_circuit(self):
        linearized = LinearizedDiagram(TRUE, 2, ())
        assert linearized.backward({}, 0) == ([], {})
        with pytest.raises(BatchEvalError):
            linearized.backward({}, -1)

    def test_missing_level_columns_raise(self):
        variables = [MultiValuedVariable("x", range(2))]
        manager = MDDManager(variables)
        root = manager.mk(0, (FALSE, TRUE))
        linearized = LinearizedDiagram.from_mdd(manager, root)
        with pytest.raises(BatchEvalError):
            linearized.backward({}, 1)

    def test_gradient_counters_advance(self):
        variables = [MultiValuedVariable("x", range(2))]
        manager = MDDManager(variables)
        root = manager.mk(0, (FALSE, TRUE))
        linearized = LinearizedDiagram.from_mdd(manager, root)
        columns = {0: ((0.25, 0.5), (0.75, 0.5))}
        linearized.backward(columns, 2)
        assert linearized.gradient_passes == 1
        assert linearized.models_differentiated == 2
        # probability counters belong to evaluate(), not backward()
        assert linearized.models_evaluated == 0
