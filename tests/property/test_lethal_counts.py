"""The lethal count vector: one pmf evaluation per point, bit for bit.

A sweep point's lethal count pmf is computed once, by ``pmf_vector``; that
vector keys the point's result and gives its count column and its error
bound.  These properties pin the identities this rests on, bit for bit,
over the four count-distribution families and ``M`` in 0..40:
``pmf_vector(M)`` is ``[pmf(k) ...]``, the key's tail is ``Q'.tail(M)``,
and the count column is the per-model column built from ``pmf`` calls
(:func:`thinned_count_columns`, the oracle).
"""

import functools
import math
import operator

from hypothesis import given, settings, strategies as st

from repro.core.method import YieldAnalyzer
from repro.core.problem import YieldProblem
from repro.distributions import (
    ComponentDefectModel,
    CompoundPoissonDefectDistribution,
    EmpiricalDefectDistribution,
    NegativeBinomialDefectDistribution,
    PoissonDefectDistribution,
)
from repro.engine.service import result_key
from repro.faulttree import FaultTreeBuilder
from repro.ordering import OrderingSpec

ORDERING = OrderingSpec("w", "ml")


def build_tree():
    ft = FaultTreeBuilder("duo")
    ft.set_top(ft.k_out_of_n_failed(1, ["A", "B"]))
    return ft.build()


TREE = build_tree()


@functools.lru_cache(maxsize=None)
def compiled_at(truncation):
    problem = YieldProblem(
        TREE, ComponentDefectModel({"A": 0.5, "B": 0.5}), PoissonDefectDistribution(1.0)
    )
    return YieldAnalyzer(ORDERING).compile_for_truncation(problem, truncation)


def thinned_count_columns(distributions, truncation):
    """One ``[Q'_0 .. Q'_M, overflow]`` column per distribution, from ``pmf``.

    The column assembly the vector route replaced: ``M + 1`` scalar
    ``pmf`` calls, then the saturated entry ``max(0, 1 - sum(Q'))`` over a
    plain left-to-right float sum (not builtin ``sum``, which compensates
    since Python 3.12).
    """
    columns = []
    for distribution in distributions:
        pmf = [distribution.pmf(k) for k in range(truncation + 1)]
        pmf.append(max(0.0, 1.0 - functools.reduce(operator.add, pmf, 0.0)))
        columns.append(pmf)
    return columns


def bits(values):
    return [float(value).hex() for value in values]


means = st.floats(min_value=0.01, max_value=12.0)
positive = st.floats(min_value=0.01, max_value=1.0)


@st.composite
def compound_poisson(draw):
    rates = draw(st.lists(means, min_size=1, max_size=4))
    weights = draw(st.lists(positive, min_size=len(rates), max_size=len(rates)))
    total = math.fsum(weights)
    return CompoundPoissonDefectDistribution(rates, [w / total for w in weights])


@st.composite
def empirical(draw):
    raw = draw(st.lists(positive, min_size=1, max_size=30))
    scale = draw(st.floats(min_value=0.5, max_value=1.0))
    total = math.fsum(raw)
    return EmpiricalDefectDistribution([scale * value / total for value in raw])


distributions = st.one_of(
    st.builds(
        NegativeBinomialDefectDistribution,
        means,
        st.floats(min_value=0.05, max_value=50.0),
    ),
    st.builds(PoissonDefectDistribution, means),
    compound_poisson(),
    empirical(),
)


@settings(max_examples=200, deadline=None)
@given(distributions, st.integers(min_value=0, max_value=40), positive, positive)
def test_one_pmf_vector_gives_key_column_and_bound(distribution, truncation, a, b):
    share = 0.9 / (a + b)
    components = ComponentDefectModel({"A": a * share, "B": b * share})
    problem = YieldProblem(TREE, components, distribution, name="duo")
    lethal = problem.lethal_defect_distribution()

    pmf = lethal.pmf_vector(truncation)
    assert bits(pmf) == bits(lethal.pmf(k) for k in range(truncation + 1))

    vector = result_key(problem, truncation, ORDERING)[-2]
    assert bits(vector) == bits(pmf + [lethal.tail(truncation)])

    oracle = bits(thinned_count_columns([lethal], truncation)[0])
    compiled = compiled_at(truncation)
    count, _ = compiled.model_matrices([problem], [vector])
    assert bits(count[:, 0]) == oracle
    # the gradient pass feeds pmf_vector(M + 1) into the same columns
    count, _ = compiled.model_matrices([problem], [lethal.pmf_vector(truncation + 1)])
    assert bits(count[:, 0]) == oracle


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=1e-6, max_value=60.0),
    st.floats(min_value=1e-3, max_value=500.0),
    st.integers(min_value=0, max_value=40),
)
def test_negative_binomial_pmf_vector_is_pmf_bit_for_bit(mean, clustering, truncation):
    distribution = NegativeBinomialDefectDistribution(mean, clustering)
    assert bits(distribution.pmf_vector(truncation)) == bits(
        distribution.pmf(k) for k in range(truncation + 1)
    )
