"""Unit tests for the ROMDD probability traversal and its count columns."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distributions import plain_sum
from repro.faulttree import MultiValuedVariable
from repro.mdd import FALSE, MDDError, MDDManager, TRUE, probability_of_one
from repro.mdd.probability import count_matrix, validate_model_columns


def brute_force_probability(manager, root, variables, distributions):
    total = 0.0
    domains = [v.values for v in variables]
    for combo in itertools.product(*domains):
        assignment = {v.name: value for v, value in zip(variables, combo)}
        if manager.evaluate(root, assignment):
            p = 1.0
            for v, value in zip(variables, combo):
                p *= distributions[v.name][value]
            total += p
    return total


@pytest.fixture
def setup():
    variables = [
        MultiValuedVariable("x", range(0, 3)),
        MultiValuedVariable("y", range(1, 4)),
    ]
    manager = MDDManager(variables)
    distributions = {
        "x": {0: 0.5, 1: 0.3, 2: 0.2},
        "y": {1: 0.1, 2: 0.6, 3: 0.3},
    }
    return manager, variables, distributions


class TestProbability:
    def test_terminals(self, setup):
        manager, _, dist = setup
        assert probability_of_one(manager, TRUE, dist) == 1.0
        assert probability_of_one(manager, FALSE, dist) == 0.0

    def test_single_literal(self, setup):
        manager, _, dist = setup
        node = manager.literal("x", [1, 2])
        assert probability_of_one(manager, node, dist) == pytest.approx(0.5)

    def test_composite_matches_brute_force(self, setup):
        manager, variables, dist = setup
        f = manager.or_(
            manager.and_(manager.literal("x", [0]), manager.literal("y", [2, 3])),
            manager.literal("x", [2]),
        )
        expected = brute_force_probability(manager, f, variables, dist)
        assert probability_of_one(manager, f, dist) == pytest.approx(expected, rel=1e-12)

    def test_skipped_variables_do_not_need_correction(self, setup):
        manager, variables, dist = setup
        # function depends only on y; the skipped x level must contribute factor 1
        node = manager.literal("y", [3])
        assert probability_of_one(manager, node, dist) == pytest.approx(0.3)

    def test_missing_distribution_rejected(self, setup):
        manager, _, dist = setup
        node = manager.literal("x", [0])
        with pytest.raises(MDDError):
            probability_of_one(manager, node, {"x": dist["x"]})

    def test_missing_value_rejected(self, setup):
        manager, _, _ = setup
        node = manager.literal("x", [0])
        with pytest.raises(MDDError):
            probability_of_one(manager, node, {"x": {0: 1.0}, "y": {1: 1, 2: 0, 3: 0}})

    def test_distribution_must_sum_to_one(self, setup):
        manager, _, _ = setup
        node = manager.literal("x", [0])
        bad = {"x": {0: 0.5, 1: 0.2, 2: 0.2}, "y": {1: 0.4, 2: 0.3, 3: 0.3}}
        with pytest.raises(MDDError):
            probability_of_one(manager, node, bad)

    def test_negative_probability_rejected(self, setup):
        manager, _, _ = setup
        node = manager.literal("x", [0])
        bad = {"x": {0: 1.2, 1: -0.2, 2: 0.0}, "y": {1: 1.0, 2: 0.0, 3: 0.0}}
        with pytest.raises(MDDError):
            probability_of_one(manager, node, bad)

    def test_complement_rule(self, setup):
        manager, variables, dist = setup
        f = manager.or_(manager.literal("x", [1]), manager.literal("y", [1]))
        p = probability_of_one(manager, f, dist)
        q = probability_of_one(manager, manager.not_(f), dist)
        assert p + q == pytest.approx(1.0, abs=1e-12)


def per_model_count_columns(counts):
    """The count columns as one Python loop over the models builds them:
    the reference the vectorized :func:`count_matrix` must equal."""
    columns = []
    for vector in counts:
        head = vector[:-1]
        columns.append([*head, max(0.0, 1.0 - plain_sum(head))])
    validate_model_columns(columns, what="count")
    return columns


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def count_vectors():
    """Two or more count vectors of one length: normalized pmfs with a
    free last entry, or raw entries with zeros, signs, NaN and infinity."""
    entry = st.one_of(
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from([0.0, -0.0, -1e-300, 5e-324, math.nan, math.inf, 1.0]),
    )

    def pmf(length):
        weights = st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=length, max_size=length
        ).filter(lambda w: sum(w) > 0.0)
        return st.tuples(weights, entry).map(
            lambda drawn: [w / math.fsum(drawn[0]) for w in drawn[0][:-1]] + [drawn[1]]
        )

    def vectors(length):
        vector = st.one_of(
            pmf(length), st.lists(entry, min_size=length, max_size=length)
        )
        return st.lists(vector, min_size=2, max_size=6)

    return st.integers(min_value=2, max_value=8).flatmap(vectors)


class TestCountMatrix:
    @settings(max_examples=300, deadline=None)
    @given(count_vectors())
    def test_matches_the_per_model_loop_bit_for_bit(self, counts):
        try:
            expected = per_model_count_columns(counts)
        except MDDError as exc:
            with pytest.raises(MDDError) as raised:
                count_matrix(counts)
            assert str(raised.value) == str(exc)
            return
        matrix = count_matrix(counts)
        assert matrix.shape == (len(counts[0]), len(counts))
        assert matrix.flags["C_CONTIGUOUS"]
        assert bits(matrix.T) == bits(expected)

    @pytest.mark.parametrize("models", [1, 3])
    def test_a_nan_count_column_is_rejected(self, models):
        # nan < 0 and abs(nan - 1) > 1e-6 are both false: the checks must
        # be written so that NaN fails them
        counts = [(0.5, 0.25, 0.25)] * (models - 1) + [(math.nan, 0.5, 0.0)]
        with pytest.raises(MDDError, match="NaN"):
            count_matrix(counts)

    def test_a_nan_location_column_is_rejected(self):
        with pytest.raises(MDDError, match="NaN"):
            validate_model_columns([[0.5, 0.5], [math.nan, 1.0]], what="location")

    def test_one_model_takes_the_loop(self):
        vector = (0.25, 0.5, 0.2, 0.99)
        assert bits(count_matrix([vector])[:, 0]) == bits(
            per_model_count_columns([vector])[0]
        )
