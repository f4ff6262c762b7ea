"""Shared fixtures: small reference systems used across the test-suite."""

from __future__ import annotations

import pytest

from repro.core.problem import YieldProblem
from repro.distributions import (
    ComponentDefectModel,
    NegativeBinomialDefectDistribution,
    PoissonDefectDistribution,
)
from repro.faulttree import FaultTreeBuilder


def build_paper_example_tree():
    """The fault tree of Fig. 2 of the paper: ``F = x1 x2 + x3``."""
    ft = FaultTreeBuilder("paper-fig2")
    x1, x2, x3 = ft.failed("comp1"), ft.failed("comp2"), ft.failed("comp3")
    ft.set_top(ft.or_(ft.and_(x1, x2), x3))
    return ft.build()


def build_duplex_tree():
    """A duplex system: fails only when both modules fail."""
    ft = FaultTreeBuilder("duplex")
    ft.set_top(ft.and_(ft.failed("A"), ft.failed("B")))
    return ft.build()


def build_two_of_three_tree():
    """A triplicated (TMR-style) system: fails when 2 of 3 modules fail."""
    ft = FaultTreeBuilder("tmr")
    ft.set_top(ft.k_out_of_n_failed(2, ["M1", "M2", "M3"]))
    return ft.build()


def build_bridge_tree():
    """A non-series-parallel bridge structure on five components.

    The system works when a path of working components connects source to
    sink: paths {A, B}, {C, D}, {A, E, D}, {C, E, B}.
    """
    ft = FaultTreeBuilder("bridge")
    a, b, c, d, e = (ft.working(x) for x in ("A", "B", "C", "D", "E"))
    functioning = ft.or_(
        ft.and_(a, b),
        ft.and_(c, d),
        ft.and_(a, e, d),
        ft.and_(c, e, b),
    )
    ft.set_top_from_functioning(functioning)
    return ft.build()


@pytest.fixture
def paper_example_tree():
    return build_paper_example_tree()


@pytest.fixture
def duplex_tree():
    return build_duplex_tree()


@pytest.fixture
def two_of_three_tree():
    return build_two_of_three_tree()


@pytest.fixture
def bridge_tree():
    return build_bridge_tree()


@pytest.fixture
def paper_example_problem(paper_example_tree):
    """Fig. 2 system with uniform component probabilities and a Poisson defect count."""
    model = ComponentDefectModel.uniform(["comp1", "comp2", "comp3"], lethality=0.6)
    distribution = PoissonDefectDistribution(mean=1.0)
    return YieldProblem(paper_example_tree, model, distribution, name="paper-fig2")


@pytest.fixture
def bridge_problem(bridge_tree):
    """Bridge system with non-uniform probabilities and a clustered defect count."""
    model = ComponentDefectModel.from_relative_weights(
        {"A": 2.0, "B": 1.0, "C": 1.0, "D": 1.0, "E": 0.5}, lethality=0.5
    )
    distribution = NegativeBinomialDefectDistribution(mean=1.5, clustering=2.0)
    return YieldProblem(bridge_tree, model, distribution, name="bridge")


@pytest.fixture
def tmr_problem(two_of_three_tree):
    """2-of-3 system with uniform probabilities and a negative-binomial defect count."""
    model = ComponentDefectModel.uniform(["M1", "M2", "M3"], lethality=0.8)
    distribution = NegativeBinomialDefectDistribution(mean=2.0, clustering=4.0)
    return YieldProblem(two_of_three_tree, model, distribution, name="tmr")


@pytest.fixture
def pair_checks(monkeypatch):
    """The ``(fault tree, component model)`` pairs a ``YieldProblem`` checks
    from now on (calls of ``repro.core.problem._check_pair``)."""
    from repro.core import problem as problem_module

    seen = []
    original = problem_module._check_pair
    monkeypatch.setattr(
        problem_module, "_check_pair", lambda *pair: seen.append(pair) or original(*pair)
    )
    return seen
