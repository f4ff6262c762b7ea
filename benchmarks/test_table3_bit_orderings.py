"""Table 3 — coded-ROBDD size as a function of the bit-group ordering.

Under the weight ordering for the multiple-valued variables, the paper
compares the orderings ``ml`` (most significant bit first), ``lm`` (least
significant first) and ``w`` (weight heuristic inside the group) for the bits
encoding each multiple-valued variable, and finds:

* ``ml`` is the best in all cases but one (MS4, where it is within 3%);
* ``lm`` and ``w`` give exactly the same sizes;
* the differences between the three are small (well under 2x).

Reference values for lambda' = 1 (coded ROBDD nodes, ml / lm): MS2
24,237 / 28,418; MS4 243,254 / 236,915; ESEN4x1 19,338 / 20,721; ESEN4x2
54,705 / 65,208.

The ROMDD extracted from the coded ROBDD does not depend on the bit order,
which the harness also checks.
"""

from __future__ import annotations

import pytest

from repro.core.method import YieldAnalyzer
from repro.ordering import OrderingSpec
from repro.soc import benchmark_problem

from .conftest import NODE_LIMIT, PAPER_EPSILON, print_table

BIT_ORDERINGS = ("ml", "lm", "w")

#: Paper reference coded-ROBDD sizes for the ml ordering (lambda' = 1).
PAPER_ROBDD_ML = {"MS2": 24237, "MS4": 243254, "ESEN4x1": 19338, "ESEN4x2": 54705}

CASES = [
    ("MS2", 2.0, None),
    ("ESEN4x1", 2.0, None),
    ("ESEN4x2", 2.0, 4),
]


def _sizes(problem, bits, max_defects):
    analyzer = YieldAnalyzer(
        OrderingSpec("w", bits),
        epsilon=PAPER_EPSILON,
        node_limit=NODE_LIMIT,
    )
    return analyzer.diagram_sizes(problem, max_defects=max_defects)


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_table3_robdd_size_by_bit_ordering(benchmark, case):
    name, mean_defects, max_defects = case
    problem = benchmark_problem(name, mean_defects=mean_defects)

    results = {}
    for bits in BIT_ORDERINGS:
        if bits == "ml":
            results[bits] = benchmark.pedantic(
                _sizes, args=(problem, bits, max_defects), rounds=1, iterations=1
            )
        else:
            results[bits] = _sizes(problem, bits, max_defects)

    print_table(
        "Table 3 — coded ROBDD size by bit-group ordering (%s, MV ordering 'w')" % name,
        ["bit order", "coded ROBDD", "ROMDD"],
        [[bits, results[bits][0], results[bits][1]] for bits in BIT_ORDERINGS],
    )

    robdd = {bits: results[bits][0] for bits in BIT_ORDERINGS}
    romdd = {bits: results[bits][1] for bits in BIT_ORDERINGS}

    # the ROMDD does not depend on the in-group bit order
    assert romdd["ml"] == romdd["lm"] == romdd["w"]

    # the three bit orders stay within a factor 2 of each other (paper: small gaps)
    largest, smallest = max(robdd.values()), min(robdd.values())
    assert largest <= 2 * smallest

    # ml is the best (or within 5%, covering the paper's MS4 exception)
    assert robdd["ml"] <= 1.05 * min(robdd.values())

    # exact reproduction of the paper's coded-ROBDD magnitude for MS cases at M=6
    if name == "MS2" and max_defects is None:
        assert robdd["ml"] == pytest.approx(PAPER_ROBDD_ML["MS2"], rel=0.02)
