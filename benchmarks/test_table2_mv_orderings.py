"""Table 2 — ROMDD size as a function of the multiple-valued variable ordering.

The paper compares the orderings ``wv, wvr, vw, vrw, t, w, h`` and finds:

* the weight heuristic ``w`` is consistently the best (or tied best);
* ``wvr`` produces exactly the same ROMDD sizes as ``w`` on these benchmarks;
* ``vrw`` is dramatically worse and runs out of memory on the larger cases;
* ``wv``, ``t`` and ``h`` coincide and sit in between.

Reference values for lambda' = 1 (ROMDD nodes): MS2 2,034 (w) / 3,202 (wv) /
73,405 (vrw); MS4 22,760 (w); ESEN4x1 3,046 (w); ESEN4x2 6,995 (w).

Pure-Python note: the ``vrw`` ordering explodes exactly as the paper reports,
so it is only attempted under a node budget; a ``-`` entry means the build hit
the budget (the analogue of the paper's "failed" entries).
"""

from __future__ import annotations

import pytest

from repro.bdd import ResourceLimitExceeded
from repro.core.method import YieldAnalyzer
from repro.ordering import OrderingSpec
from repro.soc import benchmark_problem

from .conftest import NODE_LIMIT, PAPER_EPSILON, print_table

#: Orderings of Table 2, in the paper's column order.
ORDERINGS = ("wv", "wvr", "vw", "vrw", "t", "w", "h")

#: Paper reference ROMDD sizes (lambda' = 1) for the weight heuristic.
PAPER_ROMDD_W = {"MS2": 2034, "MS4": 22760, "ESEN4x1": 3046, "ESEN4x2": 6995}

#: Cases benchmarked by default; (name, mean defects, truncation override).
CASES = [
    ("MS2", 2.0, None),       # full paper operating point, M = 6
    ("ESEN4x1", 2.0, None),   # full paper operating point, M = 6
    ("ESEN4x2", 2.0, 4),      # reduced M: the vrw column would dominate runtime
]

#: vrw gets a tighter budget: the paper itself reports it failing on most cases.
VRW_NODE_LIMIT = 400_000


def _romdd_size(problem, ordering, max_defects, node_limit):
    analyzer = YieldAnalyzer(
        OrderingSpec(ordering, "ml"),
        epsilon=PAPER_EPSILON,
        node_limit=node_limit,
    )
    try:
        return analyzer.diagram_sizes(problem, max_defects=max_defects)[1]
    except ResourceLimitExceeded:
        return None


@pytest.mark.parametrize("case", CASES, ids=[c[0] + "-l%g" % (c[1] / 2) for c in CASES])
def test_table2_romdd_size_by_ordering(benchmark, case):
    name, mean_defects, max_defects = case
    problem = benchmark_problem(name, mean_defects=mean_defects)

    sizes = {}
    for ordering in ORDERINGS:
        limit = VRW_NODE_LIMIT if ordering == "vrw" else NODE_LIMIT
        if ordering == "w":
            # time the paper's preferred ordering as the benchmark measurement
            sizes[ordering] = benchmark.pedantic(
                _romdd_size,
                args=(problem, ordering, max_defects, limit),
                rounds=1,
                iterations=1,
            )
        else:
            sizes[ordering] = _romdd_size(problem, ordering, max_defects, limit)

    print_table(
        "Table 2 — ROMDD size by MV ordering (%s, lambda'=%g, M=%s)"
        % (name, mean_defects * 0.5, max_defects or "auto"),
        ["ordering"] + list(ORDERINGS),
        [["ROMDD"] + [sizes[o] for o in ORDERINGS]],
    )

    # -------------------- shape assertions (paper's findings) ------------- #
    weight = sizes["w"]
    assert weight is not None and weight > 0

    # the weight heuristic is never beaten by the static wv / vw orderings
    for other in ("wv", "vw"):
        if sizes[other] is not None:
            assert weight <= sizes[other]

    # wvr reproduces the weight ordering exactly (the paper's observation)
    if sizes["wvr"] is not None:
        assert sizes["wvr"] == weight

    # vrw is far worse: it either fails under the budget or is >5x larger
    if sizes["vrw"] is not None:
        assert sizes["vrw"] > 5 * weight

    # topology and H4 coincide with wv on these benchmarks (paper's Table 2)
    if sizes["t"] is not None and sizes["wv"] is not None:
        assert sizes["t"] == sizes["wv"]
    if sizes["h"] is not None and sizes["wv"] is not None:
        assert sizes["h"] == sizes["wv"]

    # exact reproduction of the paper's ROMDD size for the MS cases at M = 6
    if name in ("MS2", "MS4") and max_defects is None and mean_defects == 2.0:
        assert weight == PAPER_ROMDD_W[name]

    # the full MS2 row of Table 2 reproduces the paper exactly:
    # wv=3202, wvr=2034, vw=2035, t=3202, w=2034, h=3202, vrw explodes
    if name == "MS2" and max_defects is None and mean_defects == 2.0:
        assert sizes["wv"] == 3202
        assert sizes["wvr"] == 2034
        assert sizes["vw"] == 2035
        assert sizes["t"] == 3202
        assert sizes["h"] == 3202
        assert sizes["vrw"] is None or sizes["vrw"] > 50_000
