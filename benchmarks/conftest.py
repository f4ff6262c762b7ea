"""Shared configuration of the benchmark harness.

Every benchmark module regenerates one of the paper's tables (or an ablation)
and prints it next to the paper's reference values.  Pure Python is orders of
magnitude slower than the 2003 C implementation on a Sun-Blade-1000, so by
default the harness runs the configurations that finish in seconds to a few
minutes (MS2, MS4, ESEN4x1, ESEN4x2 at lambda' = 1 plus MS2 at lambda' = 2).
Set ``REPRO_BENCH_FULL=1`` to add the larger configurations (MS6, ESEN8x1...)
— expect a long run.

All benchmarks use ``benchmark.pedantic(..., rounds=1)``: the functions being
timed build multi-hundred-thousand-node decision diagrams, so repeated rounds
would add minutes for no statistical benefit.
"""

from __future__ import annotations

import os
from typing import List

import pytest

#: Error budget that reproduces the paper's truncation levels (M=6 / M=10).
PAPER_EPSILON = 1e-3

#: Node budget after which a configuration is declared "failed" (Table 2 dashes).
NODE_LIMIT = 3_000_000

FULL = bool(os.environ.get("REPRO_BENCH_FULL"))

#: (benchmark name, mean manufacturing defects) pairs: lambda' = mean * P_L.
DEFAULT_CASES: List = [
    ("MS2", 2.0),
    ("MS4", 2.0),
    ("ESEN4x1", 2.0),
    ("ESEN4x2", 2.0),
    ("MS2", 4.0),
]

FULL_EXTRA_CASES: List = [
    ("MS6", 2.0),
    ("ESEN4x4", 2.0),
    ("ESEN8x1", 2.0),
    ("ESEN4x1", 4.0),
]


def selected_cases() -> List:
    """Return the benchmark cases for the current run."""
    cases = list(DEFAULT_CASES)
    if FULL:
        cases.extend(FULL_EXTRA_CASES)
    return cases


def case_id(case) -> str:
    name, mean = case
    return "%s-lambda%g" % (name, mean * 0.5)


@pytest.fixture(scope="session")
def paper_epsilon() -> float:
    return PAPER_EPSILON


#: Directory where every regenerated table is also written as plain text, so
#: the results survive pytest's stdout capture (see ``benchmarks/results/``).
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def span_breakdown(function):
    """Run ``function`` under a fresh tracer; return ``(result, aggregate)``.

    The aggregate is ``{span_name: {"count": n, "seconds": s}}`` — the
    per-phase breakdown archived into the ``BENCH_*.json`` records so the
    CI trend step can attribute a regression to a phase, not just a total.
    """
    from repro.obs import trace as obs_trace

    tracer = obs_trace.start()
    try:
        result = function()
    finally:
        obs_trace.stop()
    return result, tracer.aggregate()


def registry_stats(service) -> dict:
    """A service's counters and phase-histogram sums, keyed by registry name.

    The ``*_stats`` block of a ``BENCH_*.json`` record: every counter of
    ``service.registry.snapshot()`` plus each histogram's ``sum``.
    """
    snapshot = service.registry.snapshot()
    stats = dict(snapshot["counters"])
    for name, histogram in snapshot["histograms"].items():
        stats[name] = histogram["sum"]
    return stats


def print_table(title: str, headers, rows) -> None:
    """Print a formatted table and append it to ``benchmarks/results/tables.txt``."""
    from repro.analysis import format_table

    rendered = "\n".join(
        ["=" * 72, title, "-" * 72, format_table(headers, rows), "=" * 72]
    )
    print()
    print(rendered)
    try:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(os.path.join(RESULTS_DIR, "tables.txt"), "a", encoding="utf-8") as out:
            out.write(rendered + "\n\n")
    except OSError:  # pragma: no cover - reporting must never fail a benchmark
        pass
