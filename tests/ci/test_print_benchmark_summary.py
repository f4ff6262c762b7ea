"""The CI benchmark summary prints the stats blocks of a record, trend-only."""

import importlib.util
import os

import pytest

SCRIPT = os.path.join(
    os.path.dirname(__file__), "..", "..", "ci", "print_benchmark_summary.py"
)


@pytest.fixture(scope="module")
def summary():
    spec = importlib.util.spec_from_file_location("print_benchmark_summary", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RECORD = {
    "benchmark": "ESEN4x2",
    "speedup": 4.0,
    "service_stats": {"service.points.evaluated": 96, "phase.evaluate_seconds": 0.5},
    "supervision": {
        "overhead_fraction": 0.02,
        "baseline_seconds": [0.1, 0.2],
        "fault_counters": {"fault.quarantined": 0},
    },
    "spans": {"service.evaluate": {"count": 1, "seconds": 0.01}},
}

BASELINE = {
    "speedup": 3.0,
    "service_stats": {"service.points.evaluated": 96, "phase.evaluate_seconds": 0.25},
    "supervision": {"overhead_fraction": 0.04},
}


def test_stats_blocks_print_as_block_lines_with_deltas(summary, capsys):
    summary.print_record("sweep", RECORD, BASELINE)
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines() if line}
    assert "96  (=)" in lines["service_stats.service.points.evaluated"]
    assert "(+100.0% vs baseline)" in lines["service_stats.phase.evaluate_seconds"]
    assert "(-50.0% vs baseline)" in lines["supervision.overhead_fraction"]
    assert lines["supervision.fault_counters.fault.quarantined"].split()[1] == "0"
    # lists and spans stay out of the block lines
    assert not any(name.startswith(("supervision.baseline", "spans.")) for name in lines)


def test_stats_blocks_are_never_gated(summary, capsys):
    record = dict(RECORD, service_stats={"phase.evaluate_seconds": 100.0})
    assert summary.run_gate({"sweep": record}, {"sweep": BASELINE}, 0.2) == 0
    assert "service_stats" not in capsys.readouterr().out
