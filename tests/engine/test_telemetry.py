"""End-to-end telemetry: worker metric aggregation from pool jobs, worker
span adoption, and Chrome trace validation on a real sweep."""

import json
import os
import time

import pytest

from repro.cli import main
from repro.engine import native
from repro.engine.service import SweepPoint, SweepService
from repro.obs import trace as obs_trace
from repro.soc import benchmark_problem


def make_problem(mean_defects):
    return benchmark_problem("ESEN4x2", mean_defects=mean_defects, clustering=4.0)


def resolved_pass_counter():
    """The pass counter of the kernel every pass resolves to on this host."""
    return "kernel.native_passes" if native.available() else "kernel.fused_passes"


DENSITIES = [0.2 + 0.05 * index for index in range(48)]
_REFERENCE = []


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    assert obs_trace.active() is None
    yield
    obs_trace.stop()


def sweep_points():
    """Two structure groups (M = 2 and 3): the pool takes one job each."""
    return [
        SweepPoint(make_problem(mean), max_defects=truncation)
        for truncation in (2, 3)
        for mean in DENSITIES
    ]


def run_sweep(tmp_path, name, warm=False):
    """One pooled sweep; ``warm`` first commits both structures to the
    store, so the workers load them instead of building."""
    store_dir = str(tmp_path / name)
    if warm:
        # the first point of each group: one build per structure
        first_points = sweep_points()[:: len(DENSITIES)]
        SweepService(store_dir=store_dir).evaluate_batch(first_points)
    service = SweepService(workers=2, store_dir=store_dir)
    rows = [r.yield_estimate for r in service.evaluate_batch(sweep_points())]
    service.close()
    return service, rows


def reference_rows():
    if not _REFERENCE:
        _REFERENCE.append(
            [r.yield_estimate for r in SweepService().evaluate_batch(sweep_points())]
        )
    return _REFERENCE[0]


class TestWorkerMetricAggregation:
    """Worker-side counters must land in the parent registry."""

    def test_pickled_route(self, tmp_path):
        service, rows = run_sweep(tmp_path, "pickled", warm=True)
        if service.registry.counter("service.batches.parallel") == 0:
            pytest.skip("platform cannot spawn worker processes")
        assert rows == reference_rows()
        registry = service.registry
        # these counters are only incremented inside worker processes on
        # this route; seeing them here proves the snapshots were merged
        assert registry.counter("store.hits") >= 1
        assert registry.counter("store.mmap_loads") >= 1
        assert registry.counter(resolved_pass_counter()) >= 1
        assert registry.counter("service.passes.batched") >= 2
        assert registry.histogram_count("phase.worker_evaluate_seconds") >= 1


class TestWorkerSpanAdoption:
    def test_worker_spans_land_in_the_parent_trace(self, tmp_path):
        tracer = obs_trace.start()
        try:
            service, _ = run_sweep(tmp_path, "traced")
        finally:
            obs_trace.stop()
        if service.registry.counter("service.batches.parallel") == 0:
            pytest.skip("platform cannot spawn worker processes")
        spans = tracer.spans()
        names = {s["name"] for s in spans}
        assert "service.dispatch" in names
        assert "worker.shard" in names
        worker_pids = {s["pid"] for s in spans} - {os.getpid()}
        assert worker_pids  # adopted spans keep their worker pid

    def test_no_tracer_no_span_shipping(self, tmp_path):
        service, rows = run_sweep(tmp_path, "untraced")
        assert rows == reference_rows()
        assert obs_trace.active() is None


class TestChromeTraceValidation:
    def test_two_group_sweep_exports_a_valid_chrome_trace(self, tmp_path):
        tracer = obs_trace.start()
        try:
            service = SweepService(workers=2, store_dir=str(tmp_path / "store"))
            with obs_trace.span("cli.sweep", benchmark="ESEN4x2"):
                rows = service.truncation_sweep(make_problem(1.0), [2, 3])
            service.close()
        finally:
            obs_trace.stop()
        assert len(rows) == 2
        path = tmp_path / "trace.json"
        count = tracer.write_chrome(str(path))
        trace = json.loads(path.read_text())
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == count and count >= 3
        for event in xs:
            assert {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(event)
            assert event["ts"] >= 0.0 and event["dur"] >= 0.0
        stamps = [e["ts"] for e in xs]
        assert stamps == sorted(stamps)  # monotone start times
        # every process with spans is named by an M metadata event
        meta_pids = {e["pid"] for e in events if e["ph"] == "M"}
        assert {e["pid"] for e in xs} <= meta_pids
        names = {e["name"] for e in xs}
        assert "cli.sweep" in names and "service.build" in names


class TestTraceCoverage:
    def test_sweep_trace_covers_most_of_the_wall_clock(self, tmp_path, capsys):
        """Acceptance: the exported spans cover >=90% of the measured wall
        clock of a pooled ESEN4x2 sweep, worker-process spans included.
        The two densities resolve to M = 2 and 3: two groups, two jobs."""
        trace_file = tmp_path / "trace.json"
        argv = [
            "sweep",
            "ESEN4x2",
            "--epsilon",
            "1e-2",
            "--densities",
            "0.5",
            "1.0",
            "--workers",
            "2",
            "--store-dir",
            str(tmp_path / "store"),
            "--trace",
            str(trace_file),
            "--stats",
        ]
        started = time.perf_counter()
        assert main(argv) == 0
        elapsed = time.perf_counter() - started
        out = capsys.readouterr().out
        trace = json.loads(trace_file.read_text())
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        roots = [e for e in xs if e["name"] == "cli.sweep"]
        assert len(roots) == 1
        covered = roots[0]["dur"] / 1e6  # µs -> s
        assert covered >= 0.9 * elapsed
        if "service.batches.parallel" in out:
            worker_spans = [e for e in xs if e["name"] == "worker.shard"]
            assert worker_spans  # worker-process spans made it into the file
