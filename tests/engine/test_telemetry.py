"""End-to-end telemetry: fan-out thread metrics and spans land in the
service's one registry and the one trace, and Chrome trace validation on a
real sweep."""

import json
import os
import threading
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
    """Two structure groups (M = 2 and 3): one fan-out thread resolves each."""
    return [
        SweepPoint(make_problem(mean), max_defects=truncation)
        for truncation in (2, 3)
        for mean in DENSITIES
    ]


def run_sweep(tmp_path, name, warm=False):
    """One fan-out sweep; ``warm`` first commits both structures to the
    store, so the fan-out threads load them instead of building."""
    store_dir = str(tmp_path / name)
    if warm:
        # the first point of each group: one build per structure
        first_points = sweep_points()[:: len(DENSITIES)]
        SweepService(store_dir=store_dir).evaluate_batch(first_points)
    service = SweepService(workers=2, store_dir=store_dir)
    rows = [r.yield_estimate for r in service.evaluate_batch(sweep_points())]
    return service, rows


def reference_rows():
    if not _REFERENCE:
        _REFERENCE.append(
            [r.yield_estimate for r in SweepService().evaluate_batch(sweep_points())]
        )
    return _REFERENCE[0]


class TestWorkerMetricAggregation:
    """Counters the fan-out threads write land in the service's registry."""

    def test_pickled_route(self, tmp_path):
        # the route that pickled jobs to a worker pool (a ``workers=2``
        # service, two unheld structures, a warm store) now resolves both
        # on threads that count straight into the one registry
        service, rows = run_sweep(tmp_path, "pickled", warm=True)
        assert service.registry.counter("service.batches.parallel") == 1
        assert rows == reference_rows()
        registry = service.registry
        assert registry.counter("store.hits") == 2
        assert registry.counter("store.mmap_loads") == 2
        assert registry.counter("service.structures.built") == 0
        assert registry.counter(resolved_pass_counter()) == 2
        assert registry.counter("service.passes.batched") == 2
        assert registry.histogram_count("phase.evaluate_seconds") == 2


class TestWorkerSpanAdoption:
    def test_worker_spans_land_in_the_parent_trace(self, tmp_path):
        tracer = obs_trace.start()
        try:
            service, _ = run_sweep(tmp_path, "traced")
        finally:
            obs_trace.stop()
        assert service.registry.counter("service.batches.parallel") == 1
        spans = tracer.spans()
        assert {s["pid"] for s in spans} == {os.getpid()}
        fanout = [s for s in spans if s["name"] == "service.fanout"]
        builds = [s for s in spans if s["name"] == "service.build"]
        passes = [s for s in spans if s["name"] == "service.evaluate"]
        assert len(fanout) == 1 and len(builds) == 2 and len(passes) == 2
        # the builds ran on the fan-out threads, the passes on the caller
        caller = fanout[0]["tid"]
        assert caller not in {s["tid"] for s in builds}
        assert {s["tid"] for s in passes} == {caller}
        for build in builds:
            assert fanout[0]["ts"] <= build["ts"]
            assert build["ts"] + build["dur"] <= fanout[0]["ts"] + fanout[0]["dur"]

    def test_no_tracer_no_span_shipping(self, tmp_path):
        service, rows = run_sweep(tmp_path, "untraced")
        assert rows == reference_rows()
        assert obs_trace.active() is None
        assert not [t for t in threading.enumerate() if t.name.startswith("repro-fanout")]


class TestChromeTraceValidation:
    def test_two_group_sweep_exports_a_valid_chrome_trace(self, tmp_path):
        tracer = obs_trace.start()
        try:
            service = SweepService(workers=2, store_dir=str(tmp_path / "store"))
            with obs_trace.span("cli.sweep", benchmark="ESEN4x2"):
                rows = service.truncation_sweep(make_problem(1.0), [2, 3])
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
        clock of an ESEN4x2 sweep with two build threads, their spans
        included.  The two densities resolve to M = 2 and 3: two groups,
        both built on the fan-out."""
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
        assert "service.batches.parallel" in out
        # the fan-out threads' builds made it into the file
        builds = [e for e in xs if e["name"] == "service.build"]
        assert len(builds) == 2
        assert {e["tid"] for e in builds}.isdisjoint({roots[0]["tid"]})
