"""End-to-end telemetry: worker metric aggregation on every dispatch route,
worker span adoption, and Chrome trace validation on a real sweep."""

import json
import multiprocessing
import os
import time

import pytest

from repro.cli import main
from repro.engine import native
from repro.engine.service import SweepService
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


def run_sweep(tmp_path, name, **kwargs):
    service = SweepService(
        workers=2, shard_size=8, store_dir=str(tmp_path / name), **kwargs
    )
    rows = service.density_sweep(make_problem, DENSITIES, max_defects=3)
    service.close()
    return service, rows


def reference_rows():
    if not _REFERENCE:
        _REFERENCE.append(
            SweepService().density_sweep(make_problem, DENSITIES, max_defects=3)
        )
    return _REFERENCE[0]


class TestWorkerMetricAggregation:
    """Worker-side counters must land in the parent registry on all routes."""

    def test_shared_memory_route(self, tmp_path):
        service, rows = run_sweep(tmp_path, "shm")
        if service.stats.shards_dispatched == 0:
            pytest.skip("platform cannot spawn worker processes")
        assert rows == reference_rows()
        registry = service.registry
        # these counters are only incremented inside worker processes on
        # this route; seeing them here proves the snapshots were merged
        assert registry.counter("store.hits") >= 1
        assert registry.counter("store.mmap_loads") >= 1
        assert registry.counter(resolved_pass_counter()) >= 1
        assert (
            registry.counter("service.passes.batched")
            >= service.stats.shards_dispatched
        )
        assert registry.histogram_count("phase.worker_evaluate_seconds") >= 1
        # the facade exposes the merged totals under the legacy names
        assert service.stats.store_hits == registry.counter("store.hits")
        assert service.stats.mmap_loads == registry.counter("store.mmap_loads")
        assert service.stats.fused_passes == registry.counter("kernel.fused_passes")
        assert service.stats.native_passes == registry.counter("kernel.native_passes")

    def test_pickled_route(self, tmp_path):
        service, rows = run_sweep(tmp_path, "pickled", use_shared_memory=False)
        if service.stats.shards_dispatched == 0:
            pytest.skip("platform cannot spawn worker processes")
        assert rows == reference_rows()
        registry = service.registry
        assert service.stats.shm_bytes == 0
        assert registry.counter("store.hits") >= 1
        assert registry.counter(resolved_pass_counter()) >= 1
        assert registry.histogram_count("phase.worker_evaluate_seconds") >= 1

    def test_fallback_route_ships_metrics_with_ok_false(self, tmp_path, monkeypatch):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the forced store miss relies on fork inheritance")
        from repro.engine import store as store_module

        # every store load fails: fresh workers cannot resolve the
        # structure, report ok:False, and the parent re-evaluates their
        # spans in-process.  The patch lands before the pool exists, so
        # forked workers inherit it.
        monkeypatch.setattr(
            store_module.StructureStore, "load", lambda self, skey, mmap=False: None
        )
        service, rows = run_sweep(tmp_path, "fallback")
        if service.stats.shards_dispatched == 0:
            pytest.skip("platform cannot spawn worker processes")
        assert rows == reference_rows()
        registry = service.registry
        # nobody could load: no hits anywhere, and the worker-side misses
        # rode home on the ok:False shard stats (the parent itself only
        # misses once, when resolving the structure for the build)
        assert registry.counter("store.hits") == 0
        assert registry.counter("store.misses") > 1
        assert registry.histogram_count("phase.worker_evaluate_seconds") == 0


class TestWorkerSpanAdoption:
    def test_worker_spans_land_in_the_parent_trace(self, tmp_path):
        tracer = obs_trace.start()
        try:
            service, _ = run_sweep(tmp_path, "traced")
        finally:
            obs_trace.stop()
        if service.stats.shards_dispatched == 0:
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
        clock of a sharded ESEN4x2 sweep, worker-process spans included."""
        trace_file = tmp_path / "trace.json"
        argv = [
            "sweep",
            "ESEN4x2",
            "--max-defects",
            "4",
            "--workers",
            "2",
            "--shard-size",
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
        if "service.shards.dispatched" in out:
            worker_spans = [e for e in xs if e["name"] == "worker.shard"]
            assert worker_spans  # worker-process spans made it into the file
