"""Tests for hierarchical span tracing and Chrome trace export."""

import json
import os
import threading
import time

import pytest

from repro.obs import trace
from repro.obs.trace import NULL_SPAN, Tracer, tree_from_chrome


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    assert trace.active() is None
    yield
    trace.stop()


class TestSpanRecording:
    def test_disabled_tracing_returns_the_shared_null_span(self):
        span = trace.span("anything", key="value")
        assert span is NULL_SPAN
        with span as inner:
            inner.set(more=1)  # no-op, must not raise

    def test_spans_record_nesting_via_parent_ids(self):
        tracer = trace.start()
        with trace.span("outer", a=1):
            with trace.span("inner"):
                pass
        trace.stop()
        spans = {s["name"]: s for s in tracer.spans()}
        assert spans["outer"]["parent"] is None
        assert spans["inner"]["parent"] == spans["outer"]["id"]
        assert spans["outer"]["args"] == {"a": 1}
        assert spans["outer"]["pid"] == os.getpid()
        # inner closes before outer, and both have non-negative durations
        assert spans["inner"]["dur"] >= 0.0
        assert spans["outer"]["dur"] >= spans["inner"]["dur"]

    def test_set_updates_span_args_mid_flight(self):
        tracer = trace.start()
        with trace.span("build") as span:
            span.set(nodes=42)
        trace.stop()
        assert tracer.spans()[0]["args"]["nodes"] == 42

    def test_started_backdates_the_span(self):
        tracer = trace.start()
        stamp = time.perf_counter() - 0.5
        with trace.span("cli.sweep", started=stamp, points=2):
            pass
        trace.stop()
        (span,) = tracer.spans()
        assert span["ts"] == pytest.approx(tracer.epoch_offset + stamp)
        assert span["dur"] >= 0.5
        assert span["args"] == {"points": 2}

    def test_non_json_args_are_coerced_to_repr(self):
        tracer = trace.start()
        with trace.span("s", payload=[1, 2]):
            pass
        trace.stop()
        assert tracer.spans()[0]["args"]["payload"] == "[1, 2]"

    def test_span_stacks_are_thread_local(self):
        tracer = trace.start()
        barrier = threading.Barrier(2)

        def work(name):
            with trace.span(name):
                barrier.wait(timeout=5)

        threads = [
            threading.Thread(target=work, args=("t%d" % i,)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        trace.stop()
        spans = tracer.spans()
        assert len(spans) == 2
        # concurrent roots: neither span is the other's parent
        assert all(s["parent"] is None for s in spans)
        assert spans[0]["tid"] != spans[1]["tid"]

    def test_aggregate_totals_by_name(self):
        tracer = trace.start()
        for _ in range(3):
            with trace.span("pass"):
                pass
        trace.stop()
        aggregate = tracer.aggregate()
        assert aggregate["pass"]["count"] == 3
        assert aggregate["pass"]["seconds"] >= 0.0


class TestChromeExport:
    def _sample_tracer(self):
        tracer = trace.start()
        with trace.span("root", benchmark="MS2"):
            with trace.span("child"):
                pass
            with trace.span("child"):
                pass
        trace.stop()
        return tracer

    def test_schema(self):
        data = self._sample_tracer().chrome_trace()
        assert data["displayTimeUnit"] == "ms"
        events = data["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(meta) == 1 and meta[0]["name"] == "process_name"
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == 3
        for event in xs:
            assert event["cat"] == "repro"
            assert event["ts"] >= 0.0 and event["dur"] >= 0.0
            assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
        # sorted by start time
        stamps = [e["ts"] for e in xs]
        assert stamps == sorted(stamps)

    def test_write_chrome_roundtrip(self, tmp_path):
        tracer = self._sample_tracer()
        path = tmp_path / "trace.json"
        assert tracer.write_chrome(str(path)) == 3
        data = json.loads(path.read_text())
        assert {e["name"] for e in data["traceEvents"] if e["ph"] == "X"} == {
            "root",
            "child",
        }

    def test_tree_rebuilds_nesting_by_containment(self):
        rendered = self._sample_tracer().tree()
        lines = rendered.splitlines()
        assert lines[0].startswith("root")
        assert "[benchmark=MS2]" in lines[0]
        assert lines[1].startswith("  child")
        assert lines[2].startswith("  child")

    def test_tree_from_chrome_min_us_filters_short_spans(self):
        trace_json = {
            "traceEvents": [
                {"name": "long", "ph": "X", "ts": 0.0, "dur": 5000.0, "pid": 1, "tid": 1},
                {"name": "blip", "ph": "X", "ts": 10.0, "dur": 1.0, "pid": 1, "tid": 1},
            ]
        }
        full = tree_from_chrome(trace_json)
        assert "blip" in full and "long" in full
        filtered = tree_from_chrome(trace_json, min_us=100.0)
        assert "blip" not in filtered and "long" in filtered

    def test_tree_separates_process_lanes(self):
        trace_json = {
            "traceEvents": [
                {"name": "a", "ph": "X", "ts": 0.0, "dur": 10.0, "pid": 1, "tid": 1},
                {"name": "b", "ph": "X", "ts": 0.0, "dur": 10.0, "pid": 2, "tid": 7},
            ]
        }
        rendered = tree_from_chrome(trace_json)
        assert "[pid 1 tid 1]" in rendered
        assert "[pid 2 tid 7]" in rendered
