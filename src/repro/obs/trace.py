"""Hierarchical span tracing with Chrome trace-event export.

Usage::

    from repro.obs import trace

    tracer = trace.start()            # enable tracing on this process
    with trace.span("service.build", truncation=4):
        ...
    trace.stop()
    tracer.write_chrome("out.json")   # load in chrome://tracing / Perfetto

``trace.span`` is safe to leave in hot paths: when no tracer is active it
returns a shared no-op context manager, so the disabled cost is one module
attribute read.  Span stacks are thread-local, so concurrent threads each
get a correctly nested tree.  Worker processes run their own tracer and
ship the finished spans back with their shard result; the parent folds
them in with :meth:`Tracer.adopt` — pid/tid recorded at span close keep
the processes apart in the exported trace.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time

__all__ = [
    "Tracer",
    "start",
    "stop",
    "active",
    "span",
    "tree_from_chrome",
]


def _coerce_args(args):
    out = {}
    for key, value in args.items():
        if value is None or isinstance(value, (bool, int, float, str)):
            out[str(key)] = value
        else:
            out[str(key)] = repr(value)
    return out


class _NullSpan:
    """Shared no-op span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **args):
        pass


NULL_SPAN = _NullSpan()


class _SpanContext:
    __slots__ = ("_tracer", "name", "args", "_start", "_id", "_parent")

    def __init__(self, tracer, name, args, started=None):
        self._tracer = tracer
        self.name = name
        self.args = args
        self._start = started

    def __enter__(self):
        tracer = self._tracer
        stack = tracer._stack()
        self._parent = stack[-1] if stack else None
        self._id = next(tracer._ids)
        stack.append(self._id)
        if self._start is None:
            self._start = time.perf_counter()
        return self

    def set(self, **args):
        self.args.update(args)

    def __exit__(self, exc_type, exc, tb):
        ended = time.perf_counter()
        tracer = self._tracer
        stack = tracer._stack()
        if stack and stack[-1] == self._id:
            stack.pop()
        elif self._id in stack:  # unbalanced exit; recover
            stack.remove(self._id)
        tracer._record(
            {
                "name": self.name,
                "ts": tracer.epoch_offset + self._start,
                "dur": ended - self._start,
                "pid": tracer.pid,
                "tid": threading.get_ident(),
                "id": self._id,
                "parent": self._parent,
                "args": _coerce_args(self.args),
            }
        )
        return False


class Tracer:
    """Collects finished spans; exports Chrome trace JSON and tree views.

    Span ``ts``/``dur`` are stored in seconds.  ``ts`` is an epoch-aligned
    monotonic stamp (``time.time() - time.perf_counter()`` captured once at
    tracer creation, plus the per-span ``perf_counter``), so spans recorded
    by different processes land on one shared timeline.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._finished = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.pid = os.getpid()
        self.epoch_offset = time.time() - time.perf_counter()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, finished):
        with self._lock:
            self._finished.append(finished)

    def span(self, name, *, started=None, **args):
        """Open a span; ``started`` backdates it to a ``perf_counter`` stamp."""
        return _SpanContext(self, name, args, started)

    def spans(self):
        with self._lock:
            return list(self._finished)

    def adopt(self, spans):
        """Fold spans recorded by another tracer (e.g. a worker process)."""
        if not spans:
            return
        with self._lock:
            self._finished.extend(dict(s) for s in spans)

    # -- views ------------------------------------------------------------

    def aggregate(self):
        """Per-span-name totals: ``{name: {"count": n, "seconds": s}}``."""
        out = {}
        for finished in self.spans():
            entry = out.setdefault(finished["name"], {"count": 0, "seconds": 0.0})
            entry["count"] += 1
            entry["seconds"] += finished["dur"]
        return out

    def chrome_trace(self):
        """The trace as a Chrome trace-event JSON object (``X`` events)."""
        spans = self.spans()
        events = []
        base = min((s["ts"] for s in spans), default=0.0)
        for pid in sorted({s["pid"] for s in spans}):
            label = "repro" if pid == self.pid else "repro worker"
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": "%s (pid %d)" % (label, pid)},
                }
            )
        for finished in sorted(spans, key=lambda s: s["ts"]):
            events.append(
                {
                    "name": finished["name"],
                    "cat": "repro",
                    "ph": "X",
                    "ts": (finished["ts"] - base) * 1e6,
                    "dur": finished["dur"] * 1e6,
                    "pid": finished["pid"],
                    "tid": finished["tid"],
                    "args": dict(finished["args"]),
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome(self, path):
        """Write the Chrome trace JSON; returns the number of span events."""
        data = self.chrome_trace()
        with open(path, "w") as handle:
            json.dump(data, handle)
        return sum(1 for event in data["traceEvents"] if event["ph"] == "X")

    def tree(self):
        """A human-readable span tree (one line per span, indented)."""
        return tree_from_chrome(self.chrome_trace())


# -- module-level active tracer ------------------------------------------

_ACTIVE = None  # type: ignore[var-annotated]


def start(tracer=None):
    """Install (and return) the process-wide active tracer."""
    global _ACTIVE
    _ACTIVE = tracer if tracer is not None else Tracer()
    return _ACTIVE


def stop():
    """Deactivate tracing; returns the tracer that was active (or None)."""
    global _ACTIVE
    tracer = _ACTIVE
    _ACTIVE = None
    return tracer


def active():
    return _ACTIVE


def span(name, *, started=None, **args):
    """Open a span on the active tracer, or a shared no-op when disabled.

    ``started`` (a ``time.perf_counter()`` stamp) backdates the span's start,
    e.g. to cover work done before tracing could be switched on.
    """
    tracer = _ACTIVE
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, started=started, **args)


# -- tree rendering -------------------------------------------------------


def _render_args(args):
    if not args:
        return ""
    parts = ["%s=%s" % (key, args[key]) for key in sorted(args)]
    return "  [%s]" % ", ".join(parts)


def tree_from_chrome(trace, min_us=0.0):
    """Reconstruct an indented span tree from Chrome trace-event JSON.

    Exported ``X`` events carry no parent links, so nesting is rebuilt by
    containment: events are sorted by start time per (pid, tid) lane and a
    span is a child of the most recent span whose interval still encloses
    its start.
    """
    events = [
        event
        for event in trace.get("traceEvents", [])
        if event.get("ph") == "X" and event.get("dur", 0.0) >= min_us
    ]
    lanes = {}
    for event in events:
        lanes.setdefault((event.get("pid"), event.get("tid")), []).append(event)
    lines = []
    for pid, tid in sorted(lanes, key=lambda key: (str(key[0]), str(key[1]))):
        lane = sorted(lanes[(pid, tid)], key=lambda e: (e["ts"], -e.get("dur", 0.0)))
        if len(lanes) > 1:
            lines.append("[pid %s tid %s]" % (pid, tid))
        open_ends = []
        for event in lane:
            while open_ends and event["ts"] >= open_ends[-1] - 1e-6:
                open_ends.pop()
            lines.append(
                "%s%s  %.3f ms%s"
                % (
                    "  " * len(open_ends),
                    event["name"],
                    event.get("dur", 0.0) / 1000.0,
                    _render_args(event.get("args") or {}),
                )
            )
            open_ends.append(event["ts"] + event.get("dur", 0.0))
    return "\n".join(lines)
