"""A unified metrics registry: counters, gauges and histograms.

One registry instance holds every engine metric behind dotted names
(``service.points.evaluated``, ``store.mmap_loads``,
``phase.evaluate_seconds``, ...).  The registry is deliberately tiny:

* **counters** are monotone floats/ints (``inc``);
* **gauges** are last-write-wins values (``set_gauge``);
* **histograms** record observation count/sum/min/max plus fixed
  log-spaced latency buckets (``observe``).

``snapshot()`` returns a plain-dict view that pickles cheaply, so worker
processes can record into a private registry and ship the snapshot back
piggybacked on their job result; the parent folds it in with
``merge_snapshot()``.  ``expose_text()`` renders the Prometheus text
exposition format for ``--metrics FILE``.

Readers go by these names too: ``registry.counter("store.hits")`` is the
one way to read a counter, and ``snapshot()`` reads them all.

The fault-tolerance layer (:mod:`repro.engine.supervise` /
:mod:`repro.engine.faults`) publishes into three reserved namespaces:

* ``fault.*`` — counters, one per fault class and transition:
  ``fault.worker_lost``, ``fault.shard_timeout``, ``fault.shard_error``,
  ``fault.store_corrupt``, ``fault.store_quarantined``,
  ``fault.quarantined`` (pool jobs routed to in-parent evaluation),
  ``fault.pool_wedged``, ``fault.suppressed`` (swallowed cleanup
  failures) and ``fault.injected[.<site>]`` (deterministic injections);
* ``retry.*`` — ``retry.attempts`` plus the ``retry.backoff_seconds`` and
  ``retry.shard_seconds`` histograms;
* ``supervise.*`` — ``supervise.respawns``.

The sweep service counts in ``dispatch.groups_in_process`` the groups a
pooled service ran in-process because it held their structure, and in
``dispatch.payload_bytes`` the pickled bytes of the pool jobs it sent.

The HTTP front end (:mod:`repro.server`) adds a ``server.*`` namespace
on the same shared registry: ``server.requests[.<route>]``,
``server.responses.<status>``, ``server.rejected`` (admission control),
``server.over_budget`` / ``server.over_densities`` /
``server.over_truncation`` (requests past a work bound),
``server.coalesced_joins`` / ``server.builds_started`` (request
coalescing), ``server.inflight`` (gauge) and the
``server.request_seconds`` latency histogram — all served by
``GET /stats`` through :meth:`MetricsRegistry.expose_text`.

:meth:`MetricsRegistry.counters_with_prefix` slices any one namespace out
of the registry (used by ``--stats`` and the fault-injection suite).
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

__all__ = ["MetricsRegistry", "HISTOGRAM_BOUNDS"]

# Upper bounds (seconds) of the histogram buckets; one overflow bucket
# (+Inf) is appended implicitly.  Log-spaced: the engine's pass times span
# sub-millisecond fused passes to multi-second ROBDD builds.
HISTOGRAM_BOUNDS = (0.001, 0.01, 0.1, 1.0, 10.0)


class _Histogram:
    __slots__ = ("count", "total", "minimum", "maximum", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.minimum = None  # type: Optional[float]
        self.maximum = None  # type: Optional[float]
        self.buckets = [0] * (len(HISTOGRAM_BOUNDS) + 1)

    def observe(self, value):
        value = float(value)
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        for index, bound in enumerate(HISTOGRAM_BOUNDS):
            if value <= bound:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1

    def as_dict(self):
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "buckets": list(self.buckets),
        }


def _merge_histogram(hist, snap):
    hist.count += int(snap.get("count", 0))
    hist.total += float(snap.get("sum", 0.0))
    for key in ("min", "max"):
        value = snap.get(key)
        if value is None:
            continue
        if key == "min" and (hist.minimum is None or value < hist.minimum):
            hist.minimum = value
        if key == "max" and (hist.maximum is None or value > hist.maximum):
            hist.maximum = value
    buckets = snap.get("buckets") or []
    for index, value in enumerate(buckets[: len(hist.buckets)]):
        hist.buckets[index] += int(value)


def _mangle(name):
    out = []
    for ch in name:
        out.append(ch if (ch.isalnum() or ch == "_") else "_")
    return "".join(out)


class MetricsRegistry:
    """Thread-safe registry of namespaced counters, gauges and histograms."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters = {}  # type: Dict[str, float]
        self._gauges = {}  # type: Dict[str, float]
        self._histograms = {}  # type: Dict[str, _Histogram]

    # -- counters ---------------------------------------------------------

    def inc(self, name, value=1):
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def counter(self, name):
        with self._lock:
            return self._counters.get(name, 0)

    def counters_with_prefix(self, prefix):
        """All counters whose name starts with ``prefix``, as a dict."""
        with self._lock:
            return {
                name: value
                for name, value in self._counters.items()
                if name.startswith(prefix)
            }

    # -- gauges -----------------------------------------------------------

    def set_gauge(self, name, value):
        with self._lock:
            self._gauges[name] = value

    def gauge(self, name, default=None):
        with self._lock:
            return self._gauges.get(name, default)

    # -- histograms -------------------------------------------------------

    def observe(self, name, value):
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = _Histogram()
            hist.observe(value)

    def histogram_sum(self, name):
        with self._lock:
            hist = self._histograms.get(name)
            return hist.total if hist is not None else 0.0

    def histogram_count(self, name):
        with self._lock:
            hist = self._histograms.get(name)
            return hist.count if hist is not None else 0

    # -- views ------------------------------------------------------------

    def snapshot(self):
        """A plain-dict copy of the whole registry (cheap to pickle)."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: hist.as_dict() for name, hist in self._histograms.items()
                },
            }

    def merge_snapshot(self, snap):
        """Fold a snapshot (typically a worker delta) into this registry.

        Counters add, gauges are last-write-wins, histograms merge their
        count/sum/min/max/buckets.
        """
        if not snap:
            return
        with self._lock:
            for name, value in snap.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, value in snap.get("gauges", {}).items():
                self._gauges[name] = value
            for name, data in snap.get("histograms", {}).items():
                hist = self._histograms.get(name)
                if hist is None:
                    hist = self._histograms[name] = _Histogram()
                _merge_histogram(hist, data)

    def clear(self):
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -- exposition -------------------------------------------------------

    def expose_text(self, prefix="repro"):
        """Prometheus text exposition of every metric in the registry."""
        snap = self.snapshot()
        lines = []
        for name in sorted(snap["counters"]):
            metric = "%s_%s" % (prefix, _mangle(name))
            lines.append("# TYPE %s counter" % metric)
            lines.append("%s %s" % (metric, _format_value(snap["counters"][name])))
        for name in sorted(snap["gauges"]):
            metric = "%s_%s" % (prefix, _mangle(name))
            lines.append("# TYPE %s gauge" % metric)
            lines.append("%s %s" % (metric, _format_value(snap["gauges"][name])))
        for name in sorted(snap["histograms"]):
            hist = snap["histograms"][name]
            metric = "%s_%s" % (prefix, _mangle(name))
            lines.append("# TYPE %s histogram" % metric)
            cumulative = 0
            for bound, count in zip(HISTOGRAM_BOUNDS, hist["buckets"]):
                cumulative += count
                lines.append('%s_bucket{le="%g"} %d' % (metric, bound, cumulative))
            cumulative += hist["buckets"][-1]
            lines.append('%s_bucket{le="+Inf"} %d' % (metric, cumulative))
            lines.append("%s_count %d" % (metric, hist["count"]))
            lines.append("%s_sum %s" % (metric, _format_value(hist["sum"])))
        return "\n".join(lines) + "\n"


def _format_value(value):
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)
