"""repro.obs — engine telemetry: span tracing and metrics.

Two small, dependency-free facilities:

* :mod:`repro.obs.trace` — hierarchical span tracing with thread-local span
  stacks, exportable as Chrome trace-event JSON (``chrome://tracing`` /
  Perfetto) or a human-readable tree.  A kernel pass span
  (``kernel.evaluate``, ``kernel.backward``) carries its kernel, models and
  nodes, and a ``store.load`` span its bytes and whether it memory-mapped;
* :mod:`repro.obs.metrics` — a namespaced registry of counters, gauges and
  histograms with ``snapshot()``/``merge_snapshot()`` and Prometheus-style
  text exposition.  Worker processes record into their own registry and
  ship the snapshot back piggybacked on their job results.

Tracing is off by default, and the disabled path costs a single
module-attribute check.
"""

from .metrics import MetricsRegistry
from .trace import Tracer, span, tree_from_chrome

__all__ = [
    "MetricsRegistry",
    "Tracer",
    "span",
    "tree_from_chrome",
]
