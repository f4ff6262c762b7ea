"""Per-layer timing wrappers for the traced benchmark run.

The benchmark never edits the program: in a traced run it replaces each
layer's public function with a timing wrapper from here, before any
worker pool is forked.  A wrapper records the call's *self* time -- its
duration minus the time of wrapped calls nested inside it on the same
thread -- so the layer times of one request add up without double
counting.  ``Tracer.enabled`` switches recording on and off; an installed
but disabled wrapper costs one attribute read per call, which is what lets
one traced run alternate untraced and traced stretches to measure the
tracing overhead.  Forked children (pool workers) never record: their
time reaches the parent as dispatch time.
"""

from __future__ import annotations

import glob
import importlib
import os
import threading
import time

#: layer -> the public callables it wraps, as (module, attribute path).
#: ``service.sweep`` and ``service.importance`` are request frames, not
#: layers: their self time is service work outside every named layer
#: (shard dispatch on a pooled service, bookkeeping on a serial one).
WRAPPED = {
    "soc.problem": [("repro.soc", "benchmark_problem")],
    "service.key": [
        ("repro.engine.service", "structure_key"),
        ("repro.engine.service", "result_key"),
    ],
    "gfunction": [
        ("repro.core.gfunction", "GeneralizedFaultTree.__init__"),
        ("repro.core.gfunction", "GeneralizedFaultTree.binary_circuit"),
    ],
    "ordering": [("repro.core.method", "compute_grouped_order")],
    "bdd.build": [("repro.bdd.builder", "CircuitBDDBuilder.build")],
    "mdd.convert": [("repro.core.method", "convert_bdd_to_mdd")],
    "batch.linearize": [("repro.engine.batch", "LinearizedDiagram.from_mdd")],
    "method.columns": [
        ("repro.core.method", "CompiledYield.model_matrices"),
        ("repro.core.method", "columns_from_matrices"),
    ],
    "batch.forward": [("repro.engine.batch", "LinearizedDiagram.evaluate")],
    "batch.backward": [("repro.engine.batch", "LinearizedDiagram.backward")],
    "method.package": [("repro.core.method", "CompiledYield.package_results")],
    "store.save": [("repro.engine.store", "StructureStore.save")],
    "store.load": [("repro.engine.store", "StructureStore.load")],
    "service.sweep": [("repro.engine.service", "SweepService.evaluate_batch")],
    "service.importance": [("repro.engine.service", "SweepService.gradient_batch")],
}


class Tracer:
    """Self-time events of the wrapped layers plus their exact counts.

    ``events`` holds ``(layer, epoch_start, self_seconds)`` per wrapped
    call while ``enabled``, plus ``("batch.cells", epoch, cells)`` per
    kernel pass while ``counting``: counts are taken whether or not a
    stretch is timed, so they cover every request of the window.
    ``structures`` holds per-structure build counts keyed by the binary
    circuit's name, and ``saved_bytes`` the size of each saved store
    entry's array files.
    """

    def __init__(self):
        self.enabled = False
        self.counting = False
        self.events = []
        self.structures = {}
        self.saved_bytes = {}
        self.kernels = set()
        #: Exact counts that differed between two builds of one structure.
        self.drift = []
        self._lock = threading.Lock()
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._forget_in_child)

    def _forget_in_child(self):
        self.enabled = self.counting = False
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer, func, note):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                result = func(*args, **kwargs)
                if note is not None and tracer.counting:
                    note(result, args, kwargs)
                return result
            stack = tracer._stack()
            stack.append(0.0)
            wall = time.time()
            started = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with tracer._lock:
                    tracer.events.append((layer, wall, elapsed - nested))
            if note is not None and tracer.counting:
                note(result, args, kwargs)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def exclude(self, seconds):
        """Keep ``seconds`` of foreign work on this thread (a calibration
        tick) out of the self time of the wrapped call it interrupted."""
        stack = self._stack()
        if stack:
            stack[-1] += seconds

    # -- counts taken from the wrapped calls' own arguments and results --

    def _note_build(self, result, args, kwargs):
        manager, _, stats = result
        circuit = args[1] if len(args) > 1 else kwargs["circuit"]
        totals = manager.cache_totals()
        self._local.structure = circuit.name
        counts = {
            "bdd_nodes": stats.final_size,
            "bdd_allocated": stats.allocated_nodes,
            "bdd_cache_hits": totals["hits"],
            "bdd_cache_misses": totals["misses"],
        }
        with self._lock:
            entry = self.structures.setdefault(circuit.name, {})
            for key, value in counts.items():
                if entry.setdefault(key, value) != value:
                    self.drift.append("%s %s: %s != %s" % (circuit.name, key, value, entry[key]))

    def _note_linearize(self, result, args, kwargs):
        name = getattr(self._local, "structure", None)
        if name is not None:
            with self._lock:
                entry = self.structures[name]
                # slots count the two terminals, as the ROMDD size does
                if entry.setdefault("mdd_nodes", result.num_slots) != result.num_slots:
                    self.drift.append(
                        "%s mdd_nodes: %s != %s" % (name, result.num_slots, entry["mdd_nodes"])
                    )

    def _note_pass(self, result, args, kwargs):
        diagram, num_models = args[0], args[2] if len(args) > 2 else kwargs["num_models"]
        with self._lock:
            self.events.append(
                ("batch.cells", time.time(), num_models * diagram.node_count)
            )
            if diagram.last_kernel is not None:
                self.kernels.add(diagram.last_kernel)

    def _note_save(self, result, args, kwargs):
        # the entry's JSON metadata holds a timestamp and build timings,
        # whose printed length varies; its array files are exact
        from repro.engine.store import digest_of

        store, digest = args[0], digest_of(args[1])
        pattern = os.path.join(store.root, "*", digest + ".*.npy")
        arrays = sum(os.path.getsize(path) for path in glob.glob(pattern))
        with self._lock:
            self.saved_bytes[digest] = arrays

    def install(self):
        """Replace every wrapped callable with its timing wrapper."""
        notes = {
            "bdd.build": self._note_build,
            "batch.linearize": self._note_linearize,
            "batch.forward": self._note_pass,
            "batch.backward": self._note_pass,
            "store.save": self._note_save,
        }
        for layer, targets in WRAPPED.items():
            for module_name, path in targets:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(
                        self._wrap(layer, raw.__func__, notes.get(layer))
                    )
                else:
                    wrapped = self._wrap(layer, raw, notes.get(layer))
                setattr(owner, attr, wrapped)

    def dump(self):
        """A JSON-ready copy (the traced server writes it on exit)."""
        with self._lock:
            return {
                "events": list(self.events),
                "structures": dict(self.structures),
                "saved_bytes": dict(self.saved_bytes),
                "kernels": sorted(self.kernels),
                "drift": list(self.drift),
            }


def totals(events, start, end):
    """``{name: (sum, calls)}`` over the events that began in ``[start, end)``."""
    out = {}
    for name, wall, value in events:
        if start <= wall < end:
            total, calls = out.get(name, (0.0, 0))
            out[name] = (total + value, calls + 1)
    return out
