"""Batch yield evaluation with structure reuse — the engine's front door.

The expensive part of the paper's method (generalized fault tree, variable
ordering, coded ROBDD, ROMDD conversion) depends only on the fault-tree
*structure*, the truncation level ``M`` and the ordering strategy.  The
defect densities, clustering and lethality only enter the final — and
cheap — probability traversal.  A sweep over defect densities therefore
needs **one** diagram build, not one per point.

:class:`SweepService` exploits that:

* points (:class:`SweepPoint`) are grouped by their *structure key*
  (a digest of the fault tree, the component list, ``M`` and the ordering);
* one :class:`repro.core.method.CompiledYield` is built per group (LRU-kept
  across batches) and every point of the group re-runs only the traversal —
  **all of a group's defect models in one batched bottom-up pass** over the
  structure's linearized arrays (:mod:`repro.engine.batch`), not one
  traversal per point;
* finished results live in a keyed in-memory cache and, optionally, an
  on-disk cache (``cache_dir``), so repeated sweeps are free;
* independent groups can fan out over ``multiprocessing`` workers — each
  worker builds its group's structure once and evaluates all of the group's
  points in-process;
* a group on a structure the parent already holds runs its pass in the
  parent, outside the dispatch lock: at every measured K one batched pass
  costs less than a dispatch.  Only an explicit ``shard_size`` shards a
  large group's points across workers (``shard_size`` points minimum per
  shard) or remote workers.  The parent builds the structure once;
  without a store the pickled
  :class:`~repro.core.method.CompiledYield` ships with every shard, with a
  store (``store_dir``) the shard payload carries only a store *reference*
  and each worker warm-starts the structure from disk — slimming the
  dispatch from megabytes to a key.  Shards that land in the same worker
  process additionally share a small per-process LRU of structures;
* store-backed shards go one step further and become **zero-copy**: the
  parent assembles the group's two ``cardinality x K`` model-column
  matrices directly into a ``multiprocessing.shared_memory`` block (plus
  a result vector), each shard's pickled payload shrinks to a model span
  and the block name, and workers write their probabilities straight back
  into the block (``shm_bytes`` counts the block traffic; platforms
  without shared memory fall back to the pickled protocol transparently);
* with ``store_dir`` set, compiled structures also survive process
  restarts: :mod:`repro.engine.store` persists the fused linearized
  arrays and the level profile in a versioned on-disk format that loaders
  memory-map (``mmap_mode="r"`` — no copies, page cache shared across
  forked workers), and the service resolves structures memory-LRU → disk
  store → build (``store_hits`` / ``store_misses`` / ``store_bytes`` /
  ``mmap_loads`` count the traffic);
* :meth:`SweepService.gradient_batch` serves *importance* queries the same
  way: per structure group, one forward-plus-reverse linearized pass
  differentiates all of the group's defect models analytically
  (``dY_M/dP_i`` for every component), replacing the two perturbed
  evaluations per component the finite-difference route needs.

The service deliberately imports :mod:`repro.core` lazily: the decision
diagram managers import :mod:`repro.engine.kernel` at module load, so a
top-level import here would be circular.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import time
import weakref
from collections import OrderedDict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import faults
from . import native as _native
from .batch import shard_deadline
from .supervise import Backoff, DegradationLadder, ShardJob, ShardSupervisor, janitor
from ..obs import trace as obs_trace
from ..obs.metrics import MetricsRegistry

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Cache-miss sentinel: the result caches must be able to store *any*
#: value — including ``None`` — so lookups compare against this marker
#: instead of testing the stored value's truthiness.
_MISS = object()


def _attach_shared_block(name: str):
    """Attach a pool worker to a shared-memory block the parent created.

    Python 3.13 grew ``track=False``.  On older interpreters attaching
    registers the segment with the resource tracker, which every pool
    worker shares with the parent (:meth:`SweepService.ensure_workers`
    starts it before forking).  That registration repeats the parent's
    own and is left alone: undoing it would drop the parent's, and the
    tracker would fail on the parent's unlink.  Workers only ever
    *attach*; the parent owns creation and unlinking.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13
        return shared_memory.SharedMemory(name=name)


def _release_shared_block(block, *, unlink: bool, registry=None) -> None:
    """Close (and optionally unlink) a shared-memory block, best effort.

    Routed through the process janitor so a block released here stops
    being an orphan-sweep candidate, and any swallowed close/unlink
    failure lands in the ``fault.suppressed`` counter instead of
    vanishing.
    """
    janitor().release(block, unlink=unlink, registry=registry)


def _fused_passes_of(compiled) -> int:
    """Current fused-pass count of a structure's linearization (0 if none).

    Shared by the parent service and the worker entry points so the
    parent/worker split of the ``fused_passes`` counter cannot drift.
    """
    linearized = getattr(compiled, "_linearized", None)
    return linearized.fused_passes if linearized is not None else 0


def _native_passes_of(compiled) -> int:
    """Current native-pass count of a structure's linearization (0 if none)."""
    linearized = getattr(compiled, "_linearized", None)
    return linearized.native_passes if linearized is not None else 0


def _annotate_kernel(span, compiled) -> None:
    """Record which kernel the pass actually ran into its span.

    Each pass resolves its backend on the host it runs on, so traces must
    carry the *resolved* one (``linearized.last_kernel``) — otherwise a
    trace cannot show whether a pass took the native or the fused path.
    """
    linearized = getattr(compiled, "_linearized", None)
    kernel = getattr(linearized, "last_kernel", None)
    if kernel is not None:
        span.set(kernel=kernel)


def _publish_kernel_caches(registry, compiled) -> None:
    """Fold a fresh build's DD-kernel cache totals into the registry.

    ``compile_for_truncation`` snapshots the ITE/apply computed-table
    stats of both managers onto the compiled structure; published as
    ``kernel.cache.<manager>.<event>`` counters they aggregate across
    builds — worker builds included, since workers publish into their own
    registry and ship the snapshot home.
    """
    caches = getattr(compiled, "kernel_cache_stats", None)
    if not caches:
        return
    for manager, totals in caches.items():
        for event, value in totals.items():
            if value:
                registry.inc("kernel.cache.%s.%s" % (manager, event), value)


@dataclass(frozen=True)
class SweepPoint:
    """One evaluation request: a problem plus its truncation policy.

    ``max_defects`` pins the truncation level ``M``; when omitted, ``M`` is
    chosen from ``epsilon`` (the point's, else the service's default) via
    the problem's lethal defect distribution — exactly like
    :meth:`repro.core.method.YieldAnalyzer.evaluate`.
    """

    problem: object
    max_defects: Optional[int] = None
    epsilon: Optional[float] = None


#: Counter attribute -> registry metric name.  Every legacy
#: ``SweepServiceStats`` field keeps working (``stats.store_hits += 1``)
#: but the value now lives in the service's :class:`MetricsRegistry`
#: under a namespaced metric, where worker deltas merge into the same
#: names.
_COUNTER_METRICS = {
    "points_requested": "service.points.requested",
    "points_evaluated": "service.points.evaluated",
    "structures_built": "service.structures.built",
    "structure_reuses": "service.structures.reused",
    "result_cache_hits": "service.cache.result_hits",
    "disk_cache_hits": "service.cache.disk_hits",
    "parallel_batches": "service.batches.parallel",
    # Batched multi-model passes executed (one per group dispatch).
    "batched_passes": "service.passes.batched",
    # Points evaluated through intra-group shards on workers, and the
    # shard payloads dispatched to the worker pool.
    "points_sharded": "service.points.sharded",
    "shards_dispatched": "service.shards.dispatched",
    # Linearized-array builds / reuses across the compiled structures.
    "linearize_builds": "service.linearize.builds",
    "linearize_reuses": "service.linearize.reuses",
    # Reverse-mode gradient passes (one per structure group) and the
    # defect models they covered.
    "gradient_passes": "service.passes.gradient",
    "points_differentiated": "service.points.differentiated",
    # Persistent-store traffic: warm starts served from disk (parent and
    # worker processes), rebuilds the store could not prevent, bytes moved
    # to/from the store, and loads that memory-mapped the fused arrays.
    "store_hits": "store.hits",
    "store_misses": "store.misses",
    "store_bytes": "store.bytes",
    "mmap_loads": "store.mmap_loads",
    # Pickled payload bytes and shared-memory block bytes of the worker
    # dispatch (the latter move zero-copy, not pickled).
    "shard_payload_bytes": "dispatch.payload_bytes",
    "shm_bytes": "dispatch.shm_bytes",
    # Fused-kernel passes executed (parent and worker processes).
    "fused_passes": "kernel.fused_passes",
    # Native compiled-kernel passes executed (parent and worker processes).
    "native_passes": "kernel.native_passes",
}

#: Timing attribute -> registry histogram.  One naming scheme for every
#: phase: ``stats.build_seconds += dt`` records one histogram sample.
_TIMER_METRICS = {
    "build_seconds": "phase.build_seconds",
    "reorder_seconds": "phase.reorder_seconds",
    "evaluate_seconds": "phase.evaluate_seconds",
    "gradient_seconds": "phase.gradient_seconds",
    "worker_evaluate_seconds": "phase.worker_evaluate_seconds",
}


class _Applied:
    """Marker consumed by ``SweepServiceStats.__setattr__`` after ``+=``."""

    __slots__ = ()


_APPLIED = _Applied()


class _CounterValue(int):
    """An int whose ``+=`` is one atomic registry increment.

    ``stats.x += n`` expands to a read (``__getattr__``), an add and a
    write-back (``__setattr__``) — under concurrent callers the write-back
    of a stale read loses updates.  Returning this from ``__getattr__``
    routes the add through ``__iadd__`` → ``registry.inc`` (atomic under
    the registry lock) and hands ``__setattr__`` a marker to discard, so
    every ``+=`` in the service is a single atomic increment while plain
    reads still behave as ints.
    """

    # no __slots__: variable-sized bases (int) do not support them

    def __new__(cls, value, registry, metric):
        self = int.__new__(cls, value)
        self._registry = registry
        self._metric = metric
        return self

    def __iadd__(self, other):
        if other:
            self._registry.inc(self._metric, other)
        return _APPLIED

    def __isub__(self, other):
        if other:
            self._registry.inc(self._metric, -other)
        return _APPLIED


class _TimerValue(float):
    """A float whose ``+=`` is one atomic histogram observation."""

    __slots__ = ("_registry", "_metric")

    def __new__(cls, value, registry, metric):
        self = float.__new__(cls, value)
        self._registry = registry
        self._metric = metric
        return self

    def __iadd__(self, other):
        if other:
            self._registry.observe(self._metric, other)
        return _APPLIED


class SweepServiceStats:
    """Monotone counters describing what a service instance did so far.

    Historically a plain dataclass; now a facade over a
    :class:`repro.obs.metrics.MetricsRegistry` so the same numbers are
    available as namespaced metrics (``snapshot()`` / Prometheus
    exposition) and worker-process deltas aggregate into them.  The
    attribute API is unchanged: counters read/``+=`` as ints, the
    ``*_seconds`` attributes as floats (each ``+=`` becomes one histogram
    observation) — and every ``+=`` is atomic (one registry operation
    under the registry lock), so concurrent callers never lose updates.
    """

    __slots__ = ("registry",)

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        object.__setattr__(
            self, "registry", registry if registry is not None else MetricsRegistry()
        )

    def __getattr__(self, name):
        metric = _COUNTER_METRICS.get(name)
        if metric is not None:
            return _CounterValue(self.registry.counter(metric), self.registry, metric)
        metric = _TIMER_METRICS.get(name)
        if metric is not None:
            return _TimerValue(
                self.registry.histogram_sum(metric), self.registry, metric
            )
        raise AttributeError(name)

    def __setattr__(self, name, value):
        if value is _APPLIED:
            return  # ``+=`` already applied atomically by __iadd__
        metric = _COUNTER_METRICS.get(name)
        if metric is not None:
            self.registry.set_counter(metric, value)
            return
        metric = _TIMER_METRICS.get(name)
        if metric is not None:
            # a plain assignment of a new total (legacy callers): record
            # the delta as one histogram sample.
            delta = value - self.registry.histogram_sum(metric)
            if delta:
                self.registry.observe(metric, delta)
            return
        raise AttributeError(name)

    def as_dict(self) -> Dict[str, float]:
        out = {}  # type: Dict[str, float]
        for name in _COUNTER_METRICS:
            out[name] = self.registry.counter(_COUNTER_METRICS[name])
        for name in _TIMER_METRICS:
            out[name] = self.registry.histogram_sum(_TIMER_METRICS[name])
        return out


def _float_digest(values) -> str:
    h = hashlib.sha256()
    for v in values:
        h.update(repr(float(v)).encode())
        h.update(b",")
    return h.hexdigest()


#: ``P'_i`` digests per component model.  A ``ComponentDefectModel`` is
#: immutable, so its vector is hashed once rather than once per point
#: (two racing threads at worst hash it twice, to the same value).
_LETHAL_DIGESTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def structure_key(problem, truncation: int, ordering) -> Tuple:
    """Key identifying the reusable DD structure of a point.

    Two points share a structure exactly when they share the fault tree,
    the component list, the truncation level and the ordering strategy —
    the defect model is free to differ.  The fault tree contributes its
    :meth:`~repro.faulttree.circuit.Circuit.digest`, which a frozen
    (shared) circuit computes only once.
    """
    return (
        problem.fault_tree.digest(),
        tuple(problem.component_names),
        int(truncation),
        ordering.key(),
    )


def result_key(problem, truncation: int, ordering) -> Tuple:
    """Key identifying the final result of a point (structure + defect model).

    The probability traversal consumes exactly the lethal count pmf
    ``Q'_0..Q'_M`` (plus the tail mass) and the conditional hit vector
    ``P'_i``, so those capture every defect-model input.  The key carries
    the point's lethal count vector itself
    (:meth:`~repro.core.problem.YieldProblem.lethal_counts`, the one pmf
    evaluation of the point) followed by the ``P'_i`` digest: every
    evaluation route reads the vector back from the key (``key[-2]``) for
    the count column and the error bound.  The point's
    :func:`structure_key` is the key without its last two entries.
    """
    components = problem.components
    hits = _LETHAL_DIGESTS.get(components)
    if hits is None:
        hits = _LETHAL_DIGESTS[components] = _float_digest(
            components.lethal_probabilities()
        )
    return structure_key(problem, truncation, ordering) + (
        problem.lethal_counts(truncation),
        hits,
    )


class SweepService:
    """Evaluates batches of yield points with diagram reuse and caching.

    Parameters
    ----------
    ordering:
        Ordering strategy shared by every point (default: the paper's best
        pair, ``OrderingSpec("w", "ml")``; pass ``sift=True`` for dynamic
        reordering).
    epsilon:
        Default error budget for points that pin neither ``max_defects``
        nor their own ``epsilon``.
    workers:
        Fan independent structure groups out over this many
        ``multiprocessing`` processes (0 or 1 = serial).  The pool is
        persistent: spawned lazily by the first parallel batch (or
        explicitly with :meth:`ensure_workers`), reused by every later
        batch and torn down by :meth:`close`.  Falls back to serial
        execution if the platform cannot spawn workers.
    shard_size:
        ``None`` (the default): a group whose structure the service holds
        runs in-process, outside the dispatch lock; the pool receives only
        whole groups it must build, and remote workers receive nothing.
        An integer pins the fixed split rule the shard routes are tested
        with: a group of at least ``2 * shard_size`` points is split into
        up to ``workers`` chunks, smaller groups stay whole.
    cache_dir:
        Optional directory for the on-disk result cache (created on
        demand).  Results are pickled per key; corrupt or unreadable
        entries are treated as misses.
    store_dir:
        Optional directory for the persistent *structure* store
        (:class:`repro.engine.store.StructureStore`).  Compiled structures
        are serialized once and warm-started by any later process — cold
        service starts skip the ordering/ROBDD/ROMDD build entirely, and
        worker shards receive a store reference instead of a multi-MB
        pickled structure.  Corrupt or incompatible entries are rebuilt.
    use_shared_memory:
        Dispatch the model-column matrices and result vectors of
        store-backed intra-group shards through
        ``multiprocessing.shared_memory`` blocks instead of pickling the
        problems into every shard payload (default on; requires a
        store).  Platforms or situations where a block cannot be created
        fall back to the pickled protocol transparently — results are
        identical either way.
    remote_workers:
        Optional list of shard-worker URLs (``host:port`` or
        ``http://host:port``, see ``repro worker``).  Sharded groups are
        dispatched to the remote fabric first
        (:class:`repro.engine.fabric.FabricScheduler`); anything the
        fabric cannot finish — dead workers, exhausted retries, no
        store — falls back to the local pool and then in-parent, so
        results are identical with or without the fabric.  Requires
        ``store_dir`` (workers resolve structures by digest from the
        shared store) and an explicit ``shard_size``.
    heartbeat_interval:
        Seconds between liveness probes of the remote workers.
    max_structures:
        How many compiled structures to keep in memory (LRU).
    max_results:
        How many finished results to keep in the in-memory cache (oldest
        evicted first); the on-disk cache, when enabled, is unbounded.
    analyzer_options:
        Extra keyword arguments for the underlying
        :class:`repro.core.method.YieldAnalyzer` (e.g. ``node_limit``).
    """

    def __init__(
        self,
        *,
        ordering=None,
        epsilon: float = 1e-4,
        workers: int = 0,
        shard_size: Optional[int] = None,
        cache_dir: Optional[str] = None,
        store_dir: Optional[str] = None,
        use_shared_memory: bool = True,
        max_structures: int = 8,
        max_results: int = 65536,
        max_retries: int = 2,
        shard_timeout: Optional[float] = None,
        degrade: bool = True,
        fault_plan=None,
        remote_workers: Optional[Sequence[str]] = None,
        heartbeat_interval: float = 1.0,
        **analyzer_options,
    ) -> None:
        if max_structures < 1:
            raise ValueError("max_structures must be at least 1")
        if max_results < 1:
            raise ValueError("max_results must be at least 1")
        if shard_size is not None and shard_size < 1:
            raise ValueError("shard_size must be at least 1")
        from ..ordering.strategies import OrderingSpec

        self.ordering = ordering or OrderingSpec("w", "ml")
        self.epsilon = float(epsilon)
        self.workers = int(workers)
        self.shard_size = None if shard_size is None else int(shard_size)
        self.cache_dir = cache_dir
        self.store_dir = store_dir
        #: High-water marks for the native backend's process-wide
        #: compile/load/fallback counters, so several services in one
        #: process publish each event into their registry exactly once.
        self._native_state: Dict[str, int] = {}
        #: One metrics registry per service: every stats counter lives here
        #: under a namespaced metric, worker deltas merge into it, and
        #: ``registry.expose_text()`` serves ``--metrics`` / future ``/stats``.
        self.registry = MetricsRegistry()
        self.stats = SweepServiceStats(self.registry)
        if store_dir:
            from .store import StructureStore

            self._store: Optional["StructureStore"] = StructureStore(
                store_dir, registry=self.registry
            )
            # the native backend caches its compiled `.so` next to the
            # structures, so services and worker shards warm-start both
            # from the same directory tree
            _native.set_cache_dir(os.path.join(store_dir, "native"))
        else:
            self._store = None
        self.use_shared_memory = bool(use_shared_memory)
        self.max_structures = int(max_structures)
        self.max_results = int(max_results)
        self.max_retries = int(max_retries)
        self.shard_timeout = shard_timeout
        # the supervisor validates too, but only when a sweep actually
        # shards — reject bad values up front so a CLI typo cannot ride
        # along silently through serial-route sweeps
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive")
        #: The service's fault plan is *scoped*, not process-global: the
        #: parent-side injection sites see it through a thread-local
        #: ``faults.scoped`` block around every evaluation path, and pool
        #: workers receive a fresh copy through the pool initializer —
        #: so two services in one process never clobber each other's
        #: plans and ``close()`` leaves no injection state behind.
        self._fault_plan = fault_plan
        #: Degradation cascade over dispatch routes (shm -> pickled ->
        #: in-parent); ``degrade=False`` pins every shard to its first
        #: route and surfaces faults after the retry budget instead.
        self._ladder = DegradationLadder(enabled=bool(degrade))
        self._backoff = Backoff(seed=0)
        self.analyzer_options = analyzer_options
        self._structures: "OrderedDict[Tuple, object]" = OrderedDict()
        self._results: "OrderedDict[Tuple, object]" = OrderedDict()
        self._pool = None
        self._pool_broken = False
        #: Reentrant guard over every piece of shared mutable state: the
        #: structure/result LRUs, the per-key lock table and the lazy
        #: pool reference.  Held only for dict-sized critical sections —
        #: builds, store IO and kernel passes run outside it.
        self._lock = threading.RLock()
        #: Per-structure-key build/evaluate locks: concurrent callers of
        #: the same key coalesce on one build (and serialize their passes
        #: over the shared compiled structure, whose linearization caches
        #: are not reentrant); different keys proceed in parallel.
        self._key_locks: Dict[Tuple, list] = {}
        #: One supervised pool dispatch at a time: the supervisor owns the
        #: pool's health (respawn on faults), which cannot be shared by
        #: two concurrent dispatch loops.
        self._dispatch_lock = threading.Lock()
        #: Remote shard fabric (lazy; see :meth:`_fabric_scheduler`).
        self.remote_workers = list(remote_workers or [])
        self.heartbeat_interval = float(heartbeat_interval)
        self._fabric = None
        #: Epoch seconds of the last pool respawn, for health reporting
        #: (``/healthz`` downgrades to ``degraded`` for a window after one).
        self._last_respawn: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def evaluate(self, problem, *, max_defects=None, epsilon=None):
        """Evaluate a single point (convenience wrapper over the batch path)."""
        return self.evaluate_batch(
            [SweepPoint(problem, max_defects=max_defects, epsilon=epsilon)]
        )[0]

    def evaluate_batch(self, points: Sequence[SweepPoint]) -> List[object]:
        """Evaluate every point and return the results in request order."""
        with self._fault_scope():
            return self._evaluate_batch(points)

    def _evaluate_batch(self, points: Sequence[SweepPoint]) -> List[object]:
        points = list(points)
        self.stats.points_requested += len(points)
        truncations = [self._resolve_truncation(point) for point in points]
        keys = [
            result_key(point.problem, truncation, self.ordering)
            for point, truncation in zip(points, truncations)
        ]

        # serve what the caches already know: one lock for the memory LRU,
        # the disk only when there is one
        results: List[object] = [_MISS] * len(points)
        hits = 0
        with self._lock:
            for idx, rkey in enumerate(keys):
                cached = self._results.get(rkey, _MISS)
                if cached is not _MISS:
                    self._results.move_to_end(rkey)
                    results[idx] = cached
                    hits += 1
        self.stats.result_cache_hits += hits
        if self.cache_dir:
            disk_hits = []
            for idx, rkey in enumerate(keys):
                if results[idx] is _MISS:
                    results[idx] = self._disk_get(rkey)
                    if results[idx] is not _MISS:
                        disk_hits.append((rkey, results[idx]))
            self.stats.disk_cache_hits += len(disk_hits)
            self._remember_results(disk_hits)

        pending: Dict[Tuple, List[int]] = {}
        for idx, rkey in enumerate(keys):
            if results[idx] is _MISS:
                # the result key extends the structure key: no second hashing
                pending.setdefault(rkey[:-2], []).append(idx)

        if pending:
            # each point's lethal count vector, computed once for its key
            counts = [rkey[-2] for rkey in keys]
            groups = list(pending.items())
            evaluated = []
            # the remote fabric gets first claim on sharded groups; what
            # it cannot finish (no workers, failed shards, small groups)
            # continues on the local routes unchanged
            fabric = self._fabric_scheduler()
            if fabric is not None and self._ladder.allows("remote"):
                remote_evaluated, groups = self._run_fabric(
                    groups, points, truncations, counts, fabric
                )
                evaluated.extend(remote_evaluated)
            if groups:
                if self.workers > 1:
                    evaluated.extend(
                        self._run_parallel(groups, points, truncations, counts)
                    )
                else:
                    evaluated.extend(
                        self._run_serial(groups, points, truncations, counts)
                    )
            for idx, result in evaluated:
                results[idx] = result
            self._remember_results([(keys[idx], result) for idx, result in evaluated])
            if self.cache_dir:
                for idx, result in evaluated:
                    self._disk_put(keys[idx], result)
            self.stats.points_evaluated += len(evaluated)

        missing = [i for i, r in enumerate(results) if r is _MISS]
        if missing:  # pragma: no cover - defensive
            raise RuntimeError("points %s were not evaluated" % missing)
        return results  # type: ignore[return-value]

    def gradients(self, problem, *, max_defects=None, epsilon=None):
        """Analytic yield gradients of a single point (see :meth:`gradient_batch`)."""
        return self.gradient_batch(
            [SweepPoint(problem, max_defects=max_defects, epsilon=epsilon)]
        )[0]

    def gradient_batch(self, points: Sequence[SweepPoint]) -> List[object]:
        """Differentiate every point analytically, in request order.

        Points are grouped by structure key exactly like
        :meth:`evaluate_batch`; each group reuses (or builds once) its
        compiled structure and runs **one** forward-plus-reverse linearized
        pass over all of the group's defect models
        (:meth:`repro.core.method.CompiledYield.gradients_many`).  Returns
        one :class:`repro.core.results.YieldGradients` per point — exact
        ``dY_M/dP_i`` for every component, with no perturbed re-evaluations.

        Gradient results are not cached: a pass costs about two traversals,
        which is cheaper than the digesting a result cache would need.
        """
        points = list(points)
        results: List[Optional[object]] = [None] * len(points)
        pending: Dict[Tuple, List[int]] = {}
        truncations: List[int] = [0] * len(points)
        for idx, point in enumerate(points):
            truncation = self._resolve_truncation(point)
            truncations[idx] = truncation
            skey = structure_key(point.problem, truncation, self.ordering)
            pending.setdefault(skey, []).append(idx)
        with self._fault_scope():
            for skey, indices in pending.items():
                first = indices[0]
                with self._locked_key(skey):
                    compiled, _ = self._structure_for(
                        skey, points[first].problem, truncations[first]
                    )
                    builds_before = compiled.linearize_builds
                    reuses_before = compiled.linearize_reuses
                    fused_before = _fused_passes_of(compiled)
                    native_before = _native_passes_of(compiled)
                    started = time.perf_counter()
                    with obs_trace.span(
                        "service.gradients", models=len(indices)
                    ) as span:
                        gradients = compiled.gradients_many(
                            [points[idx].problem for idx in indices]
                        )
                        _annotate_kernel(span, compiled)
                    self.stats.gradient_seconds += time.perf_counter() - started
                    self.stats.gradient_passes += 1
                    self.stats.points_differentiated += len(indices)
                    self.stats.linearize_builds += (
                        compiled.linearize_builds - builds_before
                    )
                    self.stats.linearize_reuses += (
                        compiled.linearize_reuses - reuses_before
                    )
                    self.stats.fused_passes += _fused_passes_of(compiled) - fused_before
                    self.stats.native_passes += (
                        _native_passes_of(compiled) - native_before
                    )
                    _native.publish_counters(self.registry, self._native_state)
                for idx, gradient in zip(indices, gradients):
                    results[idx] = gradient
        return results  # type: ignore[return-value]

    def density_sweep(
        self,
        problem_factory: Callable[[float], object],
        mean_defect_values: Sequence[float],
        *,
        max_defects: Optional[int] = None,
        epsilon: Optional[float] = None,
    ) -> List[Tuple[float, float, int]]:
        """Return ``(mean_defects, yield_estimate, M)`` over a density sweep.

        ``problem_factory`` maps the expected number of manufacturing
        defects to a problem (e.g. ``lambda mean: ms_problem(2,
        mean_defects=mean)``).  Because the factory varies only the defect
        model, every point that resolves to the same truncation level
        shares one diagram build.

        The point keys are cheapest when the factory reuses one frozen
        fault tree and one component model, as the :mod:`repro.soc`
        generators do: the circuit digest and the ``P'_i`` digest are then
        computed once for the whole sweep.  A factory that builds a fresh
        circuit per call gives the same results but hashes each circuit.
        """
        points = [
            SweepPoint(problem_factory(mean), max_defects=max_defects, epsilon=epsilon)
            for mean in mean_defect_values
        ]
        results = self.evaluate_batch(points)
        return [
            (float(mean), result.yield_estimate, result.truncation)
            for mean, result in zip(mean_defect_values, results)
        ]

    def truncation_sweep(
        self,
        problem,
        max_defects_values: Sequence[int],
    ) -> List[Tuple[int, float, float]]:
        """Return ``(M, yield_estimate, error_bound)`` for every requested ``M``."""
        points = [SweepPoint(problem, max_defects=int(m)) for m in max_defects_values]
        results = self.evaluate_batch(points)
        return [
            (int(m), result.yield_estimate, result.error_bound)
            for m, result in zip(max_defects_values, results)
        ]

    def clear(self) -> None:
        """Drop the in-memory structure and result caches (disk kept)."""
        with self._lock:
            self._structures.clear()
            self._results.clear()

    def resolve_point(self, point: SweepPoint) -> Tuple[Tuple, int]:
        """Return ``(structure_key, truncation)`` of a point.

        The submission seam for front ends: a server coalesces concurrent
        requests on the structure key *before* touching the service, so
        only one of them pays (or waits on) the build.
        """
        truncation = self._resolve_truncation(point)
        return structure_key(point.problem, truncation, self.ordering), truncation

    def has_structure(self, skey: Tuple) -> bool:
        """Whether ``skey`` is resident in the in-memory structure LRU."""
        with self._lock:
            return skey in self._structures

    def prime_structure(self, problem, truncation: int, skey: Optional[Tuple] = None):
        """Resolve (build if necessary) the structure for one point, now.

        Concurrency-safe and idempotent: callers of the same key block on
        one build; later calls are an LRU hit.  Returns the structure key,
        so a front end can prime with the key it coalesced on.
        """
        if skey is None:
            skey = structure_key(problem, truncation, self.ordering)
        with self._fault_scope():
            with self._locked_key(skey):
                self._structure_for(skey, problem, int(truncation))
        return skey

    def health(self) -> Dict[str, object]:
        """Degradation signals for front-end health endpoints.

        ``blocked_routes`` lists dispatch routes the cascade is currently
        sidestepping; ``last_respawn`` is the epoch time of the most
        recent pool respawn (``None`` if the pool never died).  A healthy
        service reports ``([], None)``.
        """
        with self._lock:
            return {
                "blocked_routes": self._ladder.blocked_routes(),
                "last_respawn": self._last_respawn,
            }

    def ensure_workers(self):
        """Spawn the persistent worker pool now (idempotent, thread-safe).

        The pool is otherwise created lazily by the first batch that needs
        it; long-lived callers can pre-spawn so the first sweep does not pay
        the process start-up.  Returns the pool, or ``None`` when workers
        are disabled or the platform cannot spawn processes.
        """
        with self._lock:
            if self.workers <= 1 or self._pool_broken:
                return None
            if self._pool is None:
                try:
                    from multiprocessing import resource_tracker

                    # workers forked after this share the parent's
                    # tracker, so their shared-memory attaches register
                    # with the one process that sees the parent unlink
                    resource_tracker.ensure_running()
                except Exception as exc:  # pragma: no cover - platform specific
                    faults.note_suppressed(self.registry, "shm.tracker", exc)
                try:
                    import multiprocessing

                    plan = self._fault_plan
                    self._pool = multiprocessing.Pool(
                        processes=self.workers,
                        initializer=faults.install_worker_plan,
                        initargs=(None if plan is None else plan.to_json(),),
                    )
                except Exception as exc:  # pragma: no cover - platform specific
                    faults.note_suppressed(
                        getattr(self, "registry", None), "pool.spawn", exc
                    )
                    self._pool_broken = True
                    return None
            return self._pool

    def respawn_workers(self):
        """Replace the worker pool with a fresh one (supervision path).

        A SIGKILLed pool member can die holding the shared task-queue
        lock, wedging its siblings, so recovery always replaces the whole
        pool rather than the one dead process.  Returns the new pool, or
        ``None`` when a fresh pool cannot be spawned.
        """
        self.close()
        with self._lock:
            self._pool_broken = False
            self._last_respawn = time.time()
        return self.ensure_workers()

    #: How long :meth:`close` lets ``Pool.terminate`` run before declaring
    #: the pool wedged and killing its members directly.  A member
    #: SIGKILLed while *idle* dies holding the shared task-queue reader
    #: lock, and ``terminate()`` then blocks forever trying to drain the
    #: queue — exactly the state an external ``kill -9`` (or the chaos
    #: suite) leaves behind.
    _CLOSE_TIMEOUT = 5.0

    def close(self) -> None:
        """Terminate the persistent worker pool (caches are kept).

        Safe to call repeatedly and from error paths: the pool reference
        is swapped out under the lock *before* teardown, so a second call
        (or a close racing an ``__del__``) is a no-op — terminate/join run
        exactly once per pool.  A pool wedged by a member that died
        holding a queue lock cannot be drained; after ``_CLOSE_TIMEOUT``
        the remaining members are SIGKILLed and the pool machinery is
        abandoned (its daemon threads die with the process) instead of
        blocking the caller forever.
        """
        # getattr: __del__ may run on instances whose __init__ raised early
        lock = getattr(self, "_lock", None)
        with lock if lock is not None else nullcontext():
            pool = getattr(self, "_pool", None)
            self._pool = None
            fabric = getattr(self, "_fabric", None)
            self._fabric = None
        if fabric is not None:
            # stop the heartbeat monitor; the scheduler is rebuilt lazily
            # by the next batch that wants the remote route
            try:
                fabric.close()
            except Exception as exc:  # pragma: no cover - defensive
                faults.note_suppressed(
                    getattr(self, "registry", None), "fabric.close", exc
                )
        if pool is None:
            return
        registry = getattr(self, "registry", None)

        def teardown():
            try:
                pool.terminate()
            except Exception as exc:  # pragma: no cover - defensive
                faults.note_suppressed(registry, "pool.terminate", exc)
            try:
                pool.join()
            except Exception as exc:  # pragma: no cover - defensive
                faults.note_suppressed(registry, "pool.join", exc)

        watchdog = threading.Thread(
            target=teardown, name="repro-pool-close", daemon=True
        )
        watchdog.start()
        watchdog.join(self._CLOSE_TIMEOUT)
        if watchdog.is_alive():
            if registry is not None:
                try:
                    registry.inc("fault.pool_wedged")
                except Exception:  # pragma: no cover - interpreter exit
                    pass
            for process in list(getattr(pool, "_pool", []) or []):
                try:
                    process.kill()
                except Exception as exc:  # pragma: no cover - defensive
                    faults.note_suppressed(registry, "pool.kill", exc)

    def __del__(self):  # pragma: no cover - interpreter-dependent timing
        self.close()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def _analyzer(self):
        from ..core.method import YieldAnalyzer

        return YieldAnalyzer(self.ordering, epsilon=self.epsilon, **self.analyzer_options)

    def _resolve_truncation(self, point: SweepPoint) -> int:
        if point.max_defects is not None:
            return int(point.max_defects)
        budget = self.epsilon if point.epsilon is None else float(point.epsilon)
        return point.problem.lethal_defect_distribution().truncation_level(budget)

    def _fault_scope(self):
        """Thread-scoped activation of this service's fault plan (if any)."""
        if self._fault_plan is None:
            return nullcontext()
        return faults.scoped(self._fault_plan)

    @contextmanager
    def _locked_key(self, skey: Tuple):
        """Serialize build + evaluation per structure key.

        Concurrent callers of the *same* key block here, so a structure is
        compiled exactly once and the shared compiled object's
        linearization workspaces are never raced; *different* keys proceed
        in parallel.  Lock entries are refcounted and dropped when the
        last holder leaves, so the table stays bounded by the number of
        concurrently-active keys.
        """
        with self._lock:
            entry = self._key_locks.get(skey)
            if entry is None:
                entry = self._key_locks[skey] = [threading.RLock(), 0]
            entry[1] += 1
        entry[0].acquire()
        try:
            yield
        finally:
            entry[0].release()
            with self._lock:
                entry[1] -= 1
                if entry[1] == 0:
                    self._key_locks.pop(skey, None)

    def _structure_for(self, skey: Tuple, problem, truncation: int):
        """Resolve a structure: memory LRU → persistent store → build.

        Callers that may run concurrently hold the key lock
        (:meth:`_locked_key`) around this, so at most one build per key is
        in flight; the LRU bookkeeping itself is guarded by the service
        lock.
        """
        with self._lock:
            compiled = self._structures.get(skey)
            if compiled is not None:
                self._structures.move_to_end(skey)
                self.stats.structure_reuses += 1
                return compiled, True
        if self._store is not None:
            loaded = self._store.load(skey, mmap=True)
            if loaded is not None:
                compiled, nbytes = loaded
                self.stats.store_hits += 1
                self.stats.store_bytes += nbytes
                if getattr(compiled, "store_mmapped", False):
                    self.stats.mmap_loads += 1
                self._store_structure(skey, compiled)
                return compiled, True
            self.stats.store_misses += 1
        with obs_trace.span("service.build", truncation=truncation):
            compiled = self._analyzer().compile_for_truncation(problem, truncation)
        self._store_structure(skey, compiled)
        self.stats.structures_built += 1
        self.stats.build_seconds += sum(compiled.build_timings)
        self.stats.reorder_seconds += compiled.reorder_seconds
        _publish_kernel_caches(self.registry, compiled)
        self._persist_structure(skey, compiled)
        return compiled, False

    def _persist_structure(self, skey: Tuple, compiled) -> None:
        """Save a freshly built structure to the store (never fails a sweep)."""
        if self._store is None:
            return
        builds_before = compiled.linearize_builds
        try:
            self.stats.store_bytes += self._store.save(skey, compiled)
        except OSError:  # pragma: no cover - persisting is best-effort
            pass
        # saving linearizes on demand; surface that build in the counters
        self.stats.linearize_builds += compiled.linearize_builds - builds_before

    def _evaluate_group_locally(self, compiled, problems, counts, *, reused: bool):
        """One batched pass over a group's defect models, with bookkeeping."""
        builds_before = compiled.linearize_builds
        reuses_before = compiled.linearize_reuses
        fused_before = _fused_passes_of(compiled)
        native_before = _native_passes_of(compiled)
        started = time.perf_counter()
        with obs_trace.span("service.evaluate", models=len(problems)) as span:
            results = compiled.evaluate_many(problems, counts=counts, reused=reused)
            _annotate_kernel(span, compiled)
        self.stats.evaluate_seconds += time.perf_counter() - started
        self.stats.batched_passes += 1
        self.stats.linearize_builds += compiled.linearize_builds - builds_before
        self.stats.linearize_reuses += compiled.linearize_reuses - reuses_before
        self.stats.fused_passes += _fused_passes_of(compiled) - fused_before
        self.stats.native_passes += _native_passes_of(compiled) - native_before
        _native.publish_counters(self.registry, self._native_state)
        return results

    def _store_structure(self, skey: Tuple, compiled) -> None:
        with self._lock:
            self._structures[skey] = compiled
            self._structures.move_to_end(skey)
            while len(self._structures) > self.max_structures:
                self._structures.popitem(last=False)

    def _remember_results(self, items) -> None:
        """Put ``(result key, result)`` pairs in the memory LRU, one lock."""
        if not items:
            return
        with self._lock:
            for rkey, result in items:
                self._results[rkey] = result
                self._results.move_to_end(rkey)
            while len(self._results) > self.max_results:
                self._results.popitem(last=False)

    def _run_serial(self, groups, points, truncations, counts):
        evaluated = []
        for skey, indices in groups:
            first = indices[0]
            with self._locked_key(skey):
                compiled, reused = self._structure_for(
                    skey, points[first].problem, truncations[first]
                )
                results = self._evaluate_group_locally(
                    compiled,
                    [points[idx].problem for idx in indices],
                    [counts[idx] for idx in indices],
                    reused=reused,
                )
            evaluated.extend(zip(indices, results))
        return evaluated

    def _fabric_scheduler(self):
        """The remote shard fabric, created lazily (``None`` if unusable).

        The fabric needs configured workers, a structure store (workers
        resolve structures by digest) and an explicit ``shard_size``.
        Rebuilt after :meth:`close`, so a respawned service keeps its
        remote route.
        """
        if not self.remote_workers or self._store is None or self.shard_size is None:
            return None
        with self._lock:
            if self._fabric is None:
                from .fabric import FabricScheduler

                self._fabric = FabricScheduler(
                    self.remote_workers,
                    self.registry,
                    max_retries=self.max_retries,
                    shard_timeout=self.shard_timeout,
                    backoff=self._backoff,
                    heartbeat_interval=self.heartbeat_interval,
                    fault_plan=self._fault_plan,
                )
            return self._fabric

    def _run_fabric(self, groups, points, truncations, counts, fabric):
        """Dispatch sharded groups to the remote fabric.

        Returns ``(evaluated, leftover)``: results for every model span a
        remote worker finished, and the groups (or failed remnants of
        groups) the local routes must still evaluate.  The parent builds
        or loads each group's structure once, persists it to the shared
        store, assembles the model matrices, and ships per-span column
        slices — workers run only the kernel pass, so a remote result is
        bit-for-bit the local one.
        """
        from .fabric import FabricShard
        from .store import digest_of
        import numpy

        evaluated: List[Tuple[int, object]] = []
        leftover = []
        if not fabric.has_live_workers():
            # keep probing so returning workers are re-admitted even
            # while every batch bypasses the remote route
            fabric.monitor.ensure()
            return [], groups
        shards = []
        fabric_groups = []
        live = max(1, len(fabric.live_workers()))
        for skey, indices in groups:
            if len(indices) < self.shard_size:
                leftover.append((skey, indices))
                continue
            first = indices[0]
            with self._locked_key(skey):
                compiled, reused = self._structure_for(
                    skey, points[first].problem, truncations[first]
                )
            if not self._store.contains(skey):
                self._persist_structure(skey, compiled)
                if not self._store.contains(skey):
                    # the store cannot hold this structure: workers could
                    # never resolve its digest, so keep the group local
                    leftover.append((skey, indices))
                    continue
            problems = [points[idx].problem for idx in indices]
            vectors = [counts[idx] for idx in indices]
            k = len(problems)
            try:
                count, location = compiled.model_matrices(problems, vectors)
            except Exception:
                leftover.append((skey, indices))
                continue
            count = numpy.ascontiguousarray(count, dtype="<f8")
            location = numpy.ascontiguousarray(location, dtype="<f8")
            group = {
                "skey": skey,
                "compiled": compiled,
                "problems": problems,
                "counts": vectors,
                "indices": list(indices),
                "fresh": not reused,
                "models": k,
                "probabilities": [None] * k,
                "failed": set(),
                "evaluate_seconds": 0.0,
            }
            fabric_groups.append(group)
            digest = digest_of(skey)
            for chunk in _chunked(
                list(range(k)), max(1, min(2 * live, k // self.shard_size))
            ):
                a, b = chunk[0], chunk[-1] + 1
                shards.append(
                    FabricShard(
                        group=group,
                        span=(a, b),
                        digest=digest,
                        count_bytes=numpy.ascontiguousarray(
                            count[:, a:b]
                        ).tobytes(),
                        location_bytes=numpy.ascontiguousarray(
                            location[:, a:b]
                        ).tobytes(),
                        count_rows=count.shape[0],
                        location_rows=location.shape[0],
                        models=b - a,
                    )
                )
        if not shards:
            return [], leftover

        started = time.perf_counter()
        successes, failures = fabric.dispatch(shards)
        for shard in successes:
            group = shard.group
            a, b = shard.span
            group["probabilities"][a:b] = shard.result
            group["evaluate_seconds"] += shard.evaluate_seconds
            # the worker's metrics delta rides home on the response; one
            # merge is the whole aggregation
            self.registry.merge_snapshot(shard.metrics)
            self._ladder.note_success("remote", self.registry)
        for shard in failures:
            shard.group["failed"].update(range(*shard.span))
            self._ladder.note_failure("remote", self.registry)
        for group in fabric_groups:
            k = group["models"]
            ok = [m for m in range(k) if m not in group["failed"]]
            if ok:
                results = group["compiled"].package_results(
                    [group["problems"][m] for m in ok],
                    [group["counts"][m][-1] for m in ok],
                    [group["probabilities"][m] for m in ok],
                    reused=not (group["fresh"] and ok[0] == 0),
                    per_point=group["evaluate_seconds"] / max(1, k),
                )
                evaluated.extend(
                    (group["indices"][m], result) for m, result in zip(ok, results)
                )
            if group["failed"]:
                # spans the fabric could not finish rejoin the batch as a
                # smaller group: the local pool (or the parent) takes over
                leftover.append(
                    (
                        group["skey"],
                        [group["indices"][m] for m in sorted(group["failed"])],
                    )
                )
        self.stats.evaluate_seconds += time.perf_counter() - started
        if successes:
            self.stats.points_sharded += sum(s.models for s in successes)
        return evaluated, leftover

    def _shard_count(self, num_points: int) -> int:
        """How many worker shards a group of ``num_points`` points gets."""
        if self.workers <= 1 or self.shard_size is None:
            return 1
        return min(self.workers, max(1, num_points // self.shard_size))

    def _prepare_shm_group(self, compiled, indices, points, counts, fresh):
        """Stage one sharded group's matrices in a shared-memory block.

        Layout: the ``(M + 2) x K`` count matrix, the ``C x K`` location
        matrix and the length-``K`` result vector, back to back.  The
        parent assembles (and validates) the matrices **directly into the
        block**; workers map their model-column slice and write the
        computed probabilities into the result span — the pickled payload
        per shard shrinks to indices plus the block name.  Returns ``None``
        when a block cannot be created (the caller falls back to the
        pickled protocol).
        """
        from multiprocessing import shared_memory

        import numpy

        problems = [points[idx].problem for idx in indices]
        vectors = [counts[idx] for idx in indices]
        k = len(problems)
        count_rows = compiled.truncation + 2
        location_rows = len(compiled.component_names)
        nbytes = (count_rows * k + location_rows * k + k) * 8
        try:
            faults.fire("shm.create", self.registry)
            block = shared_memory.SharedMemory(create=True, size=nbytes)
        except Exception:  # platform without (writable) /dev/shm
            self.registry.inc("fault.shm_create")
            return None
        janitor().adopt(block)
        try:
            count = numpy.ndarray(
                (count_rows, k), dtype=numpy.float64, buffer=block.buf
            )
            location = numpy.ndarray(
                (location_rows, k),
                dtype=numpy.float64,
                buffer=block.buf,
                offset=count_rows * k * 8,
            )
            compiled.model_matrices(
                problems, vectors, out_count=count, out_location=location
            )
        except Exception:
            _release_shared_block(block, unlink=True, registry=self.registry)
            return None
        finally:
            count = location = None
        self.stats.shm_bytes += nbytes
        return {
            "block": block,
            "compiled": compiled,
            "problems": problems,
            "counts": vectors,
            "indices": list(indices),
            "fresh": fresh,
            "count_rows": count_rows,
            "location_rows": location_rows,
            "models": k,
            "failed_spans": [],
            # spans whose results arrive outside the block (a shard
            # degraded to the pickled protocol mid-dispatch): excluded
            # from packaging entirely
            "external_spans": [],
            "evaluate_seconds": 0.0,
        }

    def _collect_shm_group(self, group, evaluated) -> None:
        """Read one group's result vector out of shared memory and package it."""
        import numpy

        block = group["block"]
        k = group["models"]
        offset = (group["count_rows"] + group["location_rows"]) * k * 8
        try:
            vector = numpy.ndarray(
                (k,), dtype=numpy.float64, buffer=block.buf, offset=offset
            )
            probabilities = vector.tolist()
        finally:
            vector = None
            _release_shared_block(block, unlink=True, registry=self.registry)
        failed = set()
        for a, b in group["failed_spans"]:
            failed.update(range(a, b))
        external = set()
        for a, b in group["external_spans"]:
            external.update(range(a, b))
        failed -= external
        ok = [m for m in range(k) if m not in failed and m not in external]
        compiled = group["compiled"]
        if ok:
            results = compiled.package_results(
                [group["problems"][m] for m in ok],
                [group["counts"][m][-1] for m in ok],
                [probabilities[m] for m in ok],
                reused=not (group["fresh"] and ok[0] == 0),
                per_point=group["evaluate_seconds"] / max(1, k),
            )
            evaluated.extend(
                (group["indices"][m], result) for m, result in zip(ok, results)
            )
        if failed:
            # a worker could not resolve the structure from the store (for
            # example a concurrent `cache clear`): evaluate the orphaned
            # models in-process — the parent still holds the structure
            retry = sorted(failed)
            with self._locked_key(group["skey"]):
                results = self._evaluate_group_locally(
                    compiled,
                    [group["problems"][m] for m in retry],
                    [group["counts"][m] for m in retry],
                    reused=True,
                )
            evaluated.extend(
                (group["indices"][m], result) for m, result in zip(retry, results)
            )

    def _run_parallel(self, groups, points, truncations, counts):
        evaluated = []
        if self.shard_size is None:
            # a held structure needs one in-process pass, cheaper than any
            # dispatch; it runs here, so it never queues for the lock below
            with self._lock:
                held = [group for group in groups if group[0] in self._structures]
            groups = [group for group in groups if group not in held]
            self.registry.inc("dispatch.groups_in_process", len(held))
            evaluated = self._run_serial(held, points, truncations, counts)
        if groups:
            # one supervised dispatch at a time: the supervisor respawns the
            # shared pool on faults, which two concurrent dispatch loops
            # would race; concurrent batches queue here while serial-route
            # batches (different keys) keep running in parallel
            with self._dispatch_lock:
                evaluated += self._run_parallel_locked(
                    groups, points, truncations, counts
                )
        return evaluated

    def _run_parallel_locked(self, groups, points, truncations, counts):
        # settle pool availability before any stats-mutating shard prep, so
        # a platform that cannot spawn workers falls back to the serial
        # route without double-counting structure/linearization work
        if self.ensure_workers() is None:
            return self._run_serial(groups, points, truncations, counts)
        store_root = self.store_dir if self._store is not None else None
        payloads = []
        local_groups = []
        shm_groups: Dict[Tuple, Dict] = {}
        sharded_points = 0
        sharded_payloads = 0
        for skey, indices in groups:
            with self._lock:
                compiled = self._structures.get(skey)
            shards = self._shard_count(len(indices))
            if shards <= 1:
                if compiled is not None:
                    # already compiled locally: cheaper to evaluate in-process
                    local_groups.append((skey, indices))
                else:
                    # whole-group dispatch: the worker resolves the structure
                    # (its LRU → the store → a build) and hands it back for
                    # the parent's LRU to serve later batches
                    payloads.append(
                        self._payload(
                            skey, indices, points, truncations, None, False,
                            store_root, True,
                        )
                    )
                continue
            # intra-group point sharding: one structure build in the parent.
            # Without a store the pickled structure (with its linearized
            # arrays, so workers skip linearization too) ships with every
            # chunk; with a store the chunk carries only a store reference
            # and each worker warm-starts the structure from disk.
            if compiled is None:
                with self._locked_key(skey):
                    compiled, reused = self._structure_for(
                        skey, points[indices[0]].problem, truncations[indices[0]]
                    )
                fresh = not reused
            else:
                with self._lock:
                    self._structures.move_to_end(skey)
                self.stats.structure_reuses += 1
                fresh = False
            builds_before = compiled.linearize_builds
            compiled.linearized()
            self.stats.linearize_builds += compiled.linearize_builds - builds_before
            ship = compiled
            if self._store is not None:
                if not self._store.contains(skey):
                    self._persist_structure(skey, compiled)
                if self._store.contains(skey):
                    ship = None  # workers load the slim on-disk form instead
            shm_group = None
            if ship is None and self.use_shared_memory and self._ladder.allows("shm"):
                # zero-copy dispatch: columns and results move through one
                # shared-memory block, the payload shrinks to a span + name
                shm_group = self._prepare_shm_group(
                    compiled, indices, points, counts, fresh
                )
                if shm_group is None:
                    # creation failed: block the route for a cooldown so the
                    # next groups go straight to the pickled protocol
                    self._ladder.note_failure("shm", self.registry)
            sharded_points += len(indices)
            if shm_group is not None:
                shm_group["skey"] = skey
                shm_groups[skey] = shm_group
                for chunk in _chunked(list(range(len(indices))), shards):
                    payloads.append(
                        {
                            "kind": "columns",
                            "skey": skey,
                            "shm": shm_group["block"].name,
                            "span": (chunk[0], chunk[-1] + 1),
                            "count_rows": shm_group["count_rows"],
                            "location_rows": shm_group["location_rows"],
                            "models": shm_group["models"],
                            "store_root": store_root,
                            "trace": obs_trace.active() is not None,
                        }
                    )
                    sharded_payloads += 1
                continue
            for shard_index, chunk in enumerate(_chunked(indices, shards)):
                payloads.append(
                    self._payload(
                        skey,
                        chunk,
                        points,
                        truncations,
                        ship,
                        fresh and shard_index == 0,
                        store_root if ship is None else None,
                        False,
                    )
                )
                sharded_payloads += 1

        try:
            if len(payloads) <= 1:
                # at most one whole-group build pending: a pool cannot help,
                # so run the whole batch in-process (structures the parent
                # already holds are simply reused by the serial route)
                for group in shm_groups.values():
                    _release_shared_block(
                        group["block"], unlink=True, registry=self.registry
                    )
                shm_groups = {}
                return self._run_serial(groups, points, truncations, counts)

            evaluated = []
            local_keys = {skey for skey, _ in local_groups}
            pool = self.ensure_workers()
            if pool is None:  # pragma: no cover - pool died between the checks
                fallback = [g for g in groups if g[0] not in local_keys]
                evaluated = self._run_serial(fallback, points, truncations, counts)
            else:
                try:
                    # the parent pickles the payloads itself (the pool then
                    # moves opaque bytes), so the dispatch cost is paid once
                    # and the exact payload size lands in shard_payload_bytes
                    blobs = [
                        pickle.dumps(payload, protocol=_PICKLE_PROTOCOL)
                        for payload in payloads
                    ]
                    self.stats.shard_payload_bytes += sum(len(blob) for blob in blobs)
                    started = time.perf_counter()
                    worker_build_seconds = 0.0
                    tracer = obs_trace.active()
                    jobs = []
                    for payload, blob in zip(payloads, blobs):
                        if isinstance(payload, dict):
                            a, b = payload["span"]
                            jobs.append(
                                ShardJob(payload, blob, models=b - a, route="columns")
                            )
                        else:
                            jobs.append(
                                ShardJob(
                                    payload,
                                    blob,
                                    models=len(payload[6]),
                                    route="pickled",
                                )
                            )

                    def repickle(job):
                        # degrade one columns shard to the pickled protocol:
                        # same models, but the results now return via the
                        # pickled chunk, so its span is excluded from the
                        # shared-memory packaging
                        payload = job.payload
                        if not isinstance(payload, dict):
                            return None
                        group = shm_groups.get(payload["skey"])
                        if group is None:
                            return None
                        a, b = payload["span"]
                        chunk = [group["indices"][m] for m in range(a, b)]
                        replacement = self._payload(
                            payload["skey"], chunk, points, truncations,
                            None, False, store_root, False,
                        )
                        group["external_spans"].append((a, b))
                        self._ladder.note_failure("shm", self.registry)
                        job.payload = replacement
                        return pickle.dumps(replacement, protocol=_PICKLE_PROTOCOL)

                    supervisor = ShardSupervisor(
                        self,
                        max_retries=self.max_retries,
                        shard_timeout=self.shard_timeout,
                        backoff=self._backoff,
                    )
                    with obs_trace.span("service.dispatch", shards=len(payloads)):
                        successes, quarantined = supervisor.dispatch(
                            jobs, _evaluate_shard, repickle=repickle
                        )
                    for job, shard_result in successes:
                        skey, compiled, chunk, shard_stats = shard_result
                        # every worker counter arrives as one registry
                        # snapshot; merging it is the whole aggregation —
                        # new worker metrics never need parent-side plumbing
                        self.registry.merge_snapshot(shard_stats.get("metrics"))
                        if tracer is not None:
                            tracer.adopt(shard_stats.get("spans"))
                        # keep the worker-resolved structure for later batches
                        if compiled is not None:
                            self._store_structure(skey, compiled)
                            if shard_stats.get("built"):
                                if self._store is not None and not self._store.contains(
                                    skey
                                ):
                                    self._persist_structure(skey, compiled)
                        if shard_stats.get("built"):
                            worker_build_seconds += shard_stats.get("build_seconds", 0.0)
                        if shard_stats.get("kind") == "columns":
                            group = shm_groups[skey]
                            span = shard_stats["span"]
                            if shard_stats.get("ok"):
                                group["evaluate_seconds"] += shard_stats.get(
                                    "evaluate_seconds", 0.0
                                )
                                self._ladder.note_success("shm", self.registry)
                            else:
                                group["failed_spans"].append(span)
                            continue
                        evaluated.extend(chunk)
                        self._ladder.note_success("pickled", self.registry)
                    # quarantined shards exhausted their retries (or the
                    # pool is gone): the parent evaluates them itself — the
                    # bottom rung of the cascade, always available
                    for job in quarantined:
                        payload = job.payload
                        if isinstance(payload, dict):
                            self._ladder.note_failure("shm", self.registry)
                            group = shm_groups[payload["skey"]]
                            group["failed_spans"].append(tuple(payload["span"]))
                            continue
                        self._ladder.note_failure("pickled", self.registry)
                        qkey = payload[0]
                        truncation = payload[4]
                        q_indices = payload[5]
                        q_problems = payload[6]
                        with self._locked_key(qkey):
                            compiled, reused = self._structure_for(
                                qkey, q_problems[0], truncation
                            )
                            q_results = self._evaluate_group_locally(
                                compiled,
                                q_problems,
                                [counts[idx] for idx in q_indices],
                                reused=reused,
                            )
                        evaluated.extend(zip(q_indices, q_results))
                    for group in shm_groups.values():
                        self._collect_shm_group(group, evaluated)
                    shm_groups = {}
                    # the pool wall clock minus the build time workers
                    # reported is the evaluation (plus transfer) share
                    elapsed = time.perf_counter() - started
                    self.stats.evaluate_seconds += max(
                        0.0, elapsed - worker_build_seconds
                    )
                    self.stats.parallel_batches += 1
                    self.stats.shards_dispatched += sharded_payloads
                    self.stats.points_sharded += sharded_points
                except Exception:
                    # pickling or pool trouble: drop the (possibly wedged)
                    # pool and fall back to in-process work; the next batch
                    # may retry with a fresh pool — one bad payload must not
                    # disable parallelism for the service's lifetime
                    self.close()
                    fallback = [g for g in groups if g[0] not in local_keys]
                    evaluated = self._run_serial(fallback, points, truncations, counts)
            if local_groups:
                evaluated.extend(
                    self._run_serial(local_groups, points, truncations, counts)
                )
            return evaluated
        finally:
            for group in shm_groups.values():
                _release_shared_block(
                    group["block"], unlink=True, registry=self.registry
                )

    def _payload(
        self, skey, indices, points, truncations, compiled, fresh, store_root, adopt
    ):
        return (
            skey,
            self.ordering.key(),
            self.epsilon,
            self.analyzer_options,
            truncations[indices[0]],
            list(indices),
            [points[idx].problem for idx in indices],
            compiled,
            fresh,
            store_root,
            adopt,
            obs_trace.active() is not None,
        )

    # ------------------------------------------------------------------ #
    # Disk cache
    # ------------------------------------------------------------------ #

    def _disk_path(self, rkey: Tuple) -> Optional[str]:
        if not self.cache_dir:
            return None
        digest = hashlib.sha256(repr(rkey).encode()).hexdigest()
        return os.path.join(self.cache_dir, "yield-%s.pkl" % digest)

    def _disk_get(self, rkey: Tuple):
        """One disk-cache lookup: the stored result, or ``_MISS``.

        The sentinel (not ``None``) reports a miss so a legitimately
        stored ``None`` result still counts as a hit.
        """
        path = self._disk_path(rkey)
        if path is None:
            return _MISS
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except (OSError, pickle.PickleError, EOFError, AttributeError):
            return _MISS

    def _disk_put(self, rkey: Tuple, result) -> None:
        path = self._disk_path(rkey)
        if path is None:
            return
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            tmp = path + ".tmp"
            with open(tmp, "wb") as handle:
                pickle.dump(result, handle, protocol=_PICKLE_PROTOCOL)
            os.replace(tmp, path)
        except OSError:  # pragma: no cover - caching must never fail a sweep
            pass


def _chunked(items: Sequence, chunks: int) -> List[list]:
    """Split ``items`` into ``chunks`` contiguous, near-equal, non-empty lists."""
    chunks = max(1, min(int(chunks), len(items)))
    size, extra = divmod(len(items), chunks)
    out = []
    position = 0
    for index in range(chunks):
        width = size + (1 if index < extra else 0)
        out.append(list(items[position : position + width]))
        position += width
    return out


#: Per-worker-process structure cache: shards of the same group that land in
#: the same worker share one resolution.  A true LRU (hits refresh recency)
#: with a small bound, so a persistent pool serving many structure keys
#: cannot grow it without limit.
_WORKER_STRUCTURES: "OrderedDict[Tuple, object]" = OrderedDict()
_WORKER_STRUCTURES_BOUND = 4


def _worker_structure_get(skey):
    compiled = _WORKER_STRUCTURES.get(skey)
    if compiled is not None:
        _WORKER_STRUCTURES.move_to_end(skey)
    return compiled


def _worker_structure_put(skey, compiled) -> None:
    _WORKER_STRUCTURES[skey] = compiled
    _WORKER_STRUCTURES.move_to_end(skey)
    while len(_WORKER_STRUCTURES) > _WORKER_STRUCTURES_BOUND:
        _WORKER_STRUCTURES.popitem(last=False)


#: Per-worker-process high-water marks for the native backend counters:
#: each shard's registry snapshot carries only the deltas since the
#: previous shard in this process, so merging every snapshot into the
#: parent sums to the process totals exactly once.
_WORKER_NATIVE_STATE: Dict[str, int] = {}


def _worker_native_setup(store_root) -> None:
    """Point a worker's native `.so` cache at the shared store.

    Workers pick the backend independently: each process compiles or
    warm-starts the library itself (content-addressed, so concurrent
    workers converge on one cache entry) and falls back to the fused
    kernel on its own if this host cannot build it.
    """
    if store_root:
        _native.set_cache_dir(os.path.join(store_root, "native"))


def _evaluate_shard(payload, deadline=None):
    """Worker entry point: evaluate one shard of a structure group.

    The payload arrives as parent-pickled bytes (the parent accounts the
    exact dispatch size that way).  Tuple payloads are the pickled
    protocol: the worker resolves the shard's structure in warmth order —
    shipped with the payload, the per-process LRU, the persistent store
    (memory-mapped), a fresh build — and evaluates all of the shard's
    defect models in one batched pass.  A structure the parent did not
    already hold (``adopt``) is returned so the parent's LRU serves later
    batches without re-resolving.  Dict payloads are the zero-copy
    shared-memory protocol (:func:`_evaluate_shard_columns`).

    ``deadline`` (epoch seconds, from the supervisor) arms the shard-level
    deadline hook in the batch kernel: a worker stuck in a long pass
    raises ``DeadlineExceeded`` itself instead of forcing the parent to
    kill the pool.  The injection sites here model the fault classes the
    supervision layer must absorb (see :mod:`repro.engine.faults`).
    """
    if isinstance(payload, (bytes, bytearray)):
        faults.fire("shard.unpickle")
        payload = pickle.loads(payload)
    faults.fire("worker.kill")
    faults.fire("worker.hang")
    trace_requested = (
        payload.get("trace") if isinstance(payload, dict) else payload[11]
    )
    # the parent asked for spans: run a fresh tracer for this shard and
    # ship its finished spans home with the shard stats.  Always a fresh
    # one — a forked worker inherits the parent's (useless) active tracer
    tracer = obs_trace.start() if trace_requested else None
    try:
        with shard_deadline(deadline):
            if isinstance(payload, dict):
                result = _evaluate_shard_columns(payload)
            else:
                result = _evaluate_shard_pickled(payload)
    finally:
        if tracer is not None:
            obs_trace.stop()
    if tracer is not None:
        result[3]["spans"] = tracer.spans()
    return result


def _evaluate_shard_pickled(payload):
    (
        skey,
        ordering_key,
        epsilon,
        analyzer_options,
        truncation,
        indices,
        problems,
        compiled,
        fresh,
        store_root,
        adopt,
        _trace,
    ) = payload
    _worker_native_setup(store_root)
    registry = MetricsRegistry()
    wstats = SweepServiceStats(registry)
    built = False
    store_hit = False
    with obs_trace.span("worker.shard", kind="pickled", models=len(problems)):
        if compiled is None:
            compiled = _worker_structure_get(skey)
            if compiled is None:
                if store_root is not None:
                    from .store import StructureStore

                    loaded = StructureStore(store_root, registry=registry).load(
                        skey, mmap=True
                    )
                    if loaded is not None:
                        compiled, store_bytes = loaded
                        store_hit = True
                        wstats.store_hits += 1
                        wstats.store_bytes += store_bytes
                        if getattr(compiled, "store_mmapped", False):
                            wstats.mmap_loads += 1
                    else:
                        wstats.store_misses += 1
                if compiled is None:
                    from ..core.method import YieldAnalyzer
                    from ..ordering.strategies import OrderingSpec

                    ordering = OrderingSpec.from_key(ordering_key)
                    analyzer = YieldAnalyzer(
                        ordering, epsilon=epsilon, **analyzer_options
                    )
                    with obs_trace.span("service.build", truncation=truncation):
                        compiled = analyzer.compile_for_truncation(
                            problems[0], truncation
                        )
                    built = True
                    wstats.structures_built += 1
                    wstats.build_seconds += sum(compiled.build_timings)
                    wstats.reorder_seconds += compiled.reorder_seconds
                    _publish_kernel_caches(registry, compiled)
                _worker_structure_put(skey, compiled)
            fresh = built
        builds_before = compiled.linearize_builds
        reuses_before = compiled.linearize_reuses
        fused_before = _fused_passes_of(compiled)
        native_before = _native_passes_of(compiled)
        started = time.perf_counter()
        # a pickled shard holds only problems: their vectors are computed
        # here, by the helper the parent's result keys use
        results = compiled.evaluate_many(problems, reused=not fresh)
        wstats.worker_evaluate_seconds += time.perf_counter() - started
        wstats.batched_passes += 1
        wstats.linearize_builds += compiled.linearize_builds - builds_before
        wstats.linearize_reuses += compiled.linearize_reuses - reuses_before
        wstats.fused_passes += _fused_passes_of(compiled) - fused_before
        wstats.native_passes += _native_passes_of(compiled) - native_before
        _native.publish_counters(registry, _WORKER_NATIVE_STATE)
    shard_stats = {
        "built": built,
        "models": len(problems),
        "metrics": registry.snapshot(),
    }
    if built:
        shard_stats["build_seconds"] = sum(compiled.build_timings)
    return (
        skey,
        compiled if adopt and (built or store_hit) else None,
        list(zip(indices, results)),
        shard_stats,
    )


def _evaluate_shard_columns(payload):
    """Worker entry point of the zero-copy shared-memory shard protocol.

    The payload carries no problems and no columns — only the structure
    key, a store reference and the location of this shard's model span
    inside the group's shared-memory block.  The worker resolves the
    structure (per-process LRU → memory-mapped store load), maps the
    column matrices out of the block, runs the kernel over its span's
    slice and writes the probabilities into the block's result vector.
    A worker that cannot resolve the structure reports ``ok: False`` and
    the parent re-evaluates the span in-process.
    """
    skey = payload["skey"]
    a, b = payload["span"]
    _worker_native_setup(payload.get("store_root"))
    registry = MetricsRegistry()
    wstats = SweepServiceStats(registry)
    shard_stats = {
        "kind": "columns",
        "span": (a, b),
        "ok": False,
        "models": b - a,
    }
    with obs_trace.span("worker.shard", kind="columns", models=b - a):
        compiled = _worker_structure_get(skey)
        if compiled is None:
            from .store import StructureStore

            loaded = StructureStore(payload["store_root"], registry=registry).load(
                skey, mmap=True
            )
            if loaded is None:
                # the metrics snapshot ships even on the ok:false fallback
                # path, so the parent still counts the worker's store miss
                wstats.store_misses += 1
                shard_stats["metrics"] = registry.snapshot()
                return skey, None, None, shard_stats
            compiled, store_bytes = loaded
            wstats.store_hits += 1
            wstats.store_bytes += store_bytes
            if getattr(compiled, "store_mmapped", False):
                wstats.mmap_loads += 1
            _worker_structure_put(skey, compiled)

        import numpy

        k = payload["models"]
        count_rows = payload["count_rows"]
        location_rows = payload["location_rows"]
        block = _attach_shared_block(payload["shm"])
        try:
            count = numpy.ndarray(
                (count_rows, k), dtype=numpy.float64, buffer=block.buf
            )
            location = numpy.ndarray(
                (location_rows, k),
                dtype=numpy.float64,
                buffer=block.buf,
                offset=count_rows * k * 8,
            )
            vector = numpy.ndarray(
                (k,),
                dtype=numpy.float64,
                buffer=block.buf,
                offset=(count_rows + location_rows) * k * 8,
            )
            builds_before = compiled.linearize_builds
            reuses_before = compiled.linearize_reuses
            fused_before = _fused_passes_of(compiled)
            native_before = _native_passes_of(compiled)
            started = time.perf_counter()
            vector[a:b] = compiled.evaluate_probabilities(
                count[:, a:b], location[:, a:b], b - a
            )
            seconds = time.perf_counter() - started
            shard_stats["evaluate_seconds"] = seconds
            wstats.worker_evaluate_seconds += seconds
            wstats.batched_passes += 1
            wstats.linearize_builds += compiled.linearize_builds - builds_before
            wstats.linearize_reuses += compiled.linearize_reuses - reuses_before
            wstats.fused_passes += _fused_passes_of(compiled) - fused_before
            wstats.native_passes += _native_passes_of(compiled) - native_before
            _native.publish_counters(registry, _WORKER_NATIVE_STATE)
            shard_stats["ok"] = True
        finally:
            count = location = vector = None
            _release_shared_block(block, unlink=False, registry=registry)
    shard_stats["metrics"] = registry.snapshot()
    return skey, None, None, shard_stats
