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
* a pooled service (``workers > 1``) runs every group whose structure it
  holds in-process, outside the dispatch lock: at every measured K one
  batched pass costs less than a dispatch.  Each group it does not hold
  goes whole to a supervised ``multiprocessing`` pool
  (:mod:`repro.engine.supervise`): the worker resolves the structure (its
  per-process LRU → the store → a build), evaluates all of the group's
  points in one batched pass and hands the structure back for the
  parent's LRU, so later batches on it run in-process;
* with ``store_dir`` set, compiled structures also survive process
  restarts: :mod:`repro.engine.store` persists the fused linearized
  arrays and the level profile in a versioned on-disk format that loaders
  memory-map (``mmap_mode="r"`` — no copies, page cache shared across
  forked workers), and the service resolves structures memory-LRU → disk
  store → build (``store.hits`` / ``store.misses`` / ``store.bytes`` /
  ``store.mmap_loads`` in the service's registry count the traffic);
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
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import faults
from . import native as _native
from .batch import shard_deadline
from .supervise import Backoff, ShardJob, ShardSupervisor
from ..obs import trace as obs_trace
from ..obs.metrics import MetricsRegistry

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Cache-miss sentinel: the result caches must be able to store *any*
#: value — including ``None`` — so lookups compare against this marker
#: instead of testing the stored value's truthiness.
_MISS = object()


def _resolve_structure(registry, store, skey, analyzer, problem, truncation: int):
    """Load a structure from the store, else build it: ``(compiled, built)``.

    The one resolution step below the in-memory LRUs, shared by the service
    and its pool workers, with its accounting: the ``store.*`` traffic and,
    for a build, ``service.structures.built``, the ``phase.build_seconds``
    and ``phase.reorder_seconds`` samples and the computed-table totals the
    build snapshotted (``kernel.cache.<manager>.<event>``; a worker ships
    them home in its registry snapshot, so they aggregate across processes).
    """
    if store is not None:
        loaded = store.load(skey, mmap=True)
        if loaded is not None:
            compiled, nbytes = loaded
            registry.inc("store.hits")
            registry.inc("store.bytes", nbytes)
            if compiled.store_mmapped:
                registry.inc("store.mmap_loads")
            return compiled, False
        registry.inc("store.misses")
    with obs_trace.span("service.build", truncation=truncation):
        compiled = analyzer.compile_for_truncation(problem, truncation)
    registry.inc("service.structures.built")
    registry.observe("phase.build_seconds", sum(compiled.build_timings))
    if compiled.reorder_seconds:
        registry.observe("phase.reorder_seconds", compiled.reorder_seconds)
    for manager, totals in (compiled.kernel_cache_stats or {}).items():
        for event, value in totals.items():
            if value:
                registry.inc("kernel.cache.%s.%s" % (manager, event), value)
    return compiled, True


@contextmanager
def _counted_pass(registry, native_state, compiled, phase, passes, span=None, models=0):
    """Count the one kernel pass over ``compiled`` that runs in the block.

    The pass bookkeeping of the service and its pool workers: one ``phase``
    histogram sample, one ``passes`` increment, the deltas of the
    structure's linearization builds and reuses and of its fused and native
    passes, and the native backend's ``native.*`` counters (``native_state``
    holds the caller's high-water marks).  With a ``span`` name the pass
    runs in that span, which records the kernel the pass resolved on this
    host (``linearized.last_kernel``), so a trace shows which path it took.
    """

    def counts():
        linearized = compiled._linearized
        return {
            "service.linearize.builds": compiled.linearize_builds,
            "service.linearize.reuses": compiled.linearize_reuses,
            "kernel.fused_passes": getattr(linearized, "fused_passes", 0),
            "kernel.native_passes": getattr(linearized, "native_passes", 0),
        }

    before = counts()
    started = time.perf_counter()
    opened = obs_trace.span(span, models=models) if span else obs_trace.NULL_SPAN
    with opened as active:
        yield
        kernel = getattr(compiled._linearized, "last_kernel", None)
        if kernel is not None:
            active.set(kernel=kernel)
    registry.observe(phase, time.perf_counter() - started)
    registry.inc(passes)
    for name, value in counts().items():
        if value != before[name]:
            registry.inc(name, value - before[name])
    _native.publish_counters(registry, native_state)


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
        Fan the structure groups of a batch that the service does not hold
        out over this many ``multiprocessing`` processes (0 or 1 =
        serial), one whole group per pool job.  Groups on structures the
        service holds always run in-process.  The pool is persistent:
        spawned lazily by the first batch that dispatches (or explicitly
        with :meth:`ensure_workers`), reused by every later batch and torn
        down by :meth:`close`.  Falls back to serial execution if the
        platform cannot spawn workers.
    cache_dir:
        Optional directory for the on-disk result cache (created on
        demand).  Results are pickled per key; corrupt or unreadable
        entries are treated as misses.
    store_dir:
        Optional directory for the persistent *structure* store
        (:class:`repro.engine.store.StructureStore`).  Compiled structures
        are serialized once and warm-started by any later process — cold
        service starts and pool workers skip the ordering/ROBDD/ROMDD
        build entirely.  Corrupt or incompatible entries are rebuilt.
    max_structures:
        How many compiled structures to keep in memory (LRU).
    max_results:
        How many finished results to keep in the in-memory cache (oldest
        evicted first); the on-disk cache, when enabled, is unbounded.
    max_retries:
        How many times one pool job may fail before the parent evaluates
        its group itself.
    shard_timeout:
        Fixed deadline in seconds of one pool job (default
        :attr:`ShardSupervisor.DEFAULT_DEADLINE`); each timeout doubles
        the job's next deadline.
    fault_plan:
        Optional :class:`repro.engine.faults.FaultPlan` scoped to this
        service and its pool workers.
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
        cache_dir: Optional[str] = None,
        store_dir: Optional[str] = None,
        max_structures: int = 8,
        max_results: int = 65536,
        max_retries: int = 2,
        shard_timeout: Optional[float] = None,
        fault_plan=None,
        **analyzer_options,
    ) -> None:
        if max_structures < 1:
            raise ValueError("max_structures must be at least 1")
        if max_results < 1:
            raise ValueError("max_results must be at least 1")
        from ..ordering.strategies import OrderingSpec

        self.ordering = ordering or OrderingSpec("w", "ml")
        self.epsilon = float(epsilon)
        self.workers = int(workers)
        self.cache_dir = cache_dir
        self.store_dir = store_dir
        #: High-water marks for the native backend's process-wide
        #: compile/load/fallback counters, so several services in one
        #: process publish each event into their registry exactly once.
        self._native_state: Dict[str, int] = {}
        #: One metrics registry per service: the service counts and times
        #: its work here under dotted names, worker deltas merge into it,
        #: and ``registry.expose_text()`` serves ``--metrics`` and ``/stats``.
        self.registry = MetricsRegistry()
        if store_dir:
            from .store import StructureStore

            self._store: Optional["StructureStore"] = StructureStore(
                store_dir, registry=self.registry
            )
            # the native backend caches its compiled `.so` next to the
            # structures, so services and pool workers warm-start both
            # from the same directory tree
            _native.set_cache_dir(os.path.join(store_dir, "native"))
        else:
            self._store = None
        self.max_structures = int(max_structures)
        self.max_results = int(max_results)
        self.max_retries = int(max_retries)
        self.shard_timeout = shard_timeout
        # the supervisor validates too, but only when a sweep actually
        # dispatches — reject bad values up front so a CLI typo cannot ride
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
        self._backoff = Backoff(seed=0)
        self.analyzer_options = analyzer_options
        self._structures: "OrderedDict[Tuple, object]" = OrderedDict()
        self._results: "OrderedDict[Tuple, object]" = OrderedDict()
        self._pool = None
        self._pool_broken = False
        #: Pids of the pool's members at spawn.  The pool replaces a member
        #: that dies on its own, so a death between dispatches shows only as
        #: a pid missing from this set (see :meth:`ShardSupervisor.dispatch`).
        self.pool_pids: frozenset = frozenset()
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
        if not points:
            return []
        self.registry.inc("service.points.requested", len(points))
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
        if hits:
            self.registry.inc("service.cache.result_hits", hits)
        if self.cache_dir:
            disk_hits = []
            for idx, rkey in enumerate(keys):
                if results[idx] is _MISS:
                    results[idx] = self._disk_get(rkey)
                    if results[idx] is not _MISS:
                        disk_hits.append((rkey, results[idx]))
            if disk_hits:
                self.registry.inc("service.cache.disk_hits", len(disk_hits))
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
            run = self._run_parallel if self.workers > 1 else self._run_serial
            evaluated = run(groups, points, truncations, counts)
            for idx, result in evaluated:
                results[idx] = result
            self._remember_results([(keys[idx], result) for idx, result in evaluated])
            if self.cache_dir:
                for idx, result in evaluated:
                    self._disk_put(keys[idx], result)
            self.registry.inc("service.points.evaluated", len(evaluated))

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
                    with _counted_pass(
                        self.registry,
                        self._native_state,
                        compiled,
                        "phase.gradient_seconds",
                        "service.passes.gradient",
                        span="service.gradients",
                        models=len(indices),
                    ):
                        gradients = compiled.gradients_many(
                            [points[idx].problem for idx in indices]
                        )
                self.registry.inc("service.points.differentiated", len(indices))
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

        ``last_respawn`` is the epoch time of the most recent pool respawn
        (``None`` if the pool never died).
        """
        with self._lock:
            return {"last_respawn": self._last_respawn}

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
                    import multiprocessing

                    plan = self._fault_plan
                    self._pool = multiprocessing.Pool(
                        processes=self.workers,
                        initializer=faults.install_worker_plan,
                        initargs=(None if plan is None else plan.to_json(),),
                    )
                    self.pool_pids = frozenset(
                        process.pid for process in getattr(self._pool, "_pool", ())
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
                self.registry.inc("service.structures.reused")
                return compiled, True
        compiled, built = _resolve_structure(
            self.registry, self._store, skey, self._analyzer(), problem, truncation
        )
        self._store_structure(skey, compiled)
        if built:
            self._persist_structure(skey, compiled)
        return compiled, not built

    def _persist_structure(self, skey: Tuple, compiled) -> None:
        """Save a freshly built structure to the store (never fails a sweep)."""
        if self._store is None:
            return
        builds_before = compiled.linearize_builds
        try:
            self.registry.inc("store.bytes", self._store.save(skey, compiled))
        except OSError:  # pragma: no cover - persisting is best-effort
            pass
        # saving linearizes on demand; surface that build in the counters
        if compiled.linearize_builds != builds_before:
            self.registry.inc(
                "service.linearize.builds", compiled.linearize_builds - builds_before
            )

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
                with _counted_pass(
                    self.registry,
                    self._native_state,
                    compiled,
                    "phase.evaluate_seconds",
                    "service.passes.batched",
                    span="service.evaluate",
                    models=len(indices),
                ):
                    results = compiled.evaluate_many(
                        [points[idx].problem for idx in indices],
                        counts=[counts[idx] for idx in indices],
                        reused=reused,
                    )
            evaluated.extend(zip(indices, results))
        return evaluated

    def _split_held(self, groups):
        """``(held, unheld)``: the groups whose structure the LRU holds, the rest."""
        with self._lock:
            held = {skey for skey, _ in groups if skey in self._structures}
        return (
            [group for group in groups if group[0] in held],
            [group for group in groups if group[0] not in held],
        )

    def _run_parallel(self, groups, points, truncations, counts):
        # a held structure needs one in-process pass, cheaper than any
        # dispatch; it runs here, so it never queues for the lock below
        held, unheld = self._split_held(groups)
        self.registry.inc("dispatch.groups_in_process", len(held))
        evaluated = self._run_serial(held, points, truncations, counts)
        if unheld:
            # one supervised dispatch at a time: the supervisor respawns the
            # shared pool on faults, which two concurrent dispatch loops
            # would race; concurrent batches queue here while in-process
            # batches (held keys) keep running in parallel
            with self._dispatch_lock:
                evaluated += self._run_pool(unheld, points, truncations, counts)
        return evaluated

    def _run_pool(self, groups, points, truncations, counts):
        """Send each group whole to the pool; evaluate what it cannot finish.

        A worker resolves its group's structure (its LRU → the store → a
        build) and hands it back, so the parent's LRU serves later batches
        on it in-process.  Groups whose structure another batch resolved
        while this one waited for the dispatch lock run in-process too.
        """
        local, dispatched = self._split_held(groups)
        if len(dispatched) <= 1 or self.ensure_workers() is None:
            # at most one build pending: a pool cannot help
            return self._run_serial(groups, points, truncations, counts)
        store_root = self.store_dir if self._store is not None else None
        trace = obs_trace.active() is not None
        try:
            jobs = []
            for skey, indices in dispatched:
                payload = GroupPayload(
                    skey,
                    self.ordering.key(),
                    self.epsilon,
                    self.analyzer_options,
                    truncations[indices[0]],
                    list(indices),
                    [points[idx].problem for idx in indices],
                    store_root,
                    trace,
                )
                # the parent pickles the payloads itself (the pool then
                # moves opaque bytes), so the exact payload size lands in
                # dispatch.payload_bytes
                blob = pickle.dumps(payload, protocol=_PICKLE_PROTOCOL)
                jobs.append(ShardJob(payload, blob))
            self.registry.inc(
                "dispatch.payload_bytes", sum(len(job.blob) for job in jobs)
            )
            started = time.perf_counter()
            supervisor = ShardSupervisor(
                self,
                max_retries=self.max_retries,
                shard_timeout=self.shard_timeout,
                backoff=self._backoff,
            )
            with obs_trace.span("service.dispatch", shards=len(jobs)):
                successes, quarantined = supervisor.dispatch(jobs, _evaluate_shard)
            evaluated = []
            worker_build_seconds = 0.0
            tracer = obs_trace.active()
            for job, (compiled, results, shard_stats) in successes:
                payload = job.payload
                # every worker counter arrives as one registry snapshot;
                # merging it is the whole aggregation
                self.registry.merge_snapshot(shard_stats["metrics"])
                if tracer is not None:
                    tracer.adopt(shard_stats.get("spans"))
                if compiled is not None:
                    self._store_structure(payload.skey, compiled)
                if shard_stats["built"]:
                    worker_build_seconds += shard_stats["build_seconds"]
                    if self._store is not None and not self._store.contains(
                        payload.skey
                    ):
                        self._persist_structure(payload.skey, compiled)
                evaluated.extend(zip(payload.indices, results))
            # quarantined jobs exhausted their retries (or the pool is
            # gone): the parent evaluates their groups itself
            evaluated += self._run_serial(
                [(job.payload.skey, job.payload.indices) for job in quarantined],
                points,
                truncations,
                counts,
            )
            # the pool wall clock minus the build time workers reported is
            # the evaluation (plus transfer) share
            evaluate_seconds = time.perf_counter() - started - worker_build_seconds
            if evaluate_seconds > 0.0:
                self.registry.observe("phase.evaluate_seconds", evaluate_seconds)
            self.registry.inc("service.batches.parallel")
        except Exception:
            # pickling or pool trouble: drop the (possibly wedged) pool and
            # fall back to in-process work; the next batch may retry with a
            # fresh pool — one bad payload must not disable parallelism for
            # the service's lifetime
            self.close()
            evaluated = self._run_serial(dispatched, points, truncations, counts)
        return evaluated + self._run_serial(local, points, truncations, counts)

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


class GroupPayload(NamedTuple):
    """One pool job: a whole structure group, as its worker needs it."""

    skey: Tuple
    ordering_key: Tuple
    epsilon: float
    analyzer_options: Dict
    truncation: int
    indices: List[int]
    problems: List
    store_root: Optional[str]
    trace: bool


#: Per-worker-process structure cache: a job whose structure this worker
#: resolved before skips the store and the build.  A true LRU (hits refresh
#: recency) with a small bound, so a persistent pool serving many structure
#: keys cannot grow it without limit.
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
#: each job's registry snapshot carries only the deltas since the
#: previous job in this process, so merging every snapshot into the
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


def _evaluate_shard(blob, deadline=None):
    """Worker entry point: resolve one structure group and evaluate it.

    ``blob`` is a parent-pickled :class:`GroupPayload` (the parent
    accounts the exact dispatch size that way).  The worker resolves the
    group's structure in warmth order — the per-process LRU, the
    persistent store (memory-mapped), a fresh build — and evaluates all
    of the group's defect models in one batched pass.  Returns
    ``(structure, results, stats)``: the structure when this job loaded
    or built it (``None`` on an LRU hit), so the parent's LRU serves later
    batches without re-resolving it; the results in the payload's
    order; and the job's ``built`` flag, build seconds, metrics snapshot
    and, when traced, its spans.

    ``deadline`` (epoch seconds, from the supervisor) arms the job-level
    deadline hook in the batch kernel: a worker stuck in a long pass
    raises ``DeadlineExceeded`` itself instead of forcing the parent to
    kill the pool.  The injection sites here model the fault classes the
    supervision layer must absorb (see :mod:`repro.engine.faults`).
    """
    faults.fire("shard.unpickle")
    payload = pickle.loads(blob)
    faults.fire("worker.kill")
    faults.fire("worker.hang")
    # the parent asked for spans: run a fresh tracer for this job and ship
    # its finished spans home with the job stats.  Always a fresh one — a
    # forked worker inherits the parent's (useless) active tracer
    tracer = obs_trace.start() if payload.trace else None
    try:
        with shard_deadline(deadline):
            compiled, results, shard_stats = _evaluate_group(payload)
    finally:
        if tracer is not None:
            obs_trace.stop()
    if tracer is not None:
        shard_stats["spans"] = tracer.spans()
    return compiled, results, shard_stats


def _evaluate_group(payload: GroupPayload):
    from ..core.method import YieldAnalyzer
    from ..ordering.strategies import OrderingSpec
    from .store import StructureStore

    skey, problems = payload.skey, payload.problems
    _worker_native_setup(payload.store_root)
    registry = MetricsRegistry()
    built = False
    with obs_trace.span("worker.shard", models=len(problems)):
        compiled = _worker_structure_get(skey)
        resolved = compiled is None
        if resolved:
            store = (
                None
                if payload.store_root is None
                else StructureStore(payload.store_root, registry=registry)
            )
            analyzer = YieldAnalyzer(
                OrderingSpec.from_key(payload.ordering_key),
                epsilon=payload.epsilon,
                **payload.analyzer_options,
            )
            compiled, built = _resolve_structure(
                registry, store, skey, analyzer, problems[0], payload.truncation
            )
            _worker_structure_put(skey, compiled)
        # a job holds only problems: their count vectors are computed here,
        # by the helper the parent's result keys use
        with _counted_pass(
            registry,
            _WORKER_NATIVE_STATE,
            compiled,
            "phase.worker_evaluate_seconds",
            "service.passes.batched",
        ):
            results = compiled.evaluate_many(problems, reused=not built)
    shard_stats = {
        "built": built,
        "build_seconds": sum(compiled.build_timings) if built else 0.0,
        "metrics": registry.snapshot(),
    }
    return (compiled if resolved else None), results, shard_stats
