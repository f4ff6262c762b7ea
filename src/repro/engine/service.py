"""Batch yield evaluation with structure reuse — the engine's front door.

The expensive part of the paper's method (generalized fault tree, variable
ordering, coded ROBDD, ROMDD conversion) depends only on the fault-tree
*structure*, the truncation level ``M`` and the ordering strategy.  The
defect densities, clustering and lethality only enter the final — and
cheap — probability traversal.  A sweep over defect densities therefore
needs **one** diagram build, not one per point.

:class:`SweepService` exploits that with one request shape: K problems and
their truncation levels, evaluated as columns.

* :meth:`SweepService.group` groups a request once per distinct (fault
  tree, component model, ``M``) — the ordering is the service's — with one
  :func:`structure_key` call and one ``P'_i`` digest per group; each point
  computes only its lethal count vector and its result-cache key
  (:class:`PointGroup`);
* one :class:`repro.core.method.CompiledYield` is built per structure
  (LRU-kept across batches) and :meth:`SweepService.evaluate_groups` runs
  **one batched bottom-up pass per group** over all of its defect models
  (:meth:`~repro.core.method.CompiledYield.probabilities`), returning a
  probability column (:class:`GroupColumns`);
* sweeps, the HTTP server and the importance measures read those columns;
  :meth:`SweepService.evaluate_batch` alone packages
  :class:`~repro.core.results.YieldResult` records from them;
* the in-memory result LRU holds each point's ``P(G = 1)`` plus a reference
  to its structure's one :class:`~repro.core.method.StructureRecord`, so
  repeated points are free;
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

#: Cache-miss sentinel: a cached probability may be exactly ``0.0``, so
#: lookups compare against this marker instead of testing truthiness.
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
    """One row of :meth:`SweepService.evaluate_batch`: a problem plus its
    truncation policy.

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
    ``P'_i``, so those capture every defect-model input.  The key is the
    point's :func:`structure_key` followed by its lethal count vector
    (:meth:`~repro.core.problem.YieldProblem.lethal_counts`, the one pmf
    evaluation of the point) and the ``P'_i`` digest.
    :meth:`SweepService.group` makes the same keys a group at a time,
    through :func:`_point_key`, with the structure key and the digest
    computed once per group.
    """
    return _point_key(
        structure_key(problem, truncation, ordering),
        problem.lethal_counts(truncation),
        _float_digest(problem.components.lethal_probabilities()),
    )


def _point_key(skey: Tuple, counts: Tuple, hits: str) -> Tuple:
    """The result-key layout shared by :func:`result_key` and the groups."""
    return skey + (counts, hits)


class PointGroup(NamedTuple):
    """The points of one request that share one structure: one kernel pass.

    Made by :meth:`SweepService.group`.  ``indices`` are the points'
    request positions, in request order; ``problems``, ``counts`` (lethal
    count vectors ``(Q'_0 .. Q'_M, tail)``) and ``keys`` (result-cache
    keys) run parallel to them.  An unkeyed group (gradients) leaves
    ``counts`` and ``keys`` empty.
    """

    skey: Tuple
    truncation: int
    indices: List[int]
    problems: List
    counts: List[Tuple[float, ...]]
    keys: List[Tuple]


class GroupColumns(NamedTuple):
    """One group's outcome as columns, in the group's point order.

    ``failed`` holds each point's ``P(G = 1)`` and ``records`` the
    :class:`~repro.core.method.StructureRecord` of the structure that
    computed it.  ``evaluated`` lists the positions this call's pass
    computed (the rest were result-cache hits); ``reused`` says whether
    that pass ran on a structure this call did not build, and
    ``per_point`` is its seconds per evaluated point.
    """

    group: PointGroup
    failed: List[float]
    records: List
    evaluated: List[int]
    reused: bool
    per_point: float

    def results(self) -> List[object]:
        """Package the group's :class:`~repro.core.results.YieldResult` records.

        The points this call evaluated are packaged as their pass:
        ``batched_models`` is the pass's K and, on a fresh build, the first
        carries the build timings.  A cache hit ran no pass: it is packaged
        as a structure reuse with zero timings and ``batched_models = 0``,
        under the name of the problem that asked for it.
        """
        group, failed, records = self.group, self.failed, self.records
        results: List[object] = [None] * len(failed)
        if self.evaluated:
            packaged = records[self.evaluated[0]].package(
                [group.problems[i] for i in self.evaluated],
                [group.counts[i][-1] for i in self.evaluated],
                [failed[i] for i in self.evaluated],
                reused=self.reused,
                per_point=self.per_point,
            )
            for position, result in zip(self.evaluated, packaged):
                results[position] = result
        for position, result in enumerate(results):
            if result is None:
                (results[position],) = records[position].package(
                    [group.problems[position]],
                    [group.counts[position][-1]],
                    [failed[position]],
                    reused=True,
                    models=0,
                )
        return results


class SweepColumns(NamedTuple):
    """A request's outcome as columns, in request order (:meth:`SweepService.sweep`)."""

    failed: List[float]
    error_bounds: List[float]
    truncations: List[int]

    @property
    def yields(self) -> List[float]:
        """The estimates ``Y_M = 1 - P(G = 1)``."""
        return [1.0 - failed for failed in self.failed]


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
    store_dir:
        Optional directory for the persistent *structure* store
        (:class:`repro.engine.store.StructureStore`).  Compiled structures
        are serialized once and warm-started by any later process — cold
        service starts and pool workers skip the ordering/ROBDD/ROMDD
        build entirely.  Corrupt or incompatible entries are rebuilt.
    max_structures:
        How many compiled structures to keep in memory (LRU).
    max_results:
        How many evaluated points to keep in the in-memory result cache
        (oldest evicted first).
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
        #: Result LRU: result key -> ``(P(G = 1), StructureRecord)``.
        self._results: "OrderedDict[Tuple, Tuple[float, object]]" = OrderedDict()
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
        """Evaluate every point and return its ``YieldResult``, in request order.

        The one entry point that packages results: it evaluates the same
        columns as :meth:`sweep` and packages them
        (:meth:`GroupColumns.results`).
        """
        problems, truncations = self._rows(points)
        results: List[object] = [None] * len(problems)
        for columns in self.evaluate_groups(self.group(problems, truncations)):
            for idx, result in zip(columns.group.indices, columns.results()):
                results[idx] = result
        return results

    def sweep(self, problems: Sequence[object], truncations: Sequence[int]) -> SweepColumns:
        """Evaluate ``problems`` at their truncation levels, as columns.

        ``truncations`` holds each problem's ``M`` (see :meth:`resolve`).
        Returns ``P(G = 1)``, the error bound and ``M`` of every point, in
        request order; no per-point result object is made.
        """
        problems = list(problems)
        failed = [0.0] * len(problems)
        bounds = [0.0] * len(problems)
        levels = [0] * len(problems)
        for columns in self.evaluate_groups(self.group(problems, truncations)):
            group = columns.group
            for idx, probability, counts in zip(group.indices, columns.failed, group.counts):
                failed[idx] = probability
                bounds[idx] = counts[-1]
                levels[idx] = group.truncation
        return SweepColumns(failed, bounds, levels)

    def resolve(
        self,
        problems: Sequence[object],
        *,
        max_defects: Optional[int] = None,
        epsilon: Optional[float] = None,
    ) -> List[int]:
        """The truncation level ``M`` of every problem.

        ``max_defects`` pins it; otherwise it is chosen from ``epsilon``
        (default: the service's) via each problem's lethal defect
        distribution, as :meth:`repro.core.method.YieldAnalyzer.evaluate`
        does.
        """
        return [self._truncation(problem, max_defects, epsilon) for problem in problems]

    def group(
        self,
        problems: Sequence[object],
        truncations: Sequence[int],
        *,
        keyed: bool = True,
    ) -> List[PointGroup]:
        """Group a request's points by structure, in request order.

        Points are grouped once per distinct (fault tree, component model,
        ``M``) — the ordering is the service's — with one
        :func:`structure_key` call and one ``P'_i`` digest per group;
        groups whose structure keys agree merge.  A keyed group (the
        default) also holds each point's lethal count vector, its one pmf
        evaluation, and its result-cache key, as :func:`result_key` makes
        it.  Gradients need neither: ``keyed=False`` skips both.
        """
        identities: Dict[Tuple, Tuple[PointGroup, Optional[str]]] = {}
        groups: Dict[Tuple, PointGroup] = {}
        for idx, (problem, truncation) in enumerate(zip(problems, truncations)):
            identity = (id(problem.fault_tree), id(problem.components), truncation)
            known = identities.get(identity)
            if known is None:
                skey = structure_key(problem, truncation, self.ordering)
                group = groups.get(skey)
                if group is None:
                    group = groups[skey] = PointGroup(skey, int(truncation), [], [], [], [])
                hits = (
                    _float_digest(problem.components.lethal_probabilities())
                    if keyed
                    else None
                )
                known = identities[identity] = (group, hits)
            group, hits = known
            group.indices.append(idx)
            group.problems.append(problem)
            if keyed:
                counts = problem.lethal_counts(group.truncation)
                group.counts.append(counts)
                group.keys.append(_point_key(group.skey, counts, hits))
        return list(groups.values())

    def evaluate_groups(self, groups: Sequence[PointGroup]) -> List[GroupColumns]:
        """Evaluate keyed groups: one probability column per group, in order.

        Points the result cache holds are served from it; every group's
        other points run in **one** kernel pass on its structure (resolved
        memory LRU → store → build), in-process or, on a pooled service,
        on the pool for groups whose structure the service does not hold.
        The new points are cached as ``(P(G = 1), StructureRecord)``.
        """
        with self._fault_scope():
            return self._evaluate_groups(list(groups))

    def _evaluate_groups(self, groups: List[PointGroup]) -> List[GroupColumns]:
        requested = sum(len(group.keys) for group in groups)
        if requested:
            self.registry.inc("service.points.requested", requested)
        columns = [
            GroupColumns(group, [0.0] * len(group.keys), [None] * len(group.keys), [], True, 0.0)
            for group in groups
        ]
        misses: List[Tuple[int, PointGroup, List[int]]] = []
        hits = 0
        with self._lock:
            for number, (group, failed, records, *_) in enumerate(columns):
                missed = []
                for position, rkey in enumerate(group.keys):
                    cached = self._results.get(rkey, _MISS)
                    if cached is _MISS:
                        missed.append(position)
                    else:
                        self._results.move_to_end(rkey)
                        failed[position], records[position] = cached
                        hits += 1
                if missed:
                    misses.append((number, group, missed))
        if hits:
            self.registry.inc("service.cache.result_hits", hits)
        if misses:
            passes = (self._run_parallel if self.workers > 1 else self._run_serial)(misses)
            evaluated = []
            for number, group, positions in misses:
                record, column, reused, per_point = passes[number]
                _, failed, records, *_ = columns[number]
                for position, probability in zip(positions, column):
                    failed[position], records[position] = probability, record
                    evaluated.append((group.keys[position], (probability, record)))
                columns[number] = columns[number]._replace(
                    evaluated=positions, reused=reused, per_point=per_point
                )
            self._remember_results(evaluated)
            self.registry.inc("service.points.evaluated", len(evaluated))
        return columns

    def gradients(self, problem, *, max_defects=None, epsilon=None):
        """Analytic yield gradients of a single point (see :meth:`gradient_batch`)."""
        return self.gradient_batch(
            [SweepPoint(problem, max_defects=max_defects, epsilon=epsilon)]
        )[0]

    def gradient_batch(self, points: Sequence[SweepPoint]) -> List[object]:
        """Differentiate every point analytically, in request order.

        Points are grouped by structure exactly like :meth:`evaluate_batch`,
        but unkeyed: gradient results are not cached, since a pass costs
        about two traversals, less than the digesting a result cache would
        need.  See :meth:`gradient_groups`.  Returns one
        :class:`repro.core.results.YieldGradients` per point — exact
        ``dY_M/dP_i`` for every component, with no perturbed re-evaluations.
        """
        problems, truncations = self._rows(points)
        groups = self.group(problems, truncations, keyed=False)
        results: List[object] = [None] * len(problems)
        for group, gradients in zip(groups, self.gradient_groups(groups)):
            for idx, gradient in zip(group.indices, gradients):
                results[idx] = gradient
        return results

    def gradient_groups(self, groups: Sequence[PointGroup]) -> List[List[object]]:
        """Differentiate every group's points: one list per group, in order.

        Each group reuses (or builds once) its compiled structure and runs
        **one** forward-plus-reverse linearized pass over all of its
        defect models (:meth:`repro.core.method.CompiledYield.gradients_many`).
        """
        out = []
        with self._fault_scope():
            for group in groups:
                with self._locked_key(group.skey):
                    compiled, _ = self._structure_for(
                        group.skey, group.problems[0], group.truncation
                    )
                    with _counted_pass(
                        self.registry,
                        self._native_state,
                        compiled,
                        "phase.gradient_seconds",
                        "service.passes.gradient",
                        span="service.gradients",
                        models=len(group.problems),
                    ):
                        gradients = compiled.gradients_many(group.problems)
                self.registry.inc("service.points.differentiated", len(group.problems))
                out.append(gradients)
        return out

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
        shares one diagram build and one kernel pass (:meth:`sweep`).

        The sweep is cheapest when the factory reuses one frozen fault
        tree and one component model, as the :mod:`repro.soc` generators
        do: the points then form one group per ``M``, keyed once.  A
        factory that builds a fresh circuit per call gives the same
        results but hashes each circuit.
        """
        means = list(mean_defect_values)
        problems = [problem_factory(mean) for mean in means]
        columns = self.sweep(
            problems, self.resolve(problems, max_defects=max_defects, epsilon=epsilon)
        )
        return [
            (float(mean), 1.0 - failed, truncation)
            for mean, failed, truncation in zip(means, columns.failed, columns.truncations)
        ]

    def truncation_sweep(
        self,
        problem,
        max_defects_values: Sequence[int],
    ) -> List[Tuple[int, float, float]]:
        """Return ``(M, yield_estimate, error_bound)`` for every requested ``M``."""
        levels = [int(m) for m in max_defects_values]
        columns = self.sweep([problem] * len(levels), levels)
        return [
            (m, 1.0 - failed, bound)
            for m, failed, bound in zip(levels, columns.failed, columns.error_bounds)
        ]

    def clear(self) -> None:
        """Drop the in-memory structure and result caches."""
        with self._lock:
            self._structures.clear()
            self._results.clear()

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

    def _rows(self, points: Sequence[SweepPoint]) -> Tuple[List, List[int]]:
        """``(problems, truncations)`` of :class:`SweepPoint` rows."""
        points = list(points)
        return [point.problem for point in points], [
            self._truncation(point.problem, point.max_defects, point.epsilon)
            for point in points
        ]

    def _truncation(self, problem, max_defects, epsilon) -> int:
        if max_defects is not None:
            return int(max_defects)
        budget = self.epsilon if epsilon is None else float(epsilon)
        return problem.lethal_defect_distribution().truncation_level(budget)

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
        """Put ``(result key, (P(G = 1), record))`` pairs in the LRU, one lock."""
        if not items:
            return
        with self._lock:
            for rkey, result in items:
                self._results[rkey] = result
                self._results.move_to_end(rkey)
            while len(self._results) > self.max_results:
                self._results.popitem(last=False)

    def _run_serial(self, misses) -> Dict[int, Tuple]:
        """One in-process pass per ``(number, group, missed positions)``.

        Returns ``number -> (record, P(G = 1) column, reused, seconds per
        point)``, as :meth:`_run_pool` does.
        """
        passes = {}
        for number, group, positions in misses:
            if len(positions) == len(group.problems):
                problems, counts = group.problems, group.counts
            else:
                problems = [group.problems[i] for i in positions]
                counts = [group.counts[i] for i in positions]
            with self._locked_key(group.skey):
                compiled, reused = self._structure_for(
                    group.skey, problems[0], group.truncation
                )
                started = time.perf_counter()
                with _counted_pass(
                    self.registry,
                    self._native_state,
                    compiled,
                    "phase.evaluate_seconds",
                    "service.passes.batched",
                    span="service.evaluate",
                    models=len(problems),
                ):
                    failed = compiled.probabilities(problems, counts)
                per_point = (time.perf_counter() - started) / len(problems)
            passes[number] = (compiled.record, failed, reused, per_point)
        return passes

    def _split_held(self, misses):
        """``(held, unheld)``: the groups whose structure the LRU holds, the rest."""
        with self._lock:
            held = {group.skey for _, group, _ in misses if group.skey in self._structures}
        return (
            [miss for miss in misses if miss[1].skey in held],
            [miss for miss in misses if miss[1].skey not in held],
        )

    def _run_parallel(self, misses) -> Dict[int, Tuple]:
        # a held structure needs one in-process pass, cheaper than any
        # dispatch; it runs here, so it never queues for the lock below
        held, unheld = self._split_held(misses)
        self.registry.inc("dispatch.groups_in_process", len(held))
        passes = self._run_serial(held)
        if unheld:
            # one supervised dispatch at a time: the supervisor respawns the
            # shared pool on faults, which two concurrent dispatch loops
            # would race; concurrent batches queue here while in-process
            # batches (held keys) keep running in parallel
            with self._dispatch_lock:
                passes.update(self._run_pool(unheld))
        return passes

    def _run_pool(self, misses) -> Dict[int, Tuple]:
        """Send each group whole to the pool; evaluate what it cannot finish.

        A worker resolves its group's structure (its LRU → the store → a
        build) and hands it back, so the parent's LRU serves later batches
        on it in-process.  Groups whose structure another batch resolved
        while this one waited for the dispatch lock run in-process too.
        """
        local, dispatched = self._split_held(misses)
        if len(dispatched) <= 1 or self.ensure_workers() is None:
            # at most one build pending: a pool cannot help
            return self._run_serial(misses)
        store_root = self.store_dir if self._store is not None else None
        trace = obs_trace.active() is not None
        try:
            jobs = []
            for number, group, positions in dispatched:
                payload = GroupPayload(
                    group.skey,
                    self.ordering.key(),
                    self.epsilon,
                    self.analyzer_options,
                    group.truncation,
                    number,
                    [group.problems[i] for i in positions],
                    [group.counts[i] for i in positions],
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
            passes = {}
            worker_build_seconds = 0.0
            tracer = obs_trace.active()
            for job, (compiled, record, failed, shard_stats) in successes:
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
                passes[payload.number] = (
                    record, failed, not shard_stats["built"], shard_stats["per_point"]
                )
            # quarantined jobs exhausted their retries (or the pool is
            # gone): the parent evaluates their groups itself
            numbers = {job.payload.number for job in quarantined}
            passes.update(
                self._run_serial([miss for miss in dispatched if miss[0] in numbers])
            )
            # the pool wall clock minus the build time workers reported is
            # the evaluation (plus transfer) share, one sample per batch;
            # builds on different workers overlap, so their sum can pass
            # the wall clock
            evaluate_seconds = time.perf_counter() - started - worker_build_seconds
            self.registry.observe("phase.evaluate_seconds", max(0.0, evaluate_seconds))
            self.registry.inc("service.batches.parallel")
        except Exception:
            # pickling or pool trouble: drop the (possibly wedged) pool and
            # fall back to in-process work; the next batch may retry with a
            # fresh pool — one bad payload must not disable parallelism for
            # the service's lifetime
            self.close()
            passes = self._run_serial(dispatched)
        passes.update(self._run_serial(local))
        return passes


class GroupPayload(NamedTuple):
    """One pool job: a whole structure group's misses, as its worker needs them."""

    skey: Tuple
    ordering_key: Tuple
    epsilon: float
    analyzer_options: Dict
    truncation: int
    number: int
    problems: List
    counts: List[Tuple[float, ...]]
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
    ``(structure, record, failed, stats)``: the structure when this job
    loaded or built it (``None`` on an LRU hit), so the parent's LRU serves
    later batches without re-resolving it; the structure's
    :class:`~repro.core.method.StructureRecord`; the ``P(G = 1)`` column in
    the payload's order; and the job's ``built`` flag, build seconds, pass
    seconds per point, metrics snapshot and, when traced, its spans.

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
            compiled, record, failed, shard_stats = _evaluate_group(payload)
    finally:
        if tracer is not None:
            obs_trace.stop()
    if tracer is not None:
        shard_stats["spans"] = tracer.spans()
    return compiled, record, failed, shard_stats


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
        started = time.perf_counter()
        with _counted_pass(
            registry,
            _WORKER_NATIVE_STATE,
            compiled,
            "phase.worker_evaluate_seconds",
            "service.passes.batched",
        ):
            failed = compiled.probabilities(problems, payload.counts)
        per_point = (time.perf_counter() - started) / len(problems)
    shard_stats = {
        "built": built,
        "build_seconds": sum(compiled.build_timings) if built else 0.0,
        "per_point": per_point,
        "metrics": registry.snapshot(),
    }
    return (compiled if resolved else None), compiled.record, failed, shard_stats
