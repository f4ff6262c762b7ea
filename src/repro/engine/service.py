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
  :func:`structure_key` call per group (:class:`PointGroup`);
* one :class:`repro.core.method.CompiledYield` is built per structure
  (LRU-kept across batches) and :meth:`SweepService.evaluate_groups` runs
  **one batched bottom-up pass per group** over all of its defect models
  (:meth:`~repro.core.method.CompiledYield.probabilities`), making each
  point's lethal count vector just before the pass and returning a
  probability column (:class:`GroupColumns`);
* sweeps, the HTTP server and the importance measures read those columns;
  :meth:`SweepService.evaluate_batch` alone packages
  :class:`~repro.core.results.YieldResult` records from them.  No point's
  outcome is kept: a repeated point runs its (cheap) pass again;
* a service with ``workers > 1`` runs every group in-process too; when a
  batch has two or more groups whose structure it does not hold, it first
  resolves those structures (the store, else a build) on ``workers``
  threads — the native library releases the GIL for a whole build — so
  the builds of one batch overlap;
* with ``store_dir`` set, compiled structures also survive process
  restarts: :mod:`repro.engine.store` persists the fused linearized
  arrays and the level profile in a versioned on-disk format that loaders
  memory-map (``mmap_mode="r"`` — no copies, page cache shared between
  processes), and the service resolves structures memory-LRU → disk
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
import logging
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import native as _native
from ..obs import trace as obs_trace
from ..obs.metrics import MetricsRegistry

_log = logging.getLogger("repro.engine.service")


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
    (:meth:`~repro.core.problem.YieldProblem.lethal_counts`) and the
    ``P'_i`` digest.

    The service keeps no per-point results and never calls this.  It
    stays, with this layout, because ``perfbench/layers.py`` wraps it by
    name in a traced run (``perfbench/run.py --trace 1``), which fails on
    a missing target (``tests/ci/test_perfbench_targets.py``); it goes
    when perfbench stops naming it.
    """
    return structure_key(problem, truncation, ordering) + (
        problem.lethal_counts(truncation),
        _float_digest(problem.components.lethal_probabilities()),
    )


class PointGroup(NamedTuple):
    """The points of one request that share one structure: one kernel pass.

    Made by :meth:`SweepService.group`.  ``indices`` are the points'
    request positions, in request order; ``problems`` runs parallel to
    them.
    """

    skey: Tuple
    truncation: int
    indices: List[int]
    problems: List


class GroupColumns(NamedTuple):
    """One group's outcome as columns, in the group's point order.

    ``counts`` holds each point's lethal count vector ``(Q'_0 .. Q'_M,
    tail)``, whose tail is its error bound, and ``failed`` its
    ``P(G = 1)``; ``record`` is the
    :class:`~repro.core.method.StructureRecord` of the structure the pass
    ran on.  ``reused`` says whether that structure was one this call did
    not build, and ``per_point`` is the pass's seconds per point.
    """

    group: PointGroup
    counts: List[Tuple[float, ...]]
    failed: List[float]
    record: object
    reused: bool
    per_point: float

    def results(self) -> List[object]:
        """Package the group's :class:`~repro.core.results.YieldResult` records.

        ``batched_models`` is the pass's K and, on a fresh build, the first
        result carries the build timings.
        """
        return self.record.package(
            self.group.problems,
            [counts[-1] for counts in self.counts],
            self.failed,
            reused=self.reused,
            per_point=self.per_point,
        )


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
    """Evaluates batches of yield points with diagram reuse.

    Parameters
    ----------
    ordering:
        Ordering strategy shared by every point (default: the paper's best
        pair, ``OrderingSpec("w", "ml")``).
    epsilon:
        Default error budget for points that pin neither ``max_defects``
        nor their own ``epsilon``.
    workers:
        Resolve the structures of a batch that the service does not hold on
        this many threads (0 or 1 = one at a time), when a batch has two
        or more such groups.  The threads live for that one batch; every
        kernel pass runs on the calling thread.
    store_dir:
        Optional directory for the persistent *structure* store
        (:class:`repro.engine.store.StructureStore`).  Compiled structures
        are serialized once and warm-started by any later process — cold
        service starts skip the ordering/ROBDD/ROMDD build entirely.
        Corrupt or incompatible entries are rebuilt.
    max_structures:
        How many compiled structures to keep in memory (LRU).
    analyzer_options:
        Extra keyword arguments for the underlying
        :class:`repro.core.method.YieldAnalyzer` (e.g. ``node_limit``); an
        unknown one raises ``TypeError`` here.
    """

    def __init__(
        self,
        *,
        ordering=None,
        epsilon: float = 1e-4,
        workers: int = 0,
        store_dir: Optional[str] = None,
        max_structures: int = 8,
        **analyzer_options,
    ) -> None:
        if max_structures < 1:
            raise ValueError("max_structures must be at least 1")
        from ..core.method import YieldAnalyzer
        from ..ordering.strategies import OrderingSpec

        self.ordering = ordering or OrderingSpec("w", "ml")
        self.epsilon = float(epsilon)
        self._analyzer = YieldAnalyzer(
            self.ordering, epsilon=self.epsilon, **analyzer_options
        )
        self.workers = int(workers)
        #: High-water marks for the native backend's process-wide
        #: compile/load/fallback counters, so several services in one
        #: process publish each event into their registry exactly once.
        self._native_state: Dict[str, int] = {}
        #: One metrics registry per service: the service counts and times
        #: its work here under dotted names, and ``registry.expose_text()``
        #: serves ``--metrics`` and ``/stats``.
        self.registry = MetricsRegistry()
        if store_dir:
            from .store import StructureStore

            self._store: Optional["StructureStore"] = StructureStore(
                store_dir, registry=self.registry
            )
            # the native backend caches its compiled `.so` next to the
            # structures, so a later process warm-starts both from the
            # same directory tree
            _native.set_cache_dir(os.path.join(store_dir, "native"))
        else:
            self._store = None
        self.max_structures = int(max_structures)
        self._structures: "OrderedDict[Tuple, object]" = OrderedDict()
        #: Reentrant guard over every piece of shared mutable state: the
        #: structure LRU and the per-key lock table.  Held only for
        #: dict-sized critical sections — builds, store IO and kernel
        #: passes run outside it.
        self._lock = threading.RLock()
        #: Per-structure-key build/evaluate locks: concurrent callers of
        #: the same key coalesce on one build (and serialize their passes
        #: over the shared compiled structure, whose linearization caches
        #: are not reentrant); different keys proceed in parallel.
        self._key_locks: Dict[Tuple, list] = {}

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
            for idx, probability, counts in zip(group.indices, columns.failed, columns.counts):
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
        self, problems: Sequence[object], truncations: Sequence[int]
    ) -> List[PointGroup]:
        """Group a request's points by structure, in request order.

        Points are grouped once per distinct (fault tree, component model,
        ``M``) — the ordering is the service's — with one
        :func:`structure_key` call per group; groups whose structure keys
        agree merge.
        """
        identities: Dict[Tuple, PointGroup] = {}
        groups: Dict[Tuple, PointGroup] = {}
        for idx, (problem, truncation) in enumerate(zip(problems, truncations)):
            identity = (id(problem.fault_tree), id(problem.components), truncation)
            group = identities.get(identity)
            if group is None:
                skey = structure_key(problem, truncation, self.ordering)
                group = groups.get(skey)
                if group is None:
                    group = groups[skey] = PointGroup(skey, int(truncation), [], [])
                identities[identity] = group
            group.indices.append(idx)
            group.problems.append(problem)
        return list(groups.values())

    def evaluate_groups(self, groups: Sequence[PointGroup]) -> List[GroupColumns]:
        """Evaluate groups: one probability column per group, in order.

        Every group runs **one** in-process kernel pass over all of its
        points on its structure (resolved memory LRU → store → build; with
        ``workers > 1`` the unheld structures of the batch resolve on
        threads first).  Each point's lethal count vector, its one pmf
        evaluation, is made just before its group's pass.
        """
        points = sum(len(group.problems) for group in groups)
        if not points:
            return []
        self.registry.inc("service.points.requested", points)
        columns = (self._run_parallel if self.workers > 1 else self._run_serial)(groups)
        self.registry.inc("service.points.evaluated", points)
        return columns

    def gradients(self, problem, *, max_defects=None, epsilon=None):
        """Analytic yield gradients of a single point (see :meth:`gradient_batch`)."""
        return self.gradient_batch(
            [SweepPoint(problem, max_defects=max_defects, epsilon=epsilon)]
        )[0]

    def gradient_batch(self, points: Sequence[SweepPoint]) -> List[object]:
        """Differentiate every point analytically, in request order.

        Points are grouped by structure exactly like :meth:`evaluate_batch`
        (see :meth:`gradient_groups`).  Returns one
        :class:`repro.core.results.YieldGradients` per point — exact
        ``dY_M/dP_i`` for every component, with no perturbed re-evaluations.
        """
        problems, truncations = self._rows(points)
        groups = self.group(problems, truncations)
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
        for group in groups:
            with self._locked_key(group.skey):
                compiled, _ = self._structure_for(
                    group.skey, group.problems[0], group.truncation
                )
                with self._counted_pass(
                    compiled,
                    "phase.gradient_seconds",
                    "service.passes.gradient",
                    "service.gradients",
                    len(group.problems),
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
        """Drop the in-memory structure LRU."""
        with self._lock:
            self._structures.clear()

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
        with self._locked_key(skey):
            self._structure_for(skey, problem, int(truncation))
        return skey

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

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

        Returns ``(structure, reused)``; ``reused`` is false only for a
        build.  Callers that may run concurrently hold the key lock
        (:meth:`_locked_key`) around this, so at most one build per key is
        in flight; the LRU bookkeeping itself is guarded by the service
        lock.  A build counts ``service.structures.built`` and observes
        ``phase.build_seconds``, and adds the computed-table totals it
        snapshotted to ``kernel.cache.<manager>.<event>``.
        """
        registry = self.registry
        with self._lock:
            compiled = self._structures.get(skey)
            if compiled is not None:
                self._structures.move_to_end(skey)
                registry.inc("service.structures.reused")
                return compiled, True
        loaded = None if self._store is None else self._store.load(skey, mmap=True)
        if loaded is not None:
            compiled, nbytes = loaded
            registry.inc("store.hits")
            registry.inc("store.bytes", nbytes)
            if compiled.store_mmapped:
                registry.inc("store.mmap_loads")
            self._store_structure(skey, compiled)
            return compiled, True
        if self._store is not None:
            registry.inc("store.misses")
        with obs_trace.span("service.build", truncation=truncation):
            compiled = self._analyzer.compile_for_truncation(problem, truncation)
        registry.inc("service.structures.built")
        registry.observe("phase.build_seconds", sum(compiled.build_timings))
        for manager, totals in (compiled.kernel_cache_stats or {}).items():
            for event, value in totals.items():
                if value:
                    registry.inc("kernel.cache.%s.%s" % (manager, event), value)
        self._store_structure(skey, compiled)
        self._persist_structure(skey, compiled)
        return compiled, False

    @contextmanager
    def _counted_pass(self, compiled, phase: str, passes: str, span: str, models: int):
        """Count the one kernel pass over ``compiled`` that runs in the block.

        One ``phase`` histogram sample, one ``passes`` increment, the deltas
        of the structure's linearization builds and reuses, of its fused
        and native passes and of its forward-memo hits and misses, and the
        native backend's ``native.*`` counters.
        The pass runs in a ``span`` that records the kernel it resolved on
        this host (``linearized.last_kernel``), so a trace shows which path
        it took.
        """

        def counts():
            linearized = compiled._linearized
            return {
                "service.linearize.builds": compiled.linearize_builds,
                "service.linearize.reuses": compiled.linearize_reuses,
                "kernel.fused_passes": getattr(linearized, "fused_passes", 0),
                "kernel.native_passes": getattr(linearized, "native_passes", 0),
                "kernel.memo_hits": getattr(linearized, "memo_hits", 0),
                "kernel.memo_misses": getattr(linearized, "memo_misses", 0),
            }

        registry = self.registry
        before = counts()
        started = time.perf_counter()
        with obs_trace.span(span, models=models) as active:
            yield
            kernel = getattr(compiled._linearized, "last_kernel", None)
            if kernel is not None:
                active.set(kernel=kernel)
        registry.observe(phase, time.perf_counter() - started)
        registry.inc(passes)
        for name, value in counts().items():
            if value != before[name]:
                registry.inc(name, value - before[name])
        _native.publish_counters(registry, self._native_state)

    def _persist_structure(self, skey: Tuple, compiled) -> None:
        """Save a freshly built structure to the store (never fails a sweep)."""
        if self._store is None:
            return
        builds_before = compiled.linearize_builds
        try:
            self.registry.inc("store.bytes", self._store.save(skey, compiled))
        except OSError as exc:  # best-effort: counted and logged, never raised
            self.registry.inc("fault.suppressed")
            self.registry.inc("fault.suppressed.store.save")
            _log.debug("suppressed store.save failure: %r", exc)
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

    def _run_serial(self, groups, resolved=None) -> List[GroupColumns]:
        """One in-process pass per group: its columns, in order.

        ``resolved`` maps a group's position to the ``(structure, reused)``
        pair :meth:`_fan_out` resolved for it; other groups resolve here.
        The count vectors are made before the key lock is taken, so they
        overlap another caller's pass on the same structure; ``per_point``
        times the pass alone.
        """
        columns = []
        for number, group in enumerate(groups):
            problems = group.problems
            counts = [problem.lethal_counts(group.truncation) for problem in problems]
            with self._locked_key(group.skey):
                if resolved and number in resolved:
                    compiled, reused = resolved[number]
                else:
                    compiled, reused = self._structure_for(
                        group.skey, problems[0], group.truncation
                    )
                started = time.perf_counter()
                with self._counted_pass(
                    compiled,
                    "phase.evaluate_seconds",
                    "service.passes.batched",
                    "service.evaluate",
                    len(problems),
                ):
                    failed = compiled.probabilities(problems, counts)
                per_point = (time.perf_counter() - started) / len(problems)
            columns.append(
                GroupColumns(group, counts, failed, compiled.record, reused, per_point)
            )
        return columns

    def _run_parallel(self, groups) -> List[GroupColumns]:
        """Resolve a batch's unheld structures on threads, then pass in-process.

        Held groups need only their pass.  When two or more groups need a
        structure the service does not hold, :meth:`_fan_out` resolves those
        on threads first; every pass then runs on the calling thread.
        """
        with self._lock:
            unheld = {
                number: group
                for number, group in enumerate(groups)
                if group.skey not in self._structures
            }
        self.registry.inc("dispatch.groups_in_process", len(groups) - len(unheld))
        resolved = None
        if len(unheld) > 1:
            self.registry.inc("service.batches.parallel")
            resolved = self._fan_out(unheld)
        return self._run_serial(groups, resolved)

    def _fan_out(self, groups: Dict[int, PointGroup]) -> Dict[int, Tuple]:
        """Resolve each group's structure on a per-batch thread pool.

        ``groups`` maps a group's position in the batch to the group;
        returns ``position -> (structure, reused)``, as
        :meth:`_structure_for` returns it.  Each thread takes the group's
        key lock, so a key another batch is building is built once, and
        the calling thread holds none while it waits.  The native library
        releases the GIL for a whole build, so the builds overlap.  Every
        build runs to its end before a failed one's exception propagates:
        the structures that did build stay in the LRU.
        """

        def resolve(group):
            with self._locked_key(group.skey):
                return self._structure_for(group.skey, group.problems[0], group.truncation)

        with obs_trace.span("service.fanout", structures=len(groups)):
            with ThreadPoolExecutor(
                max_workers=min(self.workers, len(groups)),
                thread_name_prefix="repro-fanout",
            ) as executor:
                futures = {
                    number: executor.submit(resolve, group)
                    for number, group in groups.items()
                }
        return {number: future.result() for number, future in futures.items()}
