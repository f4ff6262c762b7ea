"""Supervised pool dispatch: deadlines, bounded retry, quarantine.

:class:`repro.engine.service.SweepService` used to hand its pool jobs to
``multiprocessing.Pool.map`` and hope: a worker killed mid-job, a hung
child or a payload that fails to unpickle either aborted the sweep or
hung it forever.  This module wraps the dispatch in a supervision loop
that guarantees **every job either completes on a worker or is evaluated
in the parent** — the sweep's results are bit-for-bit identical to a
fault-free run no matter which faults strike:

* **Deadlines** — every job gets a fixed deadline: ``shard_timeout`` when
  the service sets one, else :attr:`ShardSupervisor.DEFAULT_DEADLINE`,
  long enough for a worker-side structure build.  A job past its
  deadline is abandoned and the pool respawned, which terminates the hung
  worker; its retry gets twice the deadline.
* **Death watch** — the pool's worker pids are watched between polls,
  starting from the pids the pool was spawned with; a worker that
  vanished (``kill -9``, OOM, a crash), during a dispatch or between two,
  triggers a pool respawn and the resubmission of every in-flight job.
  Respawning the whole pool (not just the member) is deliberate: a
  worker killed while holding the shared inqueue lock can deadlock its
  siblings.
* **Bounded retry with exponential backoff plus deterministic jitter** —
  failed jobs are retried up to ``max_retries`` times, each retry
  delayed by :class:`Backoff` (seeded, so test runs are reproducible).
* **Quarantine** — a job that exhausts every retry (or outlives
  :attr:`ShardSupervisor.MAX_RESPAWNS` pool respawns) is returned to the
  caller, which evaluates it in-parent.

Every transition is counted in the service's metrics registry under the
``fault.*`` / ``retry.*`` / ``supervise.*`` namespaces (see
:mod:`repro.obs.metrics`), so ``--stats``, ``--metrics`` and the span
trace make the fault handling observable.
"""

from __future__ import annotations

import random
import time
from collections import deque
from typing import Callable, List, Optional, Sequence, Tuple

from ..obs import trace as obs_trace

__all__ = [
    "Backoff",
    "ShardJob",
    "ShardSupervisor",
    "unsupervised_dispatch",
]


# --------------------------------------------------------------------- #
# Backoff
# --------------------------------------------------------------------- #


class Backoff:
    """Exponential backoff with deterministic (seeded) jitter.

    ``delay(attempt)`` grows as ``base * factor**(attempt - 1)``, capped,
    and jittered into ``[0.5, 1.0] * full delay`` by a private seeded RNG —
    retries never synchronize, yet a fixed seed reproduces the exact delay
    sequence, which the deterministic fault harness relies on.
    """

    def __init__(
        self,
        base: float = 0.05,
        factor: float = 2.0,
        cap: float = 2.0,
        seed: int = 0,
    ) -> None:
        if base < 0 or factor < 1.0 or cap < 0:
            raise ValueError("invalid backoff parameters")
        self.base = float(base)
        self.factor = float(factor)
        self.cap = float(cap)
        self._rng = random.Random(seed)

    def delay(self, attempt: int) -> float:
        full = min(self.cap, self.base * self.factor ** max(0, attempt - 1))
        return full * (0.5 + 0.5 * self._rng.random())


# --------------------------------------------------------------------- #
# The supervisor
# --------------------------------------------------------------------- #


class ShardJob:
    """One unit of supervised dispatch: a payload, its blob, its history."""

    __slots__ = (
        "payload",
        "blob",
        "attempts",
        "respawns",
        "not_before",
        "deadline_scale",
        "submitted",
        "deadline",
        "handle",
    )

    def __init__(self, payload, blob) -> None:
        self.payload = payload
        self.blob = blob
        self.attempts = 0  # failures charged to this job itself
        self.respawns = 0  # collateral resubmissions after a pool respawn
        self.not_before = 0.0
        self.deadline_scale = 1.0
        self.submitted = 0.0
        self.deadline = 0.0
        self.handle = None


class ShardSupervisor:
    """Drives a batch of :class:`ShardJob` through the pool to completion.

    Parameters
    ----------
    service:
        The owning :class:`~repro.engine.service.SweepService`; the
        supervisor only uses ``ensure_workers()`` / ``respawn_workers()``,
        ``pool_pids`` and the metrics registry.
    max_retries:
        How many times one job may fail (timeout or error) before it is
        quarantined to the parent.
    shard_timeout:
        Fixed per-job deadline in seconds; ``None`` uses
        :attr:`DEFAULT_DEADLINE` (see :meth:`deadline_for`).
    """

    #: Deadline of a job when the service sets no ``shard_timeout``.  Every
    #: job may build its structure, whose cost does not scale with the
    #: job's point count, so one fixed deadline must cover the slowest build.
    DEFAULT_DEADLINE = 60.0
    #: How many collateral resubmissions (pool respawns) one job survives
    #: before it is quarantined along with the genuinely failing ones.
    MAX_RESPAWNS = 4
    #: Longest the supervisor sleeps between health scans; worker deaths
    #: (not signalled through any waitable handle) are noticed within this.
    WATCHDOG_INTERVAL = 0.1

    def __init__(
        self,
        service,
        *,
        max_retries: int = 2,
        shard_timeout: Optional[float] = None,
        backoff: Optional[Backoff] = None,
        poll_interval: float = 0.005,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive")
        self.service = service
        self.registry = service.registry
        self.max_retries = int(max_retries)
        self.shard_timeout = shard_timeout
        self.backoff = backoff if backoff is not None else Backoff()
        self.poll_interval = float(poll_interval)
        self._known_pids: set = set()

    # -- deadlines ---------------------------------------------------------

    def deadline_for(self, job: ShardJob) -> float:
        """Seconds this job may spend on a worker before it is abandoned."""
        if self.shard_timeout is None:
            return self.DEFAULT_DEADLINE * job.deadline_scale
        return self.shard_timeout * job.deadline_scale

    # -- pool health -------------------------------------------------------

    def _worker_pids(self, pool) -> set:
        try:
            return {p.pid for p in pool._pool if p.exitcode is None}
        except Exception:  # pool internals unavailable on this platform
            return set()

    def _deaths_since_last_check(self, pool) -> int:
        current = self._worker_pids(pool)
        if not current and not self._known_pids:
            return 0
        lost = len(self._known_pids - current)
        self._known_pids = current
        return lost

    # -- dispatch ----------------------------------------------------------

    def dispatch(
        self,
        jobs: Sequence[ShardJob],
        worker: Callable,
    ) -> Tuple[List[Tuple[ShardJob, object]], List[ShardJob]]:
        """Run every job to completion or quarantine.

        Returns ``(successes, quarantined)``: ``successes`` pairs each job
        with its worker result (in completion order); ``quarantined`` jobs
        exhausted their retries (or the pool is gone) and must be
        evaluated by the caller in-parent.
        """
        pending = deque(jobs)
        inflight: List[ShardJob] = []
        successes: List[Tuple[ShardJob, object]] = []
        quarantined: List[ShardJob] = []

        pool = self.service.ensure_workers()
        if pool is None:
            return [], list(jobs)
        # watch from the pids the pool was spawned with: a member that died
        # between dispatches (killed while idle, it can hold the task-queue
        # lock and wedge its siblings) counts as lost at the first scan
        self._known_pids = set(self.service.pool_pids) or self._worker_pids(pool)

        with obs_trace.span("service.supervise", shards=len(jobs)):
            while pending or inflight:
                now = time.monotonic()
                # submit whatever is eligible (backoff delays respected)
                held = []
                while pending:
                    job = pending.popleft()
                    if job.not_before > now:
                        held.append(job)
                        continue
                    limit = self.deadline_for(job)
                    job.submitted = now
                    job.deadline = now + limit
                    # the worker receives the deadline as epoch seconds
                    # (comparable across processes) and aborts its own
                    # kernel passes past it — see batch.shard_deadline
                    job.handle = pool.apply_async(
                        worker, (job.blob, time.time() + limit)
                    )
                    inflight.append(job)
                pending.extend(held)

                respawn_needed = False
                still_running: List[ShardJob] = []
                for job in inflight:
                    if job.handle.ready():
                        try:
                            result = job.handle.get()
                        except Exception as exc:
                            self._note_failure(job, exc)
                            self._requeue(job, pending, quarantined)
                        else:
                            self.registry.observe(
                                "retry.shard_seconds", time.monotonic() - job.submitted
                            )
                            successes.append((job, result))
                        continue
                    if time.monotonic() > job.deadline:
                        # hung (or silently dead) worker: charge the job,
                        # give it a longer leash next time, and replace the
                        # pool — terminating the pool is what actually
                        # interrupts the hung child
                        self.registry.inc("fault.shard_timeout")
                        job.attempts += 1
                        job.deadline_scale *= 2.0
                        self._requeue(job, pending, quarantined)
                        respawn_needed = True
                        continue
                    still_running.append(job)
                inflight = still_running

                lost = self._deaths_since_last_check(pool)
                if lost:
                    self.registry.inc("fault.worker_lost", lost)
                    respawn_needed = True

                if respawn_needed:
                    # in-flight work on the old pool is unrecoverable (the
                    # lost task never completes; siblings may share a lock
                    # with the dead worker) — resubmit everything on a
                    # fresh pool, within a collateral-respawn bound
                    for job in inflight:
                        job.handle = None
                        job.respawns += 1
                        if job.respawns > self.MAX_RESPAWNS:
                            self.registry.inc("fault.quarantined")
                            quarantined.append(job)
                        else:
                            pending.append(job)
                    inflight = []
                    self.registry.inc("supervise.respawns")
                    pool = self.service.respawn_workers()
                    if pool is None:  # platform stopped spawning processes
                        quarantined.extend(pending)
                        pending.clear()
                        break
                    self._known_pids = self._worker_pids(pool)
                    continue

                if inflight or pending:
                    # sleep until the next *event*: the oldest in-flight
                    # result landing (wait() wakes instantly), a deadline
                    # expiring, or a backoff hold ending — capped at the
                    # watchdog cadence so worker deaths are still noticed.
                    # Workers pull jobs from the shared queue without the
                    # parent's help, so coarse wake-ups cost nothing on the
                    # fault-free path; a busy 5 ms poll measurably starves
                    # the workers on small machines
                    now = time.monotonic()
                    horizon = self.WATCHDOG_INTERVAL
                    for job in inflight:
                        horizon = min(horizon, job.deadline - now)
                    for job in pending:
                        horizon = min(horizon, job.not_before - now)
                    timeout = max(self.poll_interval, horizon)
                    if inflight:
                        inflight[0].handle.wait(timeout)
                    else:
                        time.sleep(timeout)
        return successes, quarantined

    def _note_failure(self, job: ShardJob, exc: BaseException) -> None:
        if type(exc).__name__ == "DeadlineExceeded":
            # the worker noticed the deadline itself (shard-level hook in
            # the batch kernel): same treatment as a parent-side timeout
            self.registry.inc("fault.shard_timeout")
            job.deadline_scale *= 2.0
        else:
            self.registry.inc("fault.shard_error")
        job.attempts += 1

    def _requeue(self, job, pending, quarantined) -> None:
        """Schedule a failed job's next attempt, or quarantine it."""
        if job.attempts > self.max_retries:
            self.registry.inc("fault.quarantined")
            quarantined.append(job)
            return
        delay = self.backoff.delay(job.attempts)
        self.registry.inc("retry.attempts")
        self.registry.observe("retry.backoff_seconds", delay)
        job.not_before = time.monotonic() + delay
        job.handle = None
        pending.append(job)


def unsupervised_dispatch(
    supervisor: ShardSupervisor, jobs: Sequence[ShardJob], worker: Callable
) -> Tuple[List[Tuple[ShardJob, object]], List[ShardJob]]:
    """The pre-supervision dispatch: one bare ``pool.map``, no safety net.

    Kept as the overhead baseline for ``benchmarks/test_engine_sweep.py``:
    the fault-free supervised path must stay within a few percent of this.
    Any worker failure propagates (exactly the behaviour supervision
    removes) — never use this outside the benchmark.
    """
    pool = supervisor.service.ensure_workers()
    if pool is None:
        return [], list(jobs)
    results = pool.map(worker, [job.blob for job in jobs])
    return list(zip(jobs, results)), []
