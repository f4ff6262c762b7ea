"""The remote shard fabric: distributed workers behind the supervisor seam.

PR 7's fault-tolerant dispatch keeps every shard inside one machine: a
``multiprocessing`` pool, shared memory, SIGKILL-able children.  This
module is the remote half of that story.  A *shard worker* is a
long-lived HTTP process (``repro worker``) that resolves digest-addressed
compiled structures from a shared :class:`~repro.engine.store.StructureStore`,
evaluates one model span through
:meth:`~repro.core.method.CompiledYield.evaluate_probabilities`, and
returns the raw float64 result vector.  The parent-side
:class:`FabricScheduler` treats a set of such workers as one more
executor pool: the same shard wire seam (structure digest + two model
matrices in, a K-float vector out), the same bounded retry/backoff, and
one more rung on the degradation ladder (``remote`` → local pool →
in-parent), so **no fault on the fabric can change a sweep's results** —
only where they were computed.

Robustness machinery, mirroring :mod:`repro.engine.supervise`:

* **Heartbeats** — a monitor thread probes every worker's ``/healthz``;
  a worker that misses :data:`~FabricScheduler.DEAD_AFTER_MISSES`
  consecutive probes is evicted from scheduling and re-admitted as soon
  as a probe succeeds again (``heartbeat.*`` counters).
* **EWMA deadlines** — each worker keeps its own per-model latency
  estimate; shard deadlines scale from it, so slow workers get longer
  leashes but fewer shards (placement minimizes expected queue time),
  and dead ones get none.
* **Work stealing** — once the queue is empty, a straggling shard is
  speculatively re-executed on an idle worker; the first result wins and
  late duplicates are discarded (``steal.speculated`` / ``steal.wins`` /
  ``steal.late_discards``).
* **Bounded retry with backoff** — failed attempts requeue with the same
  seeded :class:`~repro.engine.supervise.Backoff` the local supervisor
  uses; a shard that exhausts its retries is returned to the caller,
  which evaluates it on the local path (``fabric.shards_failed``).
* **Fail-fast degradation** — with no live workers left the whole batch
  is handed back immediately; the service notes a ``remote`` route
  failure and the sweep continues on the local pool, unchanged.

The wire format is deliberately binary and pickle-free: a 4-byte
big-endian header length, a JSON header, then raw little-endian float64
matrices (request) or the result vector (response).  Floats cross the
wire as their exact 8-byte representation, so a remote result is
bit-for-bit the local one.

Deterministic chaos testing hooks into four ``net.*`` fault sites (see
:mod:`repro.engine.faults`): ``net.refuse`` before the connection,
``net.delay`` between send and receive, ``net.drop`` after the response
was read, and ``net.garbage`` corrupting the received body.
"""

from __future__ import annotations

import json
import logging
import os
import struct
import threading
import time
from collections import OrderedDict, deque
from http.client import HTTPConnection
from queue import Empty, Queue
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from . import faults
from . import native as _native
from .batch import shard_deadline
from .supervise import Backoff
from ..obs import trace as obs_trace
from ..obs.metrics import MetricsRegistry

__all__ = [
    "FabricError",
    "FabricScheduler",
    "FabricShard",
    "HeartbeatMonitor",
    "RemoteWorker",
    "ShardWorker",
    "WorkerHandle",
    "decode_shard_request",
    "decode_shard_response",
    "encode_shard_request",
    "encode_shard_response",
    "worker_in_thread",
]

#: Shard request/response bodies carry float64 matrices for a whole model
#: span; allow well past any realistic (cardinality x K) product.
MAX_SHARD_BODY = 64 * 1024 * 1024

_log = logging.getLogger("repro.engine.fabric")


class FabricError(RuntimeError):
    """A fabric-level protocol or transport failure (retryable)."""


# --------------------------------------------------------------------- #
# Wire format
# --------------------------------------------------------------------- #
#
# frame   := header-length (4 bytes, big-endian) + JSON header + payload
# request := frame with payload = count matrix + location matrix, both
#            C-contiguous little-endian float64, shapes in the header
# response:= frame with payload = K little-endian float64 probabilities


def _pack_frame(header: Dict, *payloads: bytes) -> bytes:
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    return struct.pack(">I", len(head)) + head + b"".join(payloads)


def _unpack_frame(body: bytes) -> Tuple[Dict, bytes]:
    if len(body) < 4:
        raise FabricError("frame shorter than its length prefix")
    (head_len,) = struct.unpack(">I", body[:4])
    if head_len > len(body) - 4:
        raise FabricError("frame header truncated")
    try:
        header = json.loads(body[4 : 4 + head_len].decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        raise FabricError("frame header is not valid JSON") from None
    if not isinstance(header, dict):
        raise FabricError("frame header must be a JSON object")
    return header, body[4 + head_len :]


def encode_shard_request(
    digest: str,
    count_bytes: bytes,
    location_bytes: bytes,
    *,
    count_rows: int,
    location_rows: int,
    models: int,
    deadline: Optional[float] = None,
) -> bytes:
    header = {
        "digest": digest,
        "count_rows": int(count_rows),
        "location_rows": int(location_rows),
        "models": int(models),
        "deadline": deadline,
    }
    return _pack_frame(header, count_bytes, location_bytes)


def decode_shard_request(body: bytes) -> Tuple[Dict, bytes, bytes]:
    """Split a request frame into ``(header, count_bytes, location_bytes)``."""
    header, payload = _unpack_frame(body)
    try:
        digest = header["digest"]
        count_rows = int(header["count_rows"])
        location_rows = int(header["location_rows"])
        models = int(header["models"])
    except (KeyError, TypeError, ValueError):
        raise FabricError("shard request header is incomplete") from None
    if not isinstance(digest, str) or not digest:
        raise FabricError("shard request names no structure digest")
    if models < 1 or count_rows < 1 or location_rows < 0:
        raise FabricError("shard request shapes are not positive")
    count_nbytes = count_rows * models * 8
    expected = count_nbytes + location_rows * models * 8
    if len(payload) != expected:
        raise FabricError(
            "shard request payload is %d bytes, expected %d"
            % (len(payload), expected)
        )
    return header, payload[:count_nbytes], payload[count_nbytes:]


def encode_shard_response(
    probabilities: Sequence[float],
    *,
    evaluate_seconds: float = 0.0,
    metrics: Optional[Dict] = None,
) -> bytes:
    vector = [float(p) for p in probabilities]
    header = {
        "ok": True,
        "models": len(vector),
        "evaluate_seconds": float(evaluate_seconds),
        "metrics": metrics,
    }
    return _pack_frame(header, struct.pack("<%dd" % len(vector), *vector))


def decode_shard_response(body: bytes, expected_models: int) -> Tuple[Dict, List[float]]:
    """Split a response frame into ``(header, probabilities)``.

    ``struct.unpack`` of the exact little-endian float64 bytes: the
    vector a worker computed is the vector the parent packages, bit for
    bit.
    """
    header, payload = _unpack_frame(body)
    if not header.get("ok"):
        raise FabricError("worker reported failure: %s" % header.get("error"))
    models = header.get("models")
    if models != expected_models:
        raise FabricError(
            "worker returned %r models, expected %d" % (models, expected_models)
        )
    if len(payload) != 8 * expected_models:
        raise FabricError(
            "result vector is %d bytes, expected %d"
            % (len(payload), 8 * expected_models)
        )
    return header, list(struct.unpack("<%dd" % expected_models, payload))


# --------------------------------------------------------------------- #
# Parent side: workers, heartbeats, the scheduler
# --------------------------------------------------------------------- #


class RemoteWorker:
    """One remote worker's scheduling state (liveness, latency, load)."""

    def __init__(self, url: str) -> None:
        if "//" not in url:
            url = "http://" + url
        parts = urlsplit(url)
        if not parts.hostname or not parts.port:
            raise ValueError("worker URL %r must name a host and port" % url)
        self.url = url
        self.host = parts.hostname
        self.port = int(parts.port)
        self.alive = True  # optimistic: the first contact settles it
        self.misses = 0
        self.inflight = 0
        self.per_model_seconds = 0.0  # EWMA; 0 = no sample yet
        self.lock = threading.Lock()

    #: EWMA weight of the newest latency sample (matches the supervisor).
    LATENCY_ALPHA = 0.3

    def observe(self, seconds: float, models: int) -> None:
        per_model = seconds / max(1, models)
        with self.lock:
            if self.per_model_seconds:
                per_model = (
                    (1.0 - self.LATENCY_ALPHA) * self.per_model_seconds
                    + self.LATENCY_ALPHA * per_model
                )
            self.per_model_seconds = per_model

    def note_alive(self, registry: Optional[MetricsRegistry] = None) -> None:
        with self.lock:
            readmitted = not self.alive
            self.alive = True
            self.misses = 0
        if readmitted:
            _log.info("fabric worker %s re-admitted", self.url)
            if registry is not None:
                registry.inc("heartbeat.readmissions")

    def note_miss(
        self, threshold: int, registry: Optional[MetricsRegistry] = None
    ) -> None:
        with self.lock:
            self.misses += 1
            evicted = self.alive and self.misses >= threshold
            if evicted:
                self.alive = False
        if registry is not None:
            registry.inc("heartbeat.misses")
        if evicted:
            _log.warning(
                "fabric worker %s evicted after %d consecutive misses",
                self.url,
                threshold,
            )
            if registry is not None:
                registry.inc("heartbeat.evictions")

    def snapshot(self) -> Tuple[bool, int, float]:
        with self.lock:
            return self.alive, self.inflight, self.per_model_seconds


class HeartbeatMonitor:
    """A restartable daemon thread probing every worker's ``/healthz``.

    Eviction and re-admission both live on the shared
    :class:`RemoteWorker` state, so the scheduler (which also notices
    connection failures) and the monitor never disagree about liveness.
    Restartable because the owning service may be closed and reused
    (``respawn_workers`` closes everything): :meth:`ensure` is called at
    the top of every dispatch.
    """

    def __init__(
        self,
        workers: Sequence[RemoteWorker],
        registry: MetricsRegistry,
        *,
        interval: float = 1.0,
        dead_after: int = 3,
    ) -> None:
        self.workers = list(workers)
        self.registry = registry
        self.interval = float(interval)
        self.dead_after = int(dead_after)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    def ensure(self) -> None:
        """Start (or restart) the probe thread; idempotent."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            self._stop = threading.Event()
            self._thread = threading.Thread(
                target=self._run, name="repro-fabric-heartbeat", daemon=True
            )
            self._thread.start()

    def stop(self) -> None:
        with self._lock:
            thread, self._thread = self._thread, None
            self._stop.set()
        if thread is not None:
            thread.join(self.interval + 1.0)

    def _run(self) -> None:
        stop = self._stop
        while not stop.wait(self.interval):
            self.probe_all()

    def probe_all(self) -> None:
        for worker in self.workers:
            self.probe(worker)

    def probe(self, worker: RemoteWorker) -> bool:
        """One liveness probe; updates the worker's shared state."""
        self.registry.inc("heartbeat.probes")
        timeout = min(1.0, self.interval) if self.interval > 0 else 1.0
        try:
            conn = HTTPConnection(worker.host, worker.port, timeout=timeout)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                ok = response.status == 200
            finally:
                conn.close()
        except Exception:
            ok = False
        if ok:
            worker.note_alive(self.registry)
        else:
            worker.note_miss(self.dead_after, self.registry)
        return ok


class FabricShard:
    """One model span bound for a remote worker, plus its attempt history."""

    __slots__ = (
        "group",
        "span",
        "digest",
        "count_bytes",
        "location_bytes",
        "count_rows",
        "location_rows",
        "models",
        "attempts",
        "deadline_scale",
        "not_before",
        "done",
        "failed",
        "speculated",
        "result",
        "evaluate_seconds",
        "metrics",
    )

    def __init__(
        self,
        *,
        digest: str,
        count_bytes: bytes,
        location_bytes: bytes,
        count_rows: int,
        location_rows: int,
        models: int,
        span: Tuple[int, int] = (0, 0),
        group=None,
    ) -> None:
        self.group = group
        self.span = span
        self.digest = digest
        self.count_bytes = count_bytes
        self.location_bytes = location_bytes
        self.count_rows = int(count_rows)
        self.location_rows = int(location_rows)
        self.models = int(models)
        self.attempts = 0
        self.deadline_scale = 1.0
        self.not_before = 0.0
        self.done = False
        self.failed = False
        self.speculated = False
        self.result: Optional[List[float]] = None
        self.evaluate_seconds = 0.0
        self.metrics: Optional[Dict] = None

    @property
    def settled(self) -> bool:
        return self.done or self.failed


class _Attempt:
    """One in-flight submission of a shard to one worker."""

    __slots__ = ("shard", "worker", "submitted", "deadline", "speculative")

    def __init__(self, shard, worker, submitted, deadline, speculative):
        self.shard = shard
        self.worker = worker
        self.submitted = submitted
        self.deadline = deadline
        self.speculative = speculative


class FabricScheduler:
    """Drives a batch of :class:`FabricShard` across the remote workers.

    The analogue of :class:`~repro.engine.supervise.ShardSupervisor` for
    the remote route: :meth:`dispatch` runs every shard to completion or
    permanent failure and returns ``(successes, failures)`` — failed
    shards are the caller's to evaluate on the local path, which is what
    keeps results identical under any fault.
    """

    #: Deadline scaling, mirroring the local supervisor's constants.
    DEADLINE_FACTOR = 8.0
    DEFAULT_DEADLINE = 60.0
    DEADLINE_FLOOR = 0.5
    #: Queue depth per worker; beyond it shards wait in the parent, where
    #: they can still be re-routed when the worker dies.
    MAX_INFLIGHT_PER_WORKER = 2
    #: Consecutive failed contacts (heartbeat or dispatch) before eviction.
    DEAD_AFTER_MISSES = 3
    #: Speculation floor / ratio: a shard is re-executed elsewhere once it
    #: has run ``SPECULATE_RATIO`` times its expected duration (at least
    #: ``SPECULATE_MIN_SECONDS``) with the queue empty and a worker idle.
    SPECULATE_MIN_SECONDS = 0.25
    SPECULATE_RATIO = 2.0
    #: Longest the loop sleeps waiting for a completion event.
    WATCHDOG_INTERVAL = 0.1

    def __init__(
        self,
        worker_urls: Sequence[str],
        registry: MetricsRegistry,
        *,
        max_retries: int = 2,
        shard_timeout: Optional[float] = None,
        backoff: Optional[Backoff] = None,
        heartbeat_interval: float = 1.0,
        fault_plan=None,
    ) -> None:
        self.workers = [RemoteWorker(url) for url in worker_urls]
        self.registry = registry
        self.max_retries = int(max_retries)
        self.shard_timeout = shard_timeout
        self.backoff = backoff if backoff is not None else Backoff()
        self.fault_plan = fault_plan
        self.monitor = HeartbeatMonitor(
            self.workers,
            registry,
            interval=heartbeat_interval,
            dead_after=self.DEAD_AFTER_MISSES,
        )
        self._serial = 0
        self._closed = False
        #: One dispatch at a time: the scheduler owns the shared worker
        #: states, which two concurrent loops would race.
        self._lock = threading.Lock()

    # -- liveness ----------------------------------------------------------

    def live_workers(self) -> List[RemoteWorker]:
        return [w for w in self.workers if w.snapshot()[0]]

    def has_live_workers(self) -> bool:
        return any(w.snapshot()[0] for w in self.workers)

    def close(self) -> None:
        self._closed = True
        self.monitor.stop()

    # -- dispatch ----------------------------------------------------------

    def dispatch(
        self, shards: Sequence[FabricShard]
    ) -> Tuple[List[FabricShard], List[FabricShard]]:
        """Run every shard remotely; return ``(successes, failures)``."""
        with self._lock:
            if self._closed or not self.workers or not shards:
                return [], list(shards)
            self.monitor.ensure()
            return self._dispatch(list(shards))

    def _dispatch(self, shards):
        pending = deque(shards)
        inflight: Dict[int, _Attempt] = {}
        completions: "Queue" = Queue()
        successes: List[FabricShard] = []
        failures: List[FabricShard] = []

        with obs_trace.span("service.fabric", shards=len(shards)):
            while pending or inflight:
                if not self.has_live_workers():
                    # fail fast: hand everything back (queued *and* in
                    # flight) so the service can degrade to the local pool
                    # without burning retries
                    for attempt in inflight.values():
                        self._release_worker(attempt.worker)
                        pending.append(attempt.shard)
                    inflight.clear()
                    while pending:
                        shard = pending.popleft()
                        if not shard.settled:
                            shard.failed = True
                            self.registry.inc("fabric.shards_failed")
                            failures.append(shard)
                    break

                now = time.monotonic()
                held = []
                while pending:
                    shard = pending.popleft()
                    if shard.settled:
                        continue
                    if shard.not_before > now:
                        held.append(shard)
                        continue
                    worker = self._pick_worker()
                    if worker is None:  # every live worker is saturated
                        held.append(shard)
                        break
                    self._submit(shard, worker, inflight, completions, False)
                pending.extendleft(reversed(held))

                if not pending:
                    self._maybe_speculate(inflight, completions)

                self._wait_for_event(pending, inflight, completions)

                while True:
                    try:
                        token, kind, payload = completions.get_nowait()
                    except Empty:
                        break
                    self._complete(
                        token, kind, payload, inflight, pending, successes, failures
                    )

                now = time.monotonic()
                for token, attempt in list(inflight.items()):
                    if now > attempt.deadline:
                        self._abandon(token, attempt, inflight, pending, failures)
        return successes, failures

    # -- placement ---------------------------------------------------------

    def _pick_worker(self, exclude=None, idle_only=False):
        """The live worker with the smallest expected queue time."""
        best = None
        best_score = None
        for worker in self.workers:
            if worker is exclude:
                continue
            alive, inflight, per_model = worker.snapshot()
            if not alive or inflight >= self.MAX_INFLIGHT_PER_WORKER:
                continue
            if idle_only and inflight:
                continue
            score = (inflight + 1) * (per_model if per_model > 0 else 1e-6)
            if best is None or score < best_score:
                best, best_score = worker, score
        return best

    def _deadline_for(self, shard: FabricShard, worker: RemoteWorker) -> float:
        if self.shard_timeout is not None:
            return self.shard_timeout * shard.deadline_scale
        per_model = worker.snapshot()[2]
        if not per_model:
            return self.DEFAULT_DEADLINE * shard.deadline_scale
        computed = self.DEADLINE_FACTOR * per_model * max(1, shard.models) + 0.5
        return max(self.DEADLINE_FLOOR, computed) * shard.deadline_scale

    def _maybe_speculate(self, inflight, completions) -> None:
        now = time.monotonic()
        for attempt in list(inflight.values()):
            shard = attempt.shard
            if shard.settled or shard.speculated or attempt.speculative:
                continue
            if sum(1 for a in inflight.values() if a.shard is shard) != 1:
                continue
            per_model = attempt.worker.snapshot()[2]
            if not per_model:
                continue  # no latency sample: nothing to call a straggler
            expected = per_model * max(1, shard.models)
            threshold = max(self.SPECULATE_MIN_SECONDS, self.SPECULATE_RATIO * expected)
            if now - attempt.submitted < threshold:
                continue
            other = self._pick_worker(exclude=attempt.worker, idle_only=True)
            if other is None:
                continue
            shard.speculated = True
            self.registry.inc("steal.speculated")
            self._submit(shard, other, inflight, completions, True)

    # -- submission --------------------------------------------------------

    def _submit(self, shard, worker, inflight, completions, speculative) -> None:
        limit = self._deadline_for(shard, worker)
        now = time.monotonic()
        self._serial += 1
        token = self._serial
        inflight[token] = _Attempt(shard, worker, now, now + limit, speculative)
        with worker.lock:
            worker.inflight += 1
        body = encode_shard_request(
            shard.digest,
            shard.count_bytes,
            shard.location_bytes,
            count_rows=shard.count_rows,
            location_rows=shard.location_rows,
            models=shard.models,
            # workers receive the deadline as epoch seconds (comparable
            # across hosts with sane clocks) and abort their own kernel
            # passes past it — see batch.shard_deadline
            deadline=time.time() + limit,
        )
        self.registry.inc("fabric.shards_dispatched")
        self.registry.inc("fabric.bytes_sent", len(body))
        thread = threading.Thread(
            target=self._post,
            args=(token, worker, body, shard.models, limit, completions),
            name="repro-fabric-post",
            daemon=True,
        )
        thread.start()

    def _post(self, token, worker, body, models, limit, completions) -> None:
        """Submission-thread body: one POST, outcome onto the queue.

        ``faults.scoped`` must be re-entered here: thread-scoped plans do
        not propagate into spawned threads, but occurrence counters live
        on the (shared, lock-guarded) plan object, so the injection
        schedule stays deterministic across submission threads.
        """
        try:
            with faults.scoped(self.fault_plan):
                outcome = self._post_shard(worker, body, models, limit)
        except BaseException as exc:
            completions.put((token, "error", exc))
            return
        completions.put((token, "ok", outcome))

    def _post_shard(self, worker, body, models, limit):
        faults.fire("net.refuse", self.registry)
        # socket timeout just past the parent-side deadline: an abandoned
        # attempt's thread unblocks shortly after the scheduler gave up on
        # it instead of pinning a socket forever
        conn = HTTPConnection(worker.host, worker.port, timeout=limit + 2.0)
        try:
            conn.request(
                "POST",
                "/v1/shard",
                body=body,
                headers={"Content-Type": "application/octet-stream"},
            )
            faults.fire("net.delay", self.registry)
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        faults.fire("net.drop", self.registry)
        if faults.fire("net.garbage", self.registry):
            raw = raw[: len(raw) // 2] + b"\xff" * (len(raw) - len(raw) // 2)
        if response.status != 200:
            raise FabricError(
                "worker %s returned HTTP %d: %s"
                % (worker.url, response.status, raw[:200])
            )
        header, probabilities = decode_shard_response(raw, models)
        return header, probabilities, len(raw)

    # -- completion --------------------------------------------------------

    def _release_worker(self, worker) -> None:
        with worker.lock:
            worker.inflight = max(0, worker.inflight - 1)

    def _complete(
        self, token, kind, payload, inflight, pending, successes, failures
    ) -> None:
        attempt = inflight.pop(token, None)
        if attempt is None:
            # abandoned past its deadline (or its shard settled and the
            # sibling attempts were dropped): a late result is discarded —
            # first result wins
            if kind == "ok":
                self.registry.inc("steal.late_discards")
            return
        self._release_worker(attempt.worker)
        shard = attempt.shard
        if kind == "ok":
            header, probabilities, received = payload
            self.registry.inc("fabric.bytes_received", received)
            elapsed = time.monotonic() - attempt.submitted
            attempt.worker.observe(elapsed, shard.models)
            attempt.worker.note_alive(self.registry)
            if shard.settled:
                self.registry.inc("steal.late_discards")
                return
            shard.done = True
            shard.result = probabilities
            shard.evaluate_seconds = float(header.get("evaluate_seconds") or 0.0)
            shard.metrics = header.get("metrics")
            self.registry.inc("fabric.shards_completed")
            self.registry.inc("fabric.models", shard.models)
            self.registry.observe("fabric.remote_seconds", elapsed)
            if attempt.speculative:
                self.registry.inc("steal.wins")
            successes.append(shard)
            self._drop_siblings(shard, inflight)
            return
        # a failed attempt
        exc = payload
        self.registry.inc("fabric.worker_errors")
        _log.debug("fabric attempt on %s failed: %r", attempt.worker.url, exc)
        if isinstance(exc, (ConnectionError, OSError)) and not isinstance(
            exc, FabricError
        ):
            # could not reach the worker at all: charge its liveness, so a
            # dead worker is evicted without waiting for the heartbeat
            attempt.worker.note_miss(self.DEAD_AFTER_MISSES, self.registry)
        if shard.settled or self._live_attempts(shard, inflight):
            return  # another attempt may still win; nothing to requeue
        self._requeue(shard, pending, failures)

    def _abandon(self, token, attempt, inflight, pending, failures) -> None:
        """A parent-side deadline expired: drop the attempt, charge the shard."""
        inflight.pop(token, None)
        self._release_worker(attempt.worker)
        self.registry.inc("fabric.timeouts")
        # a hung worker counts against liveness exactly like a refused
        # connection; a merely slow one earns the miss back on its next
        # completed probe or shard
        attempt.worker.note_miss(self.DEAD_AFTER_MISSES, self.registry)
        shard = attempt.shard
        if shard.settled or self._live_attempts(shard, inflight):
            return
        shard.deadline_scale *= 2.0
        self._requeue(shard, pending, failures)

    @staticmethod
    def _live_attempts(shard, inflight) -> int:
        return sum(1 for a in inflight.values() if a.shard is shard)

    def _drop_siblings(self, shard, inflight) -> None:
        for token, attempt in list(inflight.items()):
            if attempt.shard is shard:
                inflight.pop(token)
                self._release_worker(attempt.worker)

    def _requeue(self, shard, pending, failures) -> None:
        shard.attempts += 1
        if shard.attempts > self.max_retries:
            shard.failed = True
            self.registry.inc("fabric.shards_failed")
            failures.append(shard)
            return
        delay = self.backoff.delay(shard.attempts)
        self.registry.inc("retry.attempts")
        self.registry.observe("retry.backoff_seconds", delay)
        shard.not_before = time.monotonic() + delay
        pending.append(shard)

    def _wait_for_event(self, pending, inflight, completions) -> None:
        """Block until a completion lands or the next deadline/backoff edge."""
        if not pending and not inflight:
            return
        now = time.monotonic()
        horizon = self.WATCHDOG_INTERVAL
        for attempt in inflight.values():
            horizon = min(horizon, attempt.deadline - now)
        for shard in pending:
            if shard.not_before:
                horizon = min(horizon, shard.not_before - now)
        try:
            item = completions.get(timeout=max(0.005, horizon))
        except Empty:
            return
        completions.put(item)  # handled by the drain loop right after


# --------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------- #


class ShardRejected(Exception):
    """A shard request the worker refuses (maps to an HTTP status)."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = int(status)
        self.message = message


class ShardWorker:
    """A long-lived HTTP shard evaluator over a shared structure store.

    Endpoints:

    ``GET /healthz``
        ``200 {"status": "ok", "shards": N, "structures": M}`` — the
        liveness probe the parent's heartbeat monitor hits.
    ``GET /stats``
        The worker's metrics registry in Prometheus text format.
    ``POST /v1/shard``
        One shard frame in (structure digest + model matrices), one
        result frame out (the float64 probability vector plus a metrics
        delta the parent merges into its own registry).

    Evaluation runs on a single executor thread — compiled structures'
    linearization workspaces are not reentrant — while health probes stay
    on the event loop, so a worker grinding through a shard still
    answers its heartbeat.
    """

    #: Per-worker compiled-structure LRU bound (matches the pool workers).
    MAX_STRUCTURES = 4

    def __init__(
        self,
        store_root: str,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        from .store import StructureStore

        self.store_root = store_root
        self.host = host
        self.port = int(port)
        # every shard pass resolves the native backend for this host
        # (compile/warm-start from the store's `native/` cache, fused
        # fallback when that fails)
        _native.set_cache_dir(os.path.join(store_root, "native"))
        self._native_state: Dict[str, int] = {}
        self.registry = registry if registry is not None else MetricsRegistry()
        self._store = StructureStore(store_root, registry=self.registry)
        self._structures: "OrderedDict[str, object]" = OrderedDict()
        self._structures_lock = threading.Lock()
        from concurrent.futures import ThreadPoolExecutor

        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-shard-eval"
        )
        self.shards_served = 0
        self._server = None
        self._stopped = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        import asyncio

        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_client, host=self.host, port=self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        import asyncio
        import signal as signal_mod

        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal_mod.SIGTERM, signal_mod.SIGINT):
            try:
                loop.add_signal_handler(signum, self.initiate_stop)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or platform without signal support
        await self._stopped.wait()
        self._server.close()
        await self._server.wait_closed()
        self._executor.shutdown(wait=False)

    def initiate_stop(self) -> None:
        if self._stopped is not None and not self._stopped.is_set():
            self._stopped.set()

    # -- connection handling ----------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        from ..server.http import HTTPError, error_bytes, read_request

        try:
            try:
                request = await read_request(reader, max_body=MAX_SHARD_BODY)
            except HTTPError as exc:
                writer.write(error_bytes(exc))
                await writer.drain()
                return
            if request is None:
                return
            await self._respond(request, writer)
        except (ConnectionError, OSError):
            pass  # client went away mid-response
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, request, writer) -> None:
        from ..server.http import HTTPError, error_bytes, response_bytes

        self.registry.inc("fabric.worker_requests")
        try:
            if request.path == "/healthz" and request.method == "GET":
                with self._structures_lock:
                    structures = len(self._structures)
                body = json.dumps(
                    {
                        "status": "ok",
                        "shards": self.shards_served,
                        "structures": structures,
                    }
                ).encode("utf-8")
                writer.write(response_bytes(200, body))
            elif request.path == "/stats" and request.method == "GET":
                writer.write(
                    response_bytes(
                        200,
                        self.registry.expose_text().encode("utf-8"),
                        content_type="text/plain; version=0.0.4",
                    )
                )
            elif request.path == "/v1/shard" and request.method == "POST":
                import asyncio

                loop = asyncio.get_running_loop()
                out = await loop.run_in_executor(
                    self._executor, self._evaluate_shard, request.body
                )
                writer.write(
                    response_bytes(
                        200, out, content_type="application/octet-stream"
                    )
                )
            else:
                raise HTTPError(404, "no such endpoint")
        except HTTPError as exc:
            writer.write(error_bytes(exc))
        except ShardRejected as exc:
            writer.write(error_bytes(HTTPError(exc.status, exc.message)))
        except Exception as exc:
            self.registry.inc("fabric.worker_failures")
            writer.write(error_bytes(HTTPError(500, "shard failed: %s" % exc)))
        await writer.drain()

    # -- evaluation (single executor thread) -------------------------------

    def _structure_for(self, digest: str):
        with self._structures_lock:
            compiled = self._structures.get(digest)
            if compiled is not None:
                self._structures.move_to_end(digest)
                return compiled
        loaded = self._store.load_digest(digest, mmap=True)
        if loaded is None:
            raise ShardRejected(404, "structure %s... not in store" % digest[:16])
        compiled, nbytes = loaded
        self.registry.inc("fabric.worker_structure_loads")
        self.registry.inc("fabric.worker_structure_bytes", nbytes)
        with self._structures_lock:
            self._structures[digest] = compiled
            self._structures.move_to_end(digest)
            while len(self._structures) > self.MAX_STRUCTURES:
                self._structures.popitem(last=False)
        return compiled

    def _evaluate_shard(self, body: bytes) -> bytes:
        import numpy

        # the same crash/hang sites the pool workers fire, so one chaos
        # plan (REPRO_FAULT_PLAN is process-global, visible here) covers
        # both executor kinds
        faults.fire("worker.kill", self.registry)
        faults.fire("worker.hang", self.registry)
        started = time.perf_counter()
        before = self.registry.snapshot()
        try:
            header, count_bytes, location_bytes = decode_shard_request(body)
        except FabricError as exc:
            raise ShardRejected(400, str(exc)) from None
        k = int(header["models"])
        compiled = self._structure_for(header["digest"])
        count = (
            numpy.frombuffer(count_bytes, dtype="<f8")
            .reshape(int(header["count_rows"]), k)
            .copy()
        )
        location = (
            numpy.frombuffer(location_bytes, dtype="<f8")
            .reshape(int(header["location_rows"]), k)
            .copy()
        )
        linearized_before = getattr(compiled, "_linearized", None)
        native_before = (
            linearized_before.native_passes if linearized_before is not None else 0
        )
        with shard_deadline(header.get("deadline")):
            probabilities = compiled.evaluate_probabilities(count, location, k)
        linearized = getattr(compiled, "_linearized", None)
        if linearized is not None and linearized.native_passes > native_before:
            self.registry.inc(
                "kernel.native_passes", linearized.native_passes - native_before
            )
        _native.publish_counters(self.registry, self._native_state)
        elapsed = time.perf_counter() - started
        self.shards_served += 1
        self.registry.inc("fabric.worker_shards")
        self.registry.inc("fabric.worker_models", k)
        self.registry.observe("fabric.worker_evaluate_seconds", elapsed)
        # ship home everything this shard changed (store counters, fault
        # injections, the fabric.worker_* counts above): the parent merges
        # the delta, so new worker metrics never need parent-side plumbing
        return encode_shard_response(
            probabilities,
            evaluate_seconds=elapsed,
            metrics=self.registry.diff(before),
        )


# --------------------------------------------------------------------- #
# Embedding helper (tests, demos)
# --------------------------------------------------------------------- #


class WorkerHandle:
    """A shard worker running on a background thread (see :func:`worker_in_thread`)."""

    def __init__(self):
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.error: Optional[BaseException] = None
        self.worker: Optional[ShardWorker] = None
        self._loop = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()

    @property
    def url(self) -> str:
        return "http://%s:%d" % (self.host, self.port)

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self.worker is not None:
            try:
                self._loop.call_soon_threadsafe(self.worker.initiate_stop)
            except RuntimeError:
                pass  # loop already gone
        if self._thread is not None:
            self._thread.join(timeout)


def worker_in_thread(store_root: str, **kwargs) -> WorkerHandle:
    """Start a :class:`ShardWorker` on a daemon thread; return its handle.

    Binds an ephemeral port by default and returns only after the
    listener is accepting connections — tests can dial ``handle.url``
    immediately.  Raises if startup failed.
    """
    import asyncio

    kwargs.setdefault("port", 0)
    handle = WorkerHandle()

    def run():
        async def main():
            worker = ShardWorker(store_root, **kwargs)
            try:
                await worker.start()
            except BaseException as exc:
                handle.error = exc
                handle._ready.set()
                return
            handle.host = worker.host
            handle.port = worker.port
            handle.worker = worker
            handle._loop = asyncio.get_running_loop()
            handle._ready.set()
            await worker.serve_forever()

        asyncio.run(main())

    handle._thread = threading.Thread(
        target=run, name="repro-shard-worker", daemon=True
    )
    handle._thread.start()
    if not handle._ready.wait(30.0):
        raise RuntimeError("shard worker thread did not start in time")
    if handle.error is not None:
        raise RuntimeError("shard worker failed to start: %r" % handle.error)
    return handle
