"""The asyncio HTTP front end over a shared :class:`SweepService`.

One process, one service, many concurrent clients: the event loop owns
admission control and **request coalescing per structure key**, a small
thread pool runs the (blocking, now thread-safe) service calls, and the
worker-pool fan-out below stays exactly as the CLI uses it.

Endpoints
---------

``GET /healthz``
    Liveness: ``200 {"status": "ok"}`` while the loop is serving, 503
    once a drain has started.  A serving loop whose worker pool was
    respawned within the last ``respawn_window`` seconds still answers
    200 (the process is alive) but with ``{"status": "degraded",
    "reason": ...}`` so orchestrators can distinguish "up" from "well".
``GET /stats``
    The service's entire :class:`~repro.obs.metrics.MetricsRegistry` in
    Prometheus text exposition format — the same numbers the CLI's
    ``--metrics`` writes, plus the ``server.*`` namespace.
``POST /v1/sweep``
    Body: ``{"benchmark": "MS2", "densities": [0.5, 1.0], "clustering":
    4.0, "max_defects": null, "epsilon": null, "stream": false}``.
    Evaluates one yield point per density as columns
    (:meth:`SweepService.evaluate_groups`, one kernel pass per structure
    group) and writes each point as :func:`result_to_dict` would write its
    ``YieldResult``, without making one.  With ``"stream": true`` the
    response is NDJSON (``Transfer-Encoding: chunked``): one line per
    point, written as each structure group completes, each line carrying
    its request ``index`` so clients may reorder.
``POST /v1/importance``
    Body: ``{"benchmark": "MS2", "mean_defects": 2.0, "clustering":
    4.0, ...}``.  One analytic reverse-mode gradient pass
    (:meth:`SweepService.gradient_batch`); responds with the component
    ranking.

Coalescing
----------

Every sweep/importance request groups its points by structure
(:meth:`SweepService.group`, which keys each group once) *before*
touching the caches.  Keys not yet resident are primed through
a per-key in-flight table on the event loop: the first request starts
the build (``server.builds_started``), every concurrent request for the
same key awaits the same future (``server.coalesced_joins``) — K clients
asking for one cold structure cause exactly one compile.  The service's
own per-key locks make this safe even for callers that bypass the
server.  Priming leaves a request's structures resident, so the service
runs the request's passes in the server process; its worker pool takes
only groups whose structure left the LRU in between.

Backpressure
------------

At most ``max_queue`` sweep/importance requests are in flight; the next
one is rejected with ``429`` and a ``Retry-After`` header *before* any
service work happens.  ``/healthz`` and ``/stats`` bypass admission so
operators can always see in.

A structure whose coded-ROBDD build passes the service's ``node_limit``
(``repro serve`` uses :data:`SERVE_NODE_BUDGET`) is answered with ``422``
before any evaluation runs, and counted as ``server.over_budget``; every
coalesced joiner of that build gets the same answer.

Two request bounds cap a request's work well below the body size cap,
each answered with ``422`` before any structure is built: a sweep with
more than :data:`MAX_SWEEP_DENSITIES` densities (``server.over_densities``,
checked before any problem is built), and a truncation level ``M`` above
:data:`MAX_SERVED_TRUNCATION` (``server.over_truncation``; an explicit
``max_defects`` is checked before any problem is built, an
``epsilon``-resolved ``M`` right after the problems resolve it).

Shutdown
--------

SIGTERM/SIGINT stop the listener, let in-flight requests drain for
``drain_grace`` seconds, then cancel stragglers.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

from .http import ChunkedWriter, HTTPError, Request, error_bytes, read_request, response_bytes
from ..bdd.builder import ResourceLimitExceeded
from ..engine.service import PointGroup, SweepService

__all__ = [
    "MAX_SERVED_TRUNCATION",
    "MAX_SWEEP_DENSITIES",
    "SERVE_NODE_BUDGET",
    "YieldServer",
    "ServerHandle",
    "serve_in_thread",
    "result_to_dict",
    "gradients_to_dict",
]

#: Coded-ROBDD node budget of one structure build under ``repro serve``
#: (the analyzer's ``node_limit``; the paper-table harness uses the same).
SERVE_NODE_BUDGET = 2_000_000

#: Most densities one ``/v1/sweep`` request may carry.  A 4 MiB body holds
#: ~200,000 of them, seconds of parent CPU; this caps a request at a
#: fraction of a second on a warm structure.
MAX_SWEEP_DENSITIES = 10_000

#: Highest truncation level ``M`` a request may resolve to: the paper's
#: largest (``M = 10``, at ``lambda' = 2``).  Builds grow steeply with
#: ``M``, so a larger one would burn seconds before its node budget stops it.
MAX_SERVED_TRUNCATION = 10


def result_to_dict(result, index: int, mean_defects: Optional[float] = None) -> Dict:
    """JSON-ready view of one :class:`~repro.core.results.YieldResult`.

    Floats pass through ``json`` unrounded (shortest-repr encoding), so a
    decoded value compares bit-for-bit equal to the in-process result —
    the property the smoke tests assert.
    """
    return _point_dict(
        index,
        result.name,
        result.probability_not_functioning,
        result.error_bound,
        result.truncation,
        result.romdd_size,
        result.ordering,
        mean_defects,
    )


def _point_dict(
    index, name, probability_failed, error_bound, truncation, romdd_size, ordering, mean_defects
) -> Dict:
    """The JSON shape of one point: :func:`result_to_dict` and the columns."""
    estimate = 1.0 - probability_failed
    out = {
        "index": index,
        "name": name,
        "yield": estimate,
        "yield_upper_bound": min(1.0, estimate + error_bound),
        "error_bound": error_bound,
        "truncation": truncation,
        "probability_not_functioning": probability_failed,
        "romdd_size": romdd_size,
        "ordering": list(ordering),
    }
    if mean_defects is not None:
        out["mean_defects"] = mean_defects
    return out


def _column_dicts(columns, densities) -> List[Tuple[int, Dict]]:
    """``(request index, point dict)`` for every point of one group's columns."""
    group = columns.group
    return [
        (
            index,
            _point_dict(
                index,
                problem.name,
                probability,
                counts[-1],
                group.truncation,
                record.romdd_size,
                record.ordering,
                densities[index],
            ),
        )
        for index, problem, counts, probability, record in zip(
            group.indices, group.problems, group.counts, columns.failed, columns.records
        )
    ]


def gradients_to_dict(gradients) -> Dict:
    """JSON-ready view of one :class:`~repro.core.results.YieldGradients`."""
    return {
        "name": gradients.name,
        "truncation": gradients.truncation,
        "yield": gradients.yield_estimate,
        "ranking": [
            {"component": name, "sensitivity": value}
            for name, value in gradients.ranking()
        ],
    }


def _json_bytes(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


class YieldServer:
    """Serve one :class:`SweepService` over HTTP (see the module docs)."""

    def __init__(
        self,
        service: SweepService,
        *,
        host: str = "127.0.0.1",
        port: int = 8000,
        max_queue: int = 64,
        http_threads: int = 8,
        drain_grace: float = 10.0,
        respawn_window: float = 30.0,
    ) -> None:
        self.service = service
        self.registry = service.registry
        self.host = host
        self.port = int(port)
        self.max_queue = int(max_queue)
        self.drain_grace = float(drain_grace)
        self.respawn_window = float(respawn_window)
        self._executor = ThreadPoolExecutor(
            max_workers=int(http_threads), thread_name_prefix="repro-http"
        )
        #: skey -> in-flight build future (event-loop confined).
        self._builds: Dict[Tuple, "asyncio.Future"] = {}
        self._admitted = 0
        self._draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind the listener (``self.port`` is updated when 0 was asked)."""
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_client, host=self.host, port=self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Serve until :meth:`initiate_stop` (or SIGTERM/SIGINT) fires."""
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        import signal

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.initiate_stop)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or platform without signal support
        await self._stopped.wait()
        await self._shutdown()

    def initiate_stop(self) -> None:
        """Begin a graceful drain (idempotent; callable from the loop)."""
        self._draining = True
        if self._stopped is not None and not self._stopped.is_set():
            self._stopped.set()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + self.drain_grace
        while self._admitted > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        self._executor.shutdown(wait=False)

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    async def _handle_client(self, reader, writer) -> None:
        try:
            try:
                request = await read_request(reader)
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

    async def _respond(self, request: Request, writer) -> None:
        started = time.perf_counter()
        route, handler, needs_admission = self._route(request)
        self.registry.inc("server.requests")
        self.registry.inc("server.requests.%s" % route)
        status = 500
        try:
            if needs_admission:
                if self._draining:
                    raise HTTPError(503, "server is draining", {"Retry-After": "1"})
                if self._admitted >= self.max_queue:
                    self.registry.inc("server.rejected")
                    raise HTTPError(
                        429,
                        "too many in-flight requests (max %d)" % self.max_queue,
                        {"Retry-After": "1"},
                    )
                self._admitted += 1
                self.registry.set_gauge("server.inflight", self._admitted)
                try:
                    status = await handler(request, writer)
                finally:
                    self._admitted -= 1
                    self.registry.set_gauge("server.inflight", self._admitted)
            else:
                status = await handler(request, writer)
        except HTTPError as exc:
            status = exc.status
            writer.write(error_bytes(exc))
            await writer.drain()
        except ResourceLimitExceeded as exc:
            # the structure build passed the node budget: the request asked
            # for more than this server serves, before any evaluation ran
            status = 422
            self.registry.inc("server.over_budget")
            writer.write(error_bytes(HTTPError(422, "over the node budget: %s" % exc)))
            await writer.drain()
        except Exception as exc:
            status = 500
            self.registry.inc("server.errors")
            writer.write(error_bytes(HTTPError(500, "internal error: %s" % exc)))
            await writer.drain()
        finally:
            self.registry.inc("server.responses.%d" % status)
            self.registry.observe("server.request_seconds", time.perf_counter() - started)

    def _route(self, request: Request):
        path, method = request.path, request.method
        if path == "/healthz":
            if method != "GET":
                return "healthz", self._method_not_allowed("GET"), False
            return "healthz", self._handle_healthz, False
        if path == "/stats":
            if method != "GET":
                return "stats", self._method_not_allowed("GET"), False
            return "stats", self._handle_stats, False
        if path == "/v1/sweep":
            if method != "POST":
                return "sweep", self._method_not_allowed("POST"), False
            return "sweep", self._handle_sweep, True
        if path == "/v1/importance":
            if method != "POST":
                return "importance", self._method_not_allowed("POST"), False
            return "importance", self._handle_importance, True
        return "unknown", self._handle_not_found, False

    @staticmethod
    def _method_not_allowed(allow: str):
        async def handler(request, writer):
            raise HTTPError(405, "method not allowed", {"Allow": allow})

        return handler

    @staticmethod
    async def _handle_not_found(request, writer):
        raise HTTPError(404, "no such endpoint")

    async def _handle_healthz(self, request, writer) -> int:
        if self._draining:
            status, payload = 503, {"status": "draining"}
        else:
            status = 200
            reason = self._degraded_reason()
            if reason is None:
                payload = {"status": "ok"}
            else:
                payload = {"status": "degraded", "reason": reason}
        writer.write(response_bytes(status, _json_bytes(payload)))
        await writer.drain()
        return status

    def _degraded_reason(self) -> Optional[str]:
        """Why the engine is limping, or ``None`` while it is healthy.

        Reads :meth:`SweepService.health`; services without it (tests
        stub the service with a bare object) count as healthy.
        """
        health = getattr(self.service, "health", None)
        if not callable(health):
            return None
        last_respawn = health().get("last_respawn")
        if last_respawn is not None and self.respawn_window > 0:
            age = time.time() - last_respawn
            if age < self.respawn_window:
                return "worker pool respawned %.1fs ago" % age
        return None

    async def _handle_stats(self, request, writer) -> int:
        text = self.registry.expose_text()
        writer.write(
            response_bytes(
                200,
                text.encode("utf-8"),
                content_type="text/plain; version=0.0.4",
            )
        )
        await writer.drain()
        return 200

    # ------------------------------------------------------------------ #
    # Service endpoints
    # ------------------------------------------------------------------ #

    @staticmethod
    def _benchmark_of(payload) -> str:
        benchmark = payload.get("benchmark")
        if not isinstance(benchmark, str):
            raise HTTPError(400, "'benchmark' must be a string")
        return benchmark

    def _over_truncation(self, truncation: int) -> HTTPError:
        self.registry.inc("server.over_truncation")
        return HTTPError(
            422,
            "truncation level M=%d is over the served maximum %d"
            % (truncation, MAX_SERVED_TRUNCATION),
        )

    def _groups_builder(
        self, benchmark: str, densities: List, payload, what: str, *, keyed: bool = True
    ) -> Callable[[], List[PointGroup]]:
        """A callable that builds, resolves and groups one point per density.

        Problem construction, truncation resolution and grouping (one key
        per structure group, :meth:`SweepService.group`) run off the event
        loop; parameter errors still surface as ``400`` (``KeyError`` for
        an unknown benchmark, ``TypeError``/``ValueError`` for invalid
        parameters).  An ``M`` over :data:`MAX_SERVED_TRUNCATION` is
        ``422``: an explicit ``max_defects`` here, before any problem is
        built, and an ``epsilon``-resolved one before any structure is
        built.  ``keyed`` as in :meth:`SweepService.group`.
        """
        clustering = payload.get("clustering", 4.0)
        max_defects = payload.get("max_defects")
        epsilon = payload.get("epsilon")
        if max_defects is not None:
            try:
                max_defects = int(max_defects)
            except (TypeError, ValueError, OverflowError) as exc:
                raise HTTPError(400, "invalid %s parameters: %s" % (what, exc)) from None
            if max_defects < 0:
                raise HTTPError(
                    400, "invalid %s parameters: max_defects must be >= 0" % what
                )
            if max_defects > MAX_SERVED_TRUNCATION:
                raise self._over_truncation(max_defects)

        def build():
            from ..soc import benchmark_problem

            try:
                problems = [
                    benchmark_problem(
                        benchmark,
                        mean_defects=float(mean),
                        clustering=float(clustering),
                    )
                    for mean in densities
                ]
                truncations = self.service.resolve(
                    problems,
                    max_defects=max_defects,
                    epsilon=None if epsilon is None else float(epsilon),
                )
                deepest = max(truncations)
                if deepest > MAX_SERVED_TRUNCATION:
                    raise self._over_truncation(deepest)
                return self.service.group(problems, truncations, keyed=keyed)
            except KeyError as exc:
                raise HTTPError(400, str(exc.args[0])) from None
            except (TypeError, ValueError) as exc:
                raise HTTPError(400, "invalid %s parameters: %s" % (what, exc)) from None

        return build

    def _sweep_request(self, payload):
        """Validate a sweep body; return ``(benchmark, densities, build)``."""
        benchmark = self._benchmark_of(payload)
        densities = payload.get("densities")
        if not isinstance(densities, list) or not densities:
            raise HTTPError(400, "'densities' must be a non-empty list of numbers")
        if len(densities) > MAX_SWEEP_DENSITIES:
            self.registry.inc("server.over_densities")
            raise HTTPError(
                422,
                "%d densities are over the per-request maximum %d"
                % (len(densities), MAX_SWEEP_DENSITIES),
            )
        try:
            densities = [float(value) for value in densities]
        except (TypeError, ValueError):
            raise HTTPError(400, "'densities' must be a non-empty list of numbers") from None
        build = self._groups_builder(benchmark, densities, payload, "sweep")
        return benchmark, densities, build

    async def _in_executor(self, func, *args):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, func, *args)

    async def _prime_structures(
        self, build: Callable[[], List[PointGroup]]
    ) -> List[PointGroup]:
        """Build and group the points, coalesce structure builds; return the groups.

        Problem construction and grouping share one executor call
        (``build``, see :meth:`_groups_builder`).  The in-flight table
        lives on the event loop, so membership checks and future creation
        are race-free without locks; the build itself runs on the thread
        pool.
        """
        groups = await self._in_executor(build)
        waits = []
        for group in groups:
            skey = group.skey
            pending = self._builds.get(skey)
            if pending is not None:
                self.registry.inc("server.coalesced_joins")
                waits.append(pending)
                continue
            if self.service.has_structure(skey):
                continue
            future = asyncio.get_running_loop().create_future()
            self._builds[skey] = future
            self.registry.inc("server.builds_started")
            waits.append(
                asyncio.ensure_future(
                    self._build_structure(skey, group.problems[0], group.truncation, future)
                )
            )
        for waited in waits:
            outcome = await waited
            if isinstance(outcome, BaseException):
                raise outcome
        return groups

    async def _build_structure(self, skey, problem, truncation: int, future):
        """Run one coalesced structure build; resolve its future for joiners.

        The future always resolves with the outcome (an exception instance
        on failure, ``None`` on success) rather than raising, so joiners
        that were cancelled never leave an unretrieved-exception warning.
        """
        outcome = None
        try:
            await self._in_executor(
                self.service.prime_structure, problem, truncation, skey
            )
        except Exception as exc:
            outcome = exc
        finally:
            self._builds.pop(skey, None)
            if not future.done():
                future.set_result(outcome)
        return outcome

    async def _handle_sweep(self, request: Request, writer) -> int:
        payload = request.json()
        benchmark, densities, build = self._sweep_request(payload)
        stream = bool(payload.get("stream", False))
        groups = await self._prime_structures(build)
        if not stream:
            outcomes = await self._in_executor(self.service.evaluate_groups, groups)
            points: List[Optional[Dict]] = [None] * len(densities)
            for columns in outcomes:
                for idx, point in _column_dicts(columns, densities):
                    points[idx] = point
            body = {"benchmark": benchmark, "points": points}
            writer.write(response_bytes(200, _json_bytes(body)))
            await writer.drain()
            return 200
        # streaming: evaluate one structure group at a time (each still a
        # single batched pass) and flush that group's lines immediately —
        # clients see results as groups complete, tagged with the request
        # index for reordering
        chunked = ChunkedWriter(writer)
        await chunked.start(200)
        for group in groups:
            (columns,) = await self._in_executor(self.service.evaluate_groups, [group])
            lines = b"".join(
                _json_bytes(point) + b"\n" for _, point in _column_dicts(columns, densities)
            )
            await chunked.send(lines)
        await chunked.finish()
        return 200

    async def _handle_importance(self, request: Request, writer) -> int:
        payload = request.json()
        benchmark = self._benchmark_of(payload)
        build = self._groups_builder(
            benchmark, [payload.get("mean_defects", 2.0)], payload, "importance", keyed=False
        )
        groups = await self._prime_structures(build)
        gradients = await self._in_executor(self.service.gradient_groups, groups)
        body = dict(gradients_to_dict(gradients[0][0]), benchmark=benchmark)
        writer.write(response_bytes(200, _json_bytes(body)))
        await writer.drain()
        return 200


# ---------------------------------------------------------------------- #
# Embedding helpers (tests, notebooks)
# ---------------------------------------------------------------------- #


class ServerHandle:
    """A server running on a background thread (see :func:`serve_in_thread`)."""

    def __init__(self):
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[YieldServer] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()

    @property
    def address(self) -> str:
        return "http://%s:%d" % (self.host, self.port)

    def stop(self, timeout: float = 10.0) -> None:
        """Drain and stop the server; joins the background thread."""
        if self._loop is not None and self._server is not None:
            try:
                self._loop.call_soon_threadsafe(self._server.initiate_stop)
            except RuntimeError:
                pass  # loop already gone
        if self._thread is not None:
            self._thread.join(timeout)


def serve_in_thread(service: SweepService, **kwargs) -> ServerHandle:
    """Start a :class:`YieldServer` on a daemon thread; return its handle.

    Binds an ephemeral port by default (pass ``port=`` to pin one) and
    returns only after the listener is accepting connections — tests can
    hit ``handle.address`` immediately.  Raises if startup failed.
    """
    kwargs.setdefault("port", 0)
    handle = ServerHandle()

    def run():
        async def main():
            server = YieldServer(service, **kwargs)
            try:
                await server.start()
            except BaseException as exc:
                handle.error = exc
                handle._ready.set()
                return
            handle.host = server.host
            handle.port = server.port
            handle._loop = asyncio.get_running_loop()
            handle._server = server
            handle._ready.set()
            await server.serve_forever()

        asyncio.run(main())

    handle._thread = threading.Thread(
        target=run, name="repro-server", daemon=True
    )
    handle._thread.start()
    if not handle._ready.wait(30.0):
        raise RuntimeError("server thread did not start in time")
    if handle.error is not None:
        raise RuntimeError("server failed to start: %r" % handle.error)
    return handle
