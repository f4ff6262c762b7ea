"""Concurrent load generator (and correctness checker) for ``repro serve``.

Fires a mixed burst of sweep and importance requests at a running server
from many client threads — stdlib only (``http.client`` + ``threading``),
so it runs anywhere the package does::

    repro serve --port 8123 &
    python examples/load_gen.py --base-url http://127.0.0.1:8123 \
        --clients 8 --rounds 3 --verify

Every client round issues one ``POST /v1/sweep`` (half the clients with
``"stream": true``, exercising the NDJSON path) and one
``POST /v1/importance``.  All clients request the **same** benchmark and
densities, so the server's per-structure-key request coalescing is under
real concurrent fire; afterwards the script prints client-side latency
percentiles (p50/p90/p99) per request kind — sweep, streamed sweep and
importance — and scrapes ``/stats`` for the build/coalesce counters and
the server's own ``server.request_seconds`` count and sum.

``--verify`` additionally computes the same batch in-process through a
serial :class:`repro.engine.service.SweepService` and asserts the HTTP
responses are **bit-for-bit identical** (floats survive the JSON round
trip by shortest-repr) — the acceptance check the CI smoke job runs.

Backpressure is the server doing its job, so a 429 is never a failure
by itself: clients honor the ``Retry-After`` header (capped, with a few
bounded attempts) and re-issue the request.  The exit code is 0 unless
a request hard-fails (non-200/429, connection error) or ``--verify``
finds a drift; ``--fail-on-reject`` additionally fails the run when a
request still gets 429 after exhausting its retries.

Without ``--base-url`` the script is self-contained: it boots an
in-process server on an ephemeral port (the same
:func:`repro.server.serve_in_thread` the test suite uses), fires the
burst at it, and tears it down — so ``python examples/load_gen.py``
demonstrates the whole serving story with no setup.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import threading
import time
from http.client import HTTPConnection
from urllib.parse import urlsplit

FAST = bool(os.environ.get("REPRO_EXAMPLE_FAST"))

#: 429 backoff bounds: never sleep longer than this per Retry-After hint,
#: never re-issue one request more than this many times.
MAX_RETRY_AFTER = 2.0
RETRY_ATTEMPTS = 5


def _request(base, method, path, payload=None, timeout=120.0):
    """One HTTP request; returns ``(status, parsed-or-raw body, retry_after)``."""
    parts = urlsplit(base)
    conn = HTTPConnection(parts.hostname, parts.port or 80, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        retry_after = None
        if response.status == 429:
            try:
                retry_after = float(response.getheader("Retry-After") or "")
            except ValueError:
                retry_after = None
        kind = (response.getheader("Content-Type") or "").split(";")[0]
        if kind == "application/json":
            return response.status, json.loads(raw), retry_after
        if kind == "application/x-ndjson":
            return response.status, [
                json.loads(line) for line in raw.splitlines() if line.strip()
            ], retry_after
        return response.status, raw, retry_after
    finally:
        conn.close()


def _request_with_backoff(base, method, path, payload, tally):
    """Issue one request, absorbing 429s by honoring ``Retry-After``.

    Sleeps the server's hint (capped at :data:`MAX_RETRY_AFTER`, doubling
    a small default when the header is missing) and retries up to
    :data:`RETRY_ATTEMPTS` times; the last response is returned whatever
    its status, so a saturated server still surfaces as a 429.
    """
    delay = 0.1
    status, body, retry_after = _request(base, method, path, payload)
    for _ in range(RETRY_ATTEMPTS - 1):
        if status != 429:
            break
        wait = min(retry_after if retry_after is not None else delay, MAX_RETRY_AFTER)
        tally.note_backoff(wait)
        time.sleep(wait)
        delay = min(delay * 2.0, MAX_RETRY_AFTER)
        status, body, retry_after = _request(base, method, path, payload)
    return status, body


class Tally:
    """Thread-safe success/reject/failure accounting."""

    def __init__(self):
        self.lock = threading.Lock()
        self.ok = 0
        self.rejected = 0
        self.failed = 0
        self.retries = 0
        self.backoff_seconds = 0.0
        self.errors = []
        #: client-side seconds of each successful request, per kind
        self.latencies = {"sweep": [], "stream": [], "importance": []}

    def record(self, status, context, kind, seconds):
        with self.lock:
            if status == 200:
                self.ok += 1
                self.latencies[kind].append(seconds)
            elif status == 429:
                # still rejected after every Retry-After-honoring attempt
                self.rejected += 1
            else:
                self.failed += 1
                self.errors.append("%s -> HTTP %s" % (context, status))

    def note_backoff(self, wait):
        with self.lock:
            self.retries += 1
            self.backoff_seconds += wait

    def crash(self, context, exc):
        with self.lock:
            self.failed += 1
            self.errors.append("%s -> %r" % (context, exc))


def _timed(base, path, payload, tally):
    """One request through :func:`_request_with_backoff`, with its latency."""
    started = time.perf_counter()
    status, body = _request_with_backoff(base, "POST", path, payload, tally)
    return status, body, time.perf_counter() - started


def _percentile(values, fraction):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def _client(base, client_id, rounds, sweep_payload, importance_payload, tally, responses):
    stream = client_id % 2 == 1
    payload = dict(sweep_payload, stream=stream)
    kind = "stream" if stream else "sweep"
    for round_index in range(rounds):
        context = "client %d round %d" % (client_id, round_index)
        try:
            status, body, seconds = _timed(base, "/v1/sweep", payload, tally)
            tally.record(status, context + " sweep", kind, seconds)
            if status == 200:
                points = body if stream else body["points"]
                with tally.lock:
                    responses.append(sorted(points, key=lambda p: p["index"]))
        except Exception as exc:
            tally.crash(context + " sweep", exc)
        try:
            status, body, seconds = _timed(
                base, "/v1/importance", importance_payload, tally
            )
            tally.record(status, context + " importance", "importance", seconds)
            if status == 200:
                with tally.lock:
                    responses.append(body["ranking"])
        except Exception as exc:
            tally.crash(context + " importance", exc)


def _verify(args, sweep_responses, importance_responses):
    """Recompute the batch in-process (serial) and demand exact equality."""
    from repro.engine.service import SweepPoint, SweepService
    from repro.soc import benchmark_problem

    service = SweepService()
    points = [
        SweepPoint(
            benchmark_problem(
                args.benchmark, mean_defects=mean, clustering=args.clustering
            ),
            max_defects=args.max_defects,
        )
        for mean in args.densities
    ]
    expected = [
        (result.yield_estimate, result.error_bound, result.truncation)
        for result in service.evaluate_batch(points)
    ]
    importance_point = SweepPoint(
        benchmark_problem(
            args.benchmark,
            mean_defects=args.importance_mean,
            clustering=args.clustering,
        ),
        max_defects=args.max_defects,
    )
    gradients = service.gradient_batch([importance_point])[0]
    expected_ranking = [
        (name, value) for name, value in gradients.ranking()
    ]

    mismatches = 0
    for response in sweep_responses:
        got = [(p["yield"], p["error_bound"], p["truncation"]) for p in response]
        if got != expected:
            mismatches += 1
    for ranking in importance_responses:
        got = [(entry["component"], entry["sensitivity"]) for entry in ranking]
        if got != expected_ranking:
            mismatches += 1
    return mismatches


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--base-url",
        default=None,
        help="server to fire at; omit to boot an in-process server",
    )
    parser.add_argument("--benchmark", default="MS2")
    parser.add_argument(
        "--densities",
        type=float,
        nargs="+",
        default=[0.5 + 0.25 * i for i in range(4 if FAST else 8)],
        help="mean defect densities each sweep request asks for",
    )
    parser.add_argument("--clustering", type=float, default=4.0)
    parser.add_argument("--max-defects", type=int, default=3 if FAST else None)
    parser.add_argument("--importance-mean", type=float, default=2.0)
    parser.add_argument("--clients", type=int, default=3 if FAST else 8)
    parser.add_argument("--rounds", type=int, default=1 if FAST else 2)
    parser.add_argument(
        "--verify",
        action="store_true",
        help="recompute the batch in-process and demand bit-for-bit equality",
    )
    parser.add_argument(
        "--fail-on-reject",
        action="store_true",
        help="treat 429 backpressure responses as failures",
    )
    args = parser.parse_args(argv)

    handle = None
    if args.base_url is None:
        from repro.engine.service import SweepService
        from repro.server import serve_in_thread

        service = SweepService()
        handle = serve_in_thread(service)
        args.base_url = "http://%s:%d" % (handle.host, handle.port)
        print("self-serve: in-process server listening on %s" % args.base_url)
        if not args.verify:
            args.verify = True  # the self-contained demo always checks itself

    try:
        status, _, _ = _request(args.base_url, "GET", "/healthz", timeout=10.0)
        if status != 200:
            print("server at %s is not healthy (HTTP %d)" % (args.base_url, status))
            return 1
        return _run_burst(args)
    finally:
        if handle is not None:
            handle.stop()


def _run_burst(args):
    sweep_payload = {
        "benchmark": args.benchmark,
        "densities": args.densities,
        "clustering": args.clustering,
    }
    if args.max_defects is not None:
        sweep_payload["max_defects"] = args.max_defects
    importance_payload = {
        "benchmark": args.benchmark,
        "mean_defects": args.importance_mean,
        "clustering": args.clustering,
    }
    if args.max_defects is not None:
        importance_payload["max_defects"] = args.max_defects

    tally = Tally()
    responses = []
    started = time.perf_counter()
    threads = [
        threading.Thread(
            target=_client,
            args=(
                args.base_url,
                client_id,
                args.rounds,
                sweep_payload,
                importance_payload,
                tally,
                responses,
            ),
        )
        for client_id in range(args.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    total = tally.ok + tally.rejected + tally.failed
    print(
        "%d requests in %.2fs from %d clients: %d ok, %d rejected (429), %d failed"
        % (total, elapsed, args.clients, tally.ok, tally.rejected, tally.failed)
    )
    if tally.retries:
        print(
            "  backpressure: %d retries honoring Retry-After (%.2fs slept)"
            % (tally.retries, tally.backoff_seconds)
        )
    for line in tally.errors[:10]:
        print("  FAIL %s" % line)
    for kind, seconds in tally.latencies.items():
        if seconds:
            print(
                "  latency %-10s n=%-3d p50 %7.1f ms  p90 %7.1f ms  p99 %7.1f ms"
                % (
                    kind,
                    len(seconds),
                    *(1e3 * _percentile(seconds, q) for q in (0.5, 0.9, 0.99)),
                )
            )

    status, raw, _ = _request(args.base_url, "GET", "/stats", timeout=10.0)
    if status == 200:
        text = raw.decode("utf-8") if isinstance(raw, bytes) else str(raw)
        wanted = (
            "repro_service_structures_built",
            "repro_server_builds_started",
            "repro_server_coalesced_joins",
            "repro_server_rejected",
            "repro_server_requests ",
            "repro_server_request_seconds_count",
            "repro_server_request_seconds_sum",
        )
        for line in text.splitlines():
            if any(line.startswith(name) for name in wanted):
                print("  stat %s" % line)

    failed = tally.failed
    if args.fail_on_reject:
        failed += tally.rejected
    if args.verify:
        sweep_responses = [r for r in responses if r and isinstance(r[0], dict) and "yield" in r[0]]
        importance_responses = [
            r for r in responses if r and isinstance(r[0], dict) and "sensitivity" in r[0]
        ]
        mismatches = _verify(args, sweep_responses, importance_responses)
        print(
            "verify: %d sweep + %d importance responses against in-process serial "
            "evaluation -> %d mismatches"
            % (len(sweep_responses), len(importance_responses), mismatches)
        )
        failed += mismatches
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
