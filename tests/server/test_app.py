"""Integration tests of the HTTP front end over a real ``SweepService``.

Every test starts the actual asyncio server on an ephemeral port
(:func:`repro.server.serve_in_thread`) and talks real HTTP through
``http.client`` — the same path production clients use.
"""

import json
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.engine.service import SweepPoint, SweepService
from repro.server import serve_in_thread
from repro.soc import benchmark_problem

BENCH = "MS2"
DENSITIES = [0.5, 1.0, 1.5, 2.0]


def request(handle, method, path, payload=None, timeout=120.0):
    conn = HTTPConnection(handle.host, handle.port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        return response, raw
    finally:
        conn.close()


def get_json(handle, path):
    response, raw = request(handle, "GET", path)
    return response.status, json.loads(raw)


def post_json(handle, path, payload, timeout=120.0):
    response, raw = request(handle, "POST", path, payload, timeout=timeout)
    kind = (response.getheader("Content-Type") or "").split(";")[0]
    if kind == "application/x-ndjson":
        decoded = [json.loads(line) for line in raw.splitlines() if line.strip()]
    else:
        decoded = json.loads(raw)
    return response, decoded


def counter_from_stats(handle, name):
    _, raw = request(handle, "GET", "/stats")
    for line in raw.decode().splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    return 0.0


@pytest.fixture
def served():
    service = SweepService()
    handle = serve_in_thread(service)
    yield service, handle
    handle.stop()
    service.close()


def serial_reference(densities=DENSITIES, max_defects=3):
    service = SweepService()
    try:
        points = [
            SweepPoint(benchmark_problem(BENCH, mean_defects=m), max_defects=max_defects)
            for m in densities
        ]
        return [
            (r.yield_estimate, r.error_bound, r.truncation)
            for r in service.evaluate_batch(points)
        ]
    finally:
        service.close()


class TestEndpoints:
    def test_healthz(self, served):
        _, handle = served
        status, payload = get_json(handle, "/healthz")
        assert status == 200
        assert payload == {"status": "ok"}

    def test_stats_exposes_the_service_registry(self, served):
        _, handle = served
        post_json(
            handle,
            "/v1/sweep",
            {"benchmark": BENCH, "densities": [1.0], "max_defects": 3},
        )
        response, raw = request(handle, "GET", "/stats")
        assert response.status == 200
        assert response.getheader("Content-Type").startswith("text/plain")
        text = raw.decode()
        assert "repro_server_requests" in text
        assert "repro_service_structures_built 1" in text

    def test_unknown_path_is_404(self, served):
        _, handle = served
        status, payload = get_json(handle, "/nope")
        assert status == 404
        assert payload["status"] == 404

    def test_wrong_method_is_405(self, served):
        _, handle = served
        response, _ = request(handle, "GET", "/v1/sweep")
        assert response.status == 405
        assert response.getheader("Allow") == "POST"

    def test_malformed_json_is_400(self, served):
        _, handle = served
        conn = HTTPConnection(served[1].host, served[1].port, timeout=30)
        try:
            conn.request("POST", "/v1/sweep", body=b"{nope",
                         headers={"Content-Type": "application/json"})
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_unknown_benchmark_is_400(self, served):
        _, handle = served
        response, payload = post_json(
            handle, "/v1/sweep", {"benchmark": "NOPE", "densities": [1.0]}
        )
        assert response.status == 400
        assert "unknown benchmark" in payload["error"]

    def test_missing_densities_is_400(self, served):
        _, handle = served
        response, _ = post_json(handle, "/v1/sweep", {"benchmark": BENCH})
        assert response.status == 400

    def test_importance_unknown_benchmark_is_400(self, served):
        _, handle = served
        response, payload = post_json(
            handle, "/v1/importance", {"benchmark": "NOPE", "max_defects": 3}
        )
        assert response.status == 400
        assert "unknown benchmark" in payload["error"]

    @pytest.mark.parametrize("clustering", ["dense", -1.0, None])
    def test_importance_invalid_clustering_is_400(self, served, clustering):
        service, handle = served
        response, payload = post_json(
            handle,
            "/v1/importance",
            {"benchmark": BENCH, "clustering": clustering, "max_defects": 3},
        )
        assert response.status == 400
        assert "invalid importance parameters" in payload["error"]
        # rejected before any structure was built
        assert service.registry.counter("service.structures.built") == 0

    def test_problems_are_built_off_the_event_loop(self, served, monkeypatch):
        import repro.soc

        threads = []
        build = repro.soc.benchmark_problem

        def recording(*args, **kwargs):
            threads.append(threading.current_thread().name)
            return build(*args, **kwargs)

        monkeypatch.setattr(repro.soc, "benchmark_problem", recording)
        _, handle = served
        response, _ = post_json(
            handle, "/v1/sweep", {"benchmark": BENCH, "densities": [1.0], "max_defects": 3}
        )
        assert response.status == 200
        response, _ = post_json(
            handle, "/v1/importance", {"benchmark": BENCH, "max_defects": 3}
        )
        assert response.status == 200
        assert len(threads) == 2
        # the executor's threads, never the loop's ("repro-server")
        assert all(name.startswith("repro-http") for name in threads)


class TestSweepCorrectness:
    def test_sweep_is_bit_identical_to_the_serial_service(self, served):
        _, handle = served
        response, payload = post_json(
            handle,
            "/v1/sweep",
            {"benchmark": BENCH, "densities": DENSITIES, "max_defects": 3},
        )
        assert response.status == 200
        got = [
            (p["yield"], p["error_bound"], p["truncation"]) for p in payload["points"]
        ]
        assert got == serial_reference()
        assert [p["mean_defects"] for p in payload["points"]] == DENSITIES

    def test_streaming_matches_the_fixed_response(self, served):
        _, handle = served
        _, fixed = post_json(
            handle,
            "/v1/sweep",
            {"benchmark": BENCH, "densities": DENSITIES, "max_defects": 3},
        )
        response, lines = post_json(
            handle,
            "/v1/sweep",
            {
                "benchmark": BENCH,
                "densities": DENSITIES,
                "max_defects": 3,
                "stream": True,
            },
        )
        assert response.status == 200
        assert response.getheader("Transfer-Encoding") == "chunked"
        by_index = sorted(lines, key=lambda line: line["index"])
        assert [l["yield"] for l in by_index] == [
            p["yield"] for p in fixed["points"]
        ]

    def test_importance_matches_the_in_process_gradients(self, served):
        service, handle = served
        response, payload = post_json(
            handle,
            "/v1/importance",
            {"benchmark": BENCH, "mean_defects": 2.0, "max_defects": 3},
        )
        assert response.status == 200
        reference = SweepService()
        try:
            gradients = reference.gradient_batch(
                [
                    SweepPoint(
                        benchmark_problem(BENCH, mean_defects=2.0), max_defects=3
                    )
                ]
            )[0]
        finally:
            reference.close()
        expected = [
            {"component": name, "sensitivity": value}
            for name, value in gradients.ranking()
        ]
        assert payload["ranking"] == expected


class TestCoalescing:
    def test_concurrent_same_key_requests_build_once(self):
        service = SweepService()
        real_prime = service.prime_structure

        def slow_prime(problem, truncation, skey=None):
            # hold the build long enough that every concurrent request
            # arrives while it is still in flight
            time.sleep(0.5)
            return real_prime(problem, truncation, skey)

        service.prime_structure = slow_prime
        handle = serve_in_thread(service)
        try:
            clients = 6
            payload = {"benchmark": BENCH, "densities": [1.0], "max_defects": 3}
            statuses, yields = [], []
            barrier = threading.Barrier(clients)

            def client():
                barrier.wait(timeout=30)
                response, decoded = post_json(handle, "/v1/sweep", payload)
                statuses.append(response.status)
                if response.status == 200:
                    yields.append(decoded["points"][0]["yield"])

            threads = [threading.Thread(target=client) for _ in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)

            assert statuses == [200] * clients
            assert len(set(yields)) == 1  # all N receive identical results
            assert counter_from_stats(handle, "repro_service_structures_built") == 1
            assert counter_from_stats(handle, "repro_server_builds_started") == 1
            assert (
                counter_from_stats(handle, "repro_server_coalesced_joins")
                == clients - 1
            )
        finally:
            handle.stop()
            service.close()


class TestNodeBudget:
    def test_over_budget_build_is_422_for_builder_and_joiners(self):
        service = SweepService(node_limit=100)
        real_prime = service.prime_structure
        evaluated = []

        def slow_prime(problem, truncation, skey=None):
            time.sleep(0.5)  # every client joins the one in-flight build
            return real_prime(problem, truncation, skey)

        real_batch = service.evaluate_batch

        def recording_batch(points):
            evaluated.append(len(points))
            return real_batch(points)

        service.prime_structure = slow_prime
        service.evaluate_batch = recording_batch
        handle = serve_in_thread(service)
        try:
            clients = 3
            payload = {"benchmark": BENCH, "densities": [1.0], "max_defects": 3}
            outcomes = []
            barrier = threading.Barrier(clients)

            def client():
                barrier.wait(timeout=30)
                outcomes.append(post_json(handle, "/v1/sweep", payload))

            threads = [threading.Thread(target=client) for _ in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)

            assert [response.status for response, _ in outcomes] == [422] * clients
            assert all("node budget" in body["error"] for _, body in outcomes)
            assert evaluated == []  # rejected before any evaluation
            assert counter_from_stats(handle, "repro_server_over_budget") == clients
            assert counter_from_stats(handle, "repro_server_builds_started") == 1
            assert counter_from_stats(handle, "repro_server_coalesced_joins") == clients - 1
            assert counter_from_stats(handle, "repro_server_errors") == 0
        finally:
            handle.stop()
            service.close()

    def test_serve_budgets_its_service(self, monkeypatch):
        from repro import cli
        from repro.server import app

        seen = {}

        class Stop(Exception):
            pass

        def fake_service(**options):
            seen.update(options)
            raise Stop

        monkeypatch.setattr("repro.engine.service.SweepService", fake_service)
        with pytest.raises(Stop):
            cli.main(["serve", "--port", "0"])
        assert seen["node_limit"] == app.SERVE_NODE_BUDGET == 2_000_000


class TestRequestBounds:
    """Oversized requests are 422 before the engine does their work."""

    @pytest.fixture
    def recorded(self, served, monkeypatch):
        import repro.soc

        built = []
        real = repro.soc.benchmark_problem

        def recording(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(repro.soc, "benchmark_problem", recording)
        return served + (built,)

    def test_the_bounds_cover_the_paper(self):
        from repro.server import app

        assert app.MAX_SERVED_TRUNCATION >= 10  # the paper's largest M
        assert app.MAX_SWEEP_DENSITIES >= 96

    def test_too_many_densities_are_422_before_any_problem(self, recorded):
        from repro.server.app import MAX_SWEEP_DENSITIES

        service, handle, built = recorded
        densities = [1.0] * (MAX_SWEEP_DENSITIES + 1)
        response, payload = post_json(
            handle, "/v1/sweep", {"benchmark": BENCH, "densities": densities, "max_defects": 3}
        )
        assert response.status == 422
        assert "densities" in payload["error"]
        assert built == []
        assert service.registry.counter("service.points.requested") == 0
        assert counter_from_stats(handle, "repro_server_over_densities") == 1

    @pytest.mark.parametrize("path", ["/v1/sweep", "/v1/importance"])
    def test_max_defects_over_the_maximum_is_422_before_any_problem(self, recorded, path):
        from repro.server.app import MAX_SERVED_TRUNCATION

        service, handle, built = recorded
        body = {"benchmark": BENCH, "densities": [1.0], "max_defects": MAX_SERVED_TRUNCATION + 1}
        response, payload = post_json(handle, path, body)
        assert response.status == 422
        assert "truncation level" in payload["error"]
        assert built == []
        assert service.registry.counter("service.structures.built") == 0
        assert counter_from_stats(handle, "repro_server_over_truncation") == 1

    @pytest.mark.parametrize("path", ["/v1/sweep", "/v1/importance"])
    def test_epsilon_resolving_over_the_maximum_is_422_before_any_build(self, recorded, path):
        from repro.server.app import MAX_SERVED_TRUNCATION

        service, handle, built = recorded
        mean, epsilon = 20.0, 1e-12
        point = SweepPoint(benchmark_problem(BENCH, mean_defects=mean), epsilon=epsilon)
        assert service.resolve_point(point)[1] > MAX_SERVED_TRUNCATION
        body = {"benchmark": BENCH, "densities": [mean], "mean_defects": mean, "epsilon": epsilon}
        response, payload = post_json(handle, path, body)
        assert response.status == 422
        assert "truncation level" in payload["error"]
        assert service.registry.counter("service.structures.built") == 0
        assert service.registry.counter("service.points.requested") == 0
        assert counter_from_stats(handle, "repro_server_over_truncation") == 1

    @pytest.mark.parametrize(
        "bad",
        [
            {"max_defects": -1},
            {"max_defects": "many"},
            {"max_defects": float("inf")},
            {"epsilon": 0},
            {"epsilon": 1e-300},
        ],
    )
    def test_invalid_truncation_parameters_are_400(self, served, bad):
        service, handle = served
        body = dict({"benchmark": BENCH, "densities": [1.0]}, **bad)
        response, payload = post_json(handle, "/v1/sweep", body)
        assert response.status == 400
        assert "invalid sweep parameters" in payload["error"]
        assert service.registry.counter("service.structures.built") == 0
        assert counter_from_stats(handle, "repro_server_errors") == 0


class TestAdmissionControl:
    def test_overflow_gets_429_and_never_touches_the_service(self):
        service = SweepService()
        release = threading.Event()
        entered = threading.Event()
        real_evaluate = service.evaluate_batch

        def blocking_evaluate(points):
            entered.set()
            release.wait(timeout=60)
            return real_evaluate(points)

        service.evaluate_batch = blocking_evaluate
        handle = serve_in_thread(service, max_queue=1)
        try:
            payload = {"benchmark": BENCH, "densities": [1.0], "max_defects": 3}
            first_result = {}

            def occupant():
                response, decoded = post_json(handle, "/v1/sweep", payload)
                first_result["status"] = response.status

            thread = threading.Thread(target=occupant)
            thread.start()
            assert entered.wait(60), "first request never reached the service"

            requested_before = float(service.registry.counter("service.points.requested"))
            response, decoded = post_json(handle, "/v1/sweep", payload)
            assert response.status == 429
            assert response.getheader("Retry-After") == "1"
            assert "too many in-flight requests" in decoded["error"]
            # the rejected request performed no service work at all
            assert float(service.registry.counter("service.points.requested")) == requested_before
            assert counter_from_stats(handle, "repro_server_rejected") == 1

            release.set()
            thread.join(120)
            assert first_result["status"] == 200
        finally:
            release.set()
            handle.stop()
            service.close()


class TestDegradedHealth:
    """``/healthz`` distinguishes "up" from "well" (still HTTP 200)."""

    def test_recent_pool_respawn_reports_degraded(self, served):
        import time

        service, handle = served
        service._last_respawn = time.time()
        status, payload = get_json(handle, "/healthz")
        assert status == 200
        assert payload["status"] == "degraded"
        assert "respawned" in payload["reason"]

    def test_old_respawn_is_healthy_again(self, served):
        import time

        service, handle = served
        service._last_respawn = time.time() - 3600.0
        status, payload = get_json(handle, "/healthz")
        assert status == 200
        assert payload == {"status": "ok"}


class TestResilience:
    def test_healthz_stays_green_through_a_worker_kill(self):
        service = SweepService(workers=2)
        handle = serve_in_thread(service)
        try:
            # a served request primes its structures and runs in-process, so
            # the pool's work comes from a batch on two structures the
            # service does not hold: one whole-group job each
            cold = [
                SweepPoint(benchmark_problem(BENCH, mean_defects=m), max_defects=t)
                for t in (4, 5)
                for m in DENSITIES
            ]
            before = service.evaluate_batch(cold)
            if service.registry.counter("service.batches.parallel") == 0:
                pytest.skip("platform cannot spawn worker processes")
            assert [r.yield_estimate for r in before] == [
                r.yield_estimate for r in SweepService().evaluate_batch(cold)
            ]

            pool = service.ensure_workers()
            import os
            import signal

            os.kill(pool._pool[0].pid, signal.SIGKILL)

            status, health = get_json(handle, "/healthz")
            assert status == 200 and health["status"] == "ok"
            # a fresh benchmark forces real evaluation work after the kill
            response, after = post_json(
                handle,
                "/v1/sweep",
                {"benchmark": BENCH, "densities": [3.0], "max_defects": 3},
            )
            assert response.status == 200
            reference = serial_reference(densities=[3.0])
            assert [
                (p["yield"], p["error_bound"], p["truncation"])
                for p in after["points"]
            ] == reference
        finally:
            handle.stop()
            service.close()

    def test_drain_turns_healthz_unhealthy_and_rejects_new_work(self):
        service = SweepService()
        handle = serve_in_thread(service, drain_grace=0.5)
        try:
            status, _ = get_json(handle, "/healthz")
            assert status == 200
        finally:
            handle.stop()
            service.close()
        # the listener is gone after the drain completes
        with pytest.raises(OSError):
            request(handle, "GET", "/healthz", timeout=2.0)


class TestServeCli:
    def test_parser_accepts_the_serve_options(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve",
                "--host", "0.0.0.0",
                "--port", "8123",
                "--workers", "2",
                "--max-queue", "16",
                "--http-threads", "4",
                "--drain-grace", "3.5",
                "--store-dir", "/tmp/store",
                "--cache-dir", "/tmp/cache",
                "--epsilon", "1e-5",
            ]
        )
        assert args.command == "serve"
        assert args.host == "0.0.0.0"
        assert args.port == 8123
        assert args.workers == 2
        assert args.max_queue == 16
        assert args.http_threads == 4
        assert args.drain_grace == 3.5
        assert args.epsilon == 1e-5
