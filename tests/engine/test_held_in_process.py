"""A pooled service runs every group whose structure it holds in-process,
outside its dispatch lock, and sends the pool only whole groups it must
build.
"""

import json
import threading
from http.client import HTTPConnection

import pytest

from repro.cli import main
from repro.engine.service import SweepPoint, SweepService
from repro.server import serve_in_thread
from repro.soc import benchmark_problem

NAME, M = "ESEN4x1", 4
DENSITIES = [0.1 + 0.03 * index for index in range(96)]


def sweep(offset, truncation=M):
    return [
        SweepPoint(
            benchmark_problem(NAME, mean_defects=mean + offset), max_defects=truncation
        )
        for mean in DENSITIES
    ]


def bits(results):
    return [
        (r.yield_estimate, r.error_bound, r.probability_not_functioning, r.truncation)
        for r in results
    ]


def serial_bits(points):
    return bits(SweepService().evaluate_batch(points))


def held(**kwargs):
    """A default-configured pooled service holding the sweep's structure."""
    service = SweepService(workers=2, **kwargs)
    service.prime_structure(benchmark_problem(NAME, mean_defects=1.0), M)
    return service


def in_process(service):
    return service.registry.counter("dispatch.groups_in_process")


def run_holding_the_dispatch_lock(service, call):
    """Run ``call`` on a thread while this thread holds the dispatch lock;
    return its result, or fail if it waited for the lock."""
    out = {}
    with service._dispatch_lock:
        thread = threading.Thread(target=lambda: out.update(result=call()), daemon=True)
        thread.start()
        thread.join(30.0)
        finished = not thread.is_alive()
    thread.join(60.0)
    assert finished, "the in-process pass waited for the dispatch lock"
    return out["result"]


class TestHeldStructures:
    def test_a_warm_sweep_runs_in_process_outside_the_dispatch_lock(self, tmp_path):
        service = held(store_dir=str(tmp_path / "store"))
        try:
            points = sweep(0.0)
            results = run_holding_the_dispatch_lock(
                service, lambda: service.evaluate_batch(points)
            )
            assert service.registry.counter("service.batches.parallel") == 0
            assert service.registry.counter("dispatch.payload_bytes") == 0
            assert in_process(service) == 1
            assert bits(results) == serial_bits(points)
        finally:
            service.close()

    def test_a_single_point_runs_in_process_outside_the_dispatch_lock(self):
        service = held()
        try:
            problem = benchmark_problem(NAME, mean_defects=1.5)
            result = run_holding_the_dispatch_lock(
                service, lambda: service.evaluate(problem, max_defects=M)
            )
            assert in_process(service) == 1
            assert service.registry.counter("service.batches.parallel") == 0
            expected = SweepService().evaluate(problem, max_defects=M)
            assert bits([result]) == bits([expected])
        finally:
            service.close()

    def test_unheld_structures_fan_out_whole_then_run_in_process(self, tmp_path):
        service = SweepService(workers=2, store_dir=str(tmp_path / "store"))
        try:
            if service.ensure_workers() is None:
                pytest.skip("platform cannot spawn worker processes")
            # two structures (M = 3 and 4): the pool builds one each
            cold = sweep(0.01, 3) + sweep(0.01)
            results = service.evaluate_batch(cold)
            assert service.registry.counter("service.batches.parallel") == 1
            assert in_process(service) == 0
            assert bits(results) == serial_bits(cold)
            # the parent kept both worker-built structures
            warm = sweep(0.02, 3) + sweep(0.02)
            results = service.evaluate_batch(warm)
            assert service.registry.counter("service.batches.parallel") == 1
            assert in_process(service) == 2
            assert bits(results) == serial_bits(warm)
        finally:
            service.close()


def test_serial_services_count_no_decision():
    service = SweepService()
    service.evaluate_batch(sweep(0.05))
    assert "dispatch.groups_in_process" not in service.registry.snapshot()["counters"]


def test_sweep_stats_list_the_in_process_groups(tmp_path, capsys):
    argv = [
        "sweep", "MS2", "--densities", "1", "2", "--max-defects", "3",
        "--workers", "2", "--store-dir", str(tmp_path / "store"), "--stats",
    ]
    assert main(argv) == 0
    assert "dispatch.groups_in_process" in capsys.readouterr().out


def test_served_stats_list_the_in_process_groups(tmp_path):
    service = held(store_dir=str(tmp_path / "store"))
    handle = serve_in_thread(service)
    try:
        sweep_request = {"benchmark": NAME, "densities": [1, 2], "max_defects": M}
        exchanges = [("POST", "/v1/sweep", sweep_request), ("GET", "/stats", None)]
        for method, path, payload in exchanges:
            conn = HTTPConnection(handle.host, handle.port, timeout=60)
            try:
                body = None if payload is None else json.dumps(payload).encode()
                conn.request(method, path, body=body)
                response = conn.getresponse()
                text = response.read().decode()
                assert response.status == 200, text
            finally:
                conn.close()
    finally:
        handle.stop()
        service.close()
    assert "repro_dispatch_groups_in_process 1" in text
