"""A ``workers > 1`` service runs every group in-process.  A group whose
structure it holds needs only its pass, which never waits for another
batch's fan-out; the structures it does not hold resolve on the fan-out
threads first.  (The pool's dispatch lock is gone; the tests keep their
names and check the property that lock was kept out of: a held pass does
not queue behind a cold batch.)
"""

import json
import threading
from http.client import HTTPConnection

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
    """A ``workers=2`` service holding the sweep's structure."""
    service = SweepService(workers=2, **kwargs)
    service.prime_structure(benchmark_problem(NAME, mean_defects=1.0), M)
    return service


def in_process(service):
    return service.registry.counter("dispatch.groups_in_process")


def run_during_a_fan_out(service, call):
    """Run ``call`` on a thread while another batch's fan-out is stuck in
    its builds; return its result, or fail if it waited for the fan-out."""
    analyzer = service._analyzer
    real = analyzer.compile_for_truncation
    entered, release = threading.Event(), threading.Event()

    def blocked(problem, truncation):
        entered.set()
        release.wait(60.0)
        return real(problem, truncation)

    analyzer.compile_for_truncation = blocked
    cold = sweep(0.5, 2) + sweep(0.5, 3)  # two unheld structures: a fan-out
    fan_out = threading.Thread(target=lambda: service.evaluate_batch(cold), daemon=True)
    fan_out.start()
    out = {}
    thread = threading.Thread(target=lambda: out.update(result=call()), daemon=True)
    try:
        assert entered.wait(30.0)
        thread.start()
        thread.join(30.0)
        finished = not thread.is_alive()
    finally:
        release.set()
        fan_out.join(60.0)
        del analyzer.compile_for_truncation
    thread.join(60.0)
    assert finished, "the in-process pass waited for the fan-out"
    return out["result"]


class TestHeldStructures:
    def test_a_warm_sweep_runs_in_process_outside_the_dispatch_lock(self, tmp_path):
        service = held(store_dir=str(tmp_path / "store"))
        points = sweep(0.0)
        results = run_during_a_fan_out(service, lambda: service.evaluate_batch(points))
        # only the cold batch fanned out; the warm sweep's one group was held
        assert service.registry.counter("service.batches.parallel") == 1
        assert in_process(service) == 1
        assert bits(results) == serial_bits(points)

    def test_a_single_point_runs_in_process_outside_the_dispatch_lock(self):
        service = held()
        problem = benchmark_problem(NAME, mean_defects=1.5)
        result = run_during_a_fan_out(
            service, lambda: service.evaluate(problem, max_defects=M)
        )
        assert in_process(service) == 1
        assert service.registry.counter("service.batches.parallel") == 1
        expected = SweepService().evaluate(problem, max_defects=M)
        assert bits([result]) == bits([expected])

    def test_unheld_structures_fan_out_whole_then_run_in_process(self, tmp_path):
        service = SweepService(workers=2, store_dir=str(tmp_path / "store"))
        # two structures (M = 3 and 4): one fan-out thread builds each
        cold = sweep(0.01, 3) + sweep(0.01)
        results = service.evaluate_batch(cold)
        assert service.registry.counter("service.batches.parallel") == 1
        assert in_process(service) == 0
        assert service.registry.counter("service.structures.built") == 2
        assert service.registry.counter("service.structures.reused") == 0
        assert bits(results) == serial_bits(cold)
        # the service kept both structures the fan-out built
        warm = sweep(0.02, 3) + sweep(0.02)
        results = service.evaluate_batch(warm)
        assert service.registry.counter("service.batches.parallel") == 1
        assert in_process(service) == 2
        assert service.registry.counter("service.structures.built") == 2
        assert bits(results) == serial_bits(warm)


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
    assert "repro_dispatch_groups_in_process 1" in text
