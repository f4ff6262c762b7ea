"""Concurrency-safety of :class:`SweepService`: the serving prerequisites.

The HTTP front end shares one service between many threads, so the
service's structure LRU, stats and build fan-out must hold up under concurrent
callers — and damage in one service's store must stay in that service.
Every test here pins one of those properties.
"""

import sys
import threading

import pytest

from repro.core.problem import YieldProblem
from repro.distributions import ComponentDefectModel, PoissonDefectDistribution
from repro.engine.service import SweepPoint, SweepService
from repro.faulttree import FaultTreeBuilder
from tests.engine.test_faults import truncate_largest_array


def build_tree():
    ft = FaultTreeBuilder("conc-tmr")
    ft.set_top(ft.k_out_of_n_failed(2, ["M1", "M2", "M3"]))
    return ft.build()


TREE = build_tree()


def make_problem(mean_defects):
    model = ComponentDefectModel.uniform(["M1", "M2", "M3"], lethality=0.8)
    distribution = PoissonDefectDistribution(mean=mean_defects)
    return YieldProblem(TREE, model, distribution, name="conc-tmr")


MEANS = [0.3 + 0.1 * i for i in range(12)]


def run_threads(worker, count):
    """Start ``count`` threads on ``worker(thread_index)``; re-raise failures."""
    errors = []
    barrier = threading.Barrier(count)

    def body(index):
        try:
            barrier.wait(timeout=30)
            worker(index)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    if errors:
        raise errors[0]


class TestThreadedEvaluation:
    def test_concurrent_batches_agree_bitwise_with_serial(self):
        serial = SweepService()
        points = [SweepPoint(make_problem(m), max_defects=3) for m in MEANS]
        expected = [r.yield_estimate for r in serial.evaluate_batch(points)]

        shared = SweepService()
        outputs = {}

        def worker(index):
            # every thread sweeps the full batch, rotated so threads hit
            # the caches in different orders
            rotated = points[index:] + points[:index]
            results = shared.evaluate_batch(rotated)
            outputs[index] = [r.yield_estimate for r in results]

        run_threads(worker, 6)
        for index, values in outputs.items():
            assert values == expected[index:] + expected[:index]
        # one structure key (same tree / truncation / ordering): however
        # the threads interleave, the structure is compiled exactly once
        assert shared.registry.counter("service.structures.built") == 1

    def test_concurrent_same_key_callers_share_one_build(self):
        service = SweepService()
        results = {}

        def worker(index):
            # distinct defect models that all need the one structure at
            # the same time
            point = SweepPoint(make_problem(0.5 + 0.01 * index), max_defects=3)
            results[index] = service.evaluate_batch([point])[0].yield_estimate

        run_threads(worker, 8)
        assert len(results) == 8
        assert service.registry.counter("service.structures.built") == 1
        assert service.registry.counter("service.points.evaluated") == 8

    @pytest.mark.parametrize("route", ["native", "no-compiler"])
    def test_concurrent_fan_out_batches_build_each_structure_once(
        self, route, tmp_path, monkeypatch
    ):
        """Four threads send overlapping cold multi-structure batches to one
        ``workers=2`` service: every distinct key is built exactly once,
        every row equals a serial service's, and no fan-out thread outlives
        the calls.  Without a compiler the gate loop holds the GIL, so the
        builds serialize, with the same outcome."""
        from repro.engine import native
        from repro.soc import benchmark_problem

        if route == "no-compiler":
            monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
            monkeypatch.setenv("CC", "/nonexistent")
            native.reset()
        try:
            structures = [("MS2", 3), ("MS2", 4), ("ESEN4x1", 3), ("ESEN4x1", 4)]
            batches = [
                [
                    SweepPoint(
                        benchmark_problem(name, mean_defects=0.5 + 0.01 * (4 * index + k)),
                        max_defects=truncation,
                    )
                    for name, truncation in structures[index : index + 2]
                    + structures[(index + 3) % 4 : (index + 3) % 4 + 1]
                    for k in range(4)
                ]
                for index in range(4)
            ]
            expected = {
                index: [r.yield_estimate for r in SweepService().evaluate_batch(batch)]
                for index, batch in enumerate(batches)
            }
            service = SweepService(workers=2)
            outputs = {}

            def worker(index):
                results = service.evaluate_batch(batches[index])
                outputs[index] = [r.yield_estimate for r in results]

            run_threads(worker, 4)
        finally:
            native.reset()
        assert outputs == expected
        assert service.registry.counter("service.structures.built") == len(structures)
        assert service.registry.counter("service.batches.parallel") >= 1
        assert not [
            thread
            for thread in threading.enumerate()
            if thread.name.startswith("repro-fanout")
        ]


class TestAtomicStats:
    def test_concurrent_increments_never_lose_updates(self):
        service = SweepService()
        batches, threads = 250, 8

        def worker(index):
            # every thread asks for densities no other thread asks for;
            # one-point batches make the most counter updates per second
            for batch in range(batches):
                mean = 0.1 + 0.0001 * (index * batches + batch)
                service.evaluate_batch([SweepPoint(make_problem(mean), max_defects=2)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often: races show sooner
        try:
            run_threads(worker, threads)
        finally:
            sys.setswitchinterval(interval)
        total = batches * threads
        assert service.registry.counter("service.points.requested") == total
        assert service.registry.counter("service.points.evaluated") == total
        assert service.registry.counter("service.passes.batched") == total


class TestStoreDamageIsolation:
    def test_damage_stays_in_its_own_service(self, tmp_path):
        """Two services with two stores on two threads; A's entry is
        truncated on disk between its save and its reload.  A detects the
        damage, B counts no fault, and both answer bit-equal to serial."""
        stores = [str(tmp_path / "store-a"), str(tmp_path / "store-b")]
        services = [SweepService(store_dir=store) for store in stores]
        point = SweepPoint(make_problem(1.0), max_defects=3)
        fresh = [
            SweepPoint(make_problem(1.0 + 0.01 * (index + 1)), max_defects=3)
            for index in range(2)
        ]
        reference = SweepService()
        baselines = {
            index: reference.evaluate_batch([fresh[index]])[0].yield_estimate
            for index in range(2)
        }
        outcomes = {}

        def warm_and_reload(index):
            service = services[index]
            service.evaluate_batch([point])  # build + persist
            service.clear()  # drop the memory LRU, keep the store
            if index == 0:
                truncate_largest_array(stores[0])
            outcomes[index] = service.evaluate_batch([fresh[index]])[0].yield_estimate

        run_threads(warm_and_reload, 2)
        assert outcomes == baselines
        assert services[0].registry.counter("fault.store_corrupt") == 1
        assert services[1].registry.counters_with_prefix("fault.") == {}
