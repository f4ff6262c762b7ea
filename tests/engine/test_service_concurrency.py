"""Concurrency-safety of :class:`SweepService`: the serving prerequisites.

The HTTP front end shares one service between many threads, so the
service's caches, stats and pool lifecycle must hold up under concurrent
callers — and its fault plan must stay scoped to the instance instead of
leaking process-wide.  Every test here pins one of those properties.
"""

import sys
import threading

import pytest

from repro.core.problem import YieldProblem
from repro.distributions import ComponentDefectModel, PoissonDefectDistribution
from repro.engine import faults
from repro.engine.faults import FaultPlan
from repro.engine.service import SweepPoint, SweepService, result_key
from repro.faulttree import FaultTreeBuilder


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
            # distinct defect models (distinct result keys) so no thread
            # is served from the result cache — they all need the one
            # structure at the same time
            point = SweepPoint(make_problem(0.5 + 0.01 * index), max_defects=3)
            results[index] = service.evaluate_batch([point])[0].yield_estimate

        run_threads(worker, 8)
        assert len(results) == 8
        assert service.registry.counter("service.structures.built") == 1
        assert service.registry.counter("service.points.evaluated") == 8

    def test_concurrent_ensure_workers_spawns_one_pool(self):
        service = SweepService(workers=2)
        pools = [None] * 8

        def worker(index):
            pools[index] = service.ensure_workers()

        try:
            run_threads(worker, 8)
            spawned = {id(pool) for pool in pools if pool is not None}
            if not spawned:
                pytest.skip("platform cannot spawn worker processes")
            assert len(spawned) == 1
        finally:
            service.close()


class TestAtomicStats:
    def test_concurrent_increments_never_lose_updates(self):
        service = SweepService()
        batches, threads = 250, 8

        def worker(index):
            # every thread asks for densities no other thread asks for, so
            # each point misses the caches and is evaluated exactly once;
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


class TestScopedFaultPlans:
    def test_constructor_no_longer_installs_a_process_global_plan(self):
        faults.clear()
        try:
            plan = FaultPlan.from_spec({"shard.unpickle": 1})
            service = SweepService(fault_plan=plan)
            assert faults.active() is None
            service.close()
            assert faults.active() is None
        finally:
            faults.clear()

    def test_two_services_keep_their_plans_apart(self, tmp_path):
        """A's plan fires in A only; B sees neither faults nor counters."""
        faults.clear()
        store_a = str(tmp_path / "store-a")
        store_b = str(tmp_path / "store-b")
        # store.corrupt fires on every store read: any load A performs is
        # damaged (then detected, quarantined and rebuilt) while B's
        # loads — concurrent, same process — must stay clean
        plan = FaultPlan.from_spec({"store.corrupt": {"every": 1}})
        service_a = SweepService(fault_plan=plan, store_dir=store_a)
        service_b = SweepService(store_dir=store_b)
        try:
            point = SweepPoint(make_problem(1.0), max_defects=3)
            reference = SweepService()
            baselines = {
                index: reference.evaluate_batch(
                    [SweepPoint(make_problem(1.0 + 0.01 * (index + 1)),
                                max_defects=3)]
                )[0].yield_estimate
                for index in range(2)
            }
            reference.close()

            def warm_and_reload(service, out, index):
                service.evaluate_batch([point])  # build + persist
                service.clear()  # drop the memory LRU, keep the store
                fresh = SweepPoint(make_problem(1.0 + 0.01 * (index + 1)),
                                   max_defects=3)
                out[index] = service.evaluate_batch([fresh])

            outcomes = {}
            run_threads(
                lambda i: warm_and_reload(service_a if i == 0 else service_b,
                                          outcomes, i),
                2,
            )
            # injected store damage must not change either service's answer
            for index in range(2):
                assert outcomes[index][0].yield_estimate == baselines[index]
            injected_a = service_a.registry.counter("fault.injected.store.corrupt")
            injected_b = service_b.registry.counter("fault.injected.store.corrupt")
            assert injected_a >= 1
            assert injected_b == 0
            # the calling thread never saw either plan outside the scopes
            assert faults.active() is None
        finally:
            service_a.close()
            service_b.close()
            faults.clear()


class TestZeroProbabilityCaching:
    """A cached entry is ``(P(G = 1), StructureRecord)``: a probability of
    exactly 0.0 must still be a hit, since lookups compare against a miss
    sentinel rather than the stored value's truth."""

    def test_cached_zero_is_a_hit(self):
        problem = make_problem(1.0)
        primer = SweepService()
        (columns,) = primer.evaluate_groups(primer.group([problem], [3]))
        service = SweepService()
        rkey = result_key(problem, 3, service.ordering)
        service._remember_results([(rkey, (0.0, columns.records[0]))])

        (result,) = service.evaluate_batch([SweepPoint(problem, max_defects=3)])
        assert result.probability_not_functioning == 0.0
        assert result.yield_estimate == 1.0
        assert service.density_sweep(lambda mean: problem, [1.0], max_defects=3) == [
            (1.0, 1.0, 3)
        ]
        assert service.registry.counter("service.cache.result_hits") == 2
        assert service.registry.counter("service.points.evaluated") == 0
        assert service.registry.counter("service.structures.built") == 0
