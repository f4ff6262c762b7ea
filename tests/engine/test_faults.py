"""Fault-tolerant dispatch: every injected fault class must be absorbed.

The deterministic fault harness (:mod:`repro.engine.faults`) fires at
well-known sites; the supervision layer (:mod:`repro.engine.supervise`)
must turn every fault into retries, respawns or in-parent quarantine —
the sweep results stay **bit-for-bit identical** to a clean run, and every
transition is visible in the ``fault.*`` / ``retry.*`` / ``supervise.*``
metrics.  The end-to-end runs evaluate two structure groups the service
does not hold, so each batch goes to the pool as two whole-group jobs.
"""

import pytest

from repro.core.problem import YieldProblem
from repro.distributions import ComponentDefectModel, PoissonDefectDistribution
from repro.engine import faults
from repro.engine.faults import PLAN_ENV, FaultPlan, InjectedFault
from repro.engine.service import SweepPoint, SweepService
from repro.engine.supervise import Backoff, ShardSupervisor
from repro.faulttree import FaultTreeBuilder


def build_tree():
    ft = FaultTreeBuilder("faults-tmr")
    ft.set_top(ft.k_out_of_n_failed(2, ["M1", "M2", "M3"]))
    return ft.build()


TREE = build_tree()


def make_problem(mean_defects):
    model = ComponentDefectModel.uniform(["M1", "M2", "M3"], lethality=0.8)
    distribution = PoissonDefectDistribution(mean=mean_defects)
    return YieldProblem(TREE, model, distribution, name="faults-tmr")


DENSITIES = [0.2 + 0.05 * index for index in range(48)]


@pytest.fixture(autouse=True)
def _no_leaked_plan(monkeypatch):
    """Fault plans are process-global state: never leak one across tests."""
    monkeypatch.delenv(PLAN_ENV, raising=False)
    faults.clear()
    yield
    faults.clear()


# --------------------------------------------------------------------- #
# The harness itself
# --------------------------------------------------------------------- #


class TestFaultPlan:
    def test_spec_forms_int_list_and_dict(self):
        plan = FaultPlan.from_spec(
            {
                "worker.kill": 2,
                "shard.unpickle": [1, 3],
                "worker.hang": {"at": [1], "delay": 0.5},
                "store.corrupt": {"every": 2},
            }
        )
        assert plan.check("worker.kill") is None  # occurrence 1
        assert plan.check("worker.kill") is not None  # occurrence 2
        assert plan.check("shard.unpickle") is not None  # 1
        assert plan.check("shard.unpickle") is None  # 2
        assert plan.check("shard.unpickle") is not None  # 3
        assert plan.check("worker.hang").delay == 0.5
        assert plan.check("store.corrupt") is None  # 1
        assert plan.check("store.corrupt") is not None  # every 2nd

    def test_unknown_site_is_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan.from_spec({"worker.explode": 1})

    def test_json_round_trip(self):
        plan = FaultPlan.from_spec(
            {"worker.kill": [1], "worker.hang": {"at": [2], "delay": 3.0}}
        )
        again = FaultPlan.from_json(plan.to_json())
        assert again.to_json() == plan.to_json()

    def test_reset_restarts_the_occurrence_counters(self):
        plan = FaultPlan.from_spec({"shard.unpickle": 1})
        assert plan.check("shard.unpickle") is not None
        assert plan.check("shard.unpickle") is None
        plan.reset()
        assert plan.check("shard.unpickle") is not None

    def test_env_var_installs_a_plan(self, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, '{"shard.unpickle": {"at": [1]}}')
        faults.clear()  # force re-resolution of the env var
        plan = faults.active()
        assert plan is not None
        with pytest.raises(InjectedFault):
            faults.fire("shard.unpickle")

    def test_malformed_env_var_is_ignored(self, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, "{not json")
        faults.clear()
        assert faults.active() is None

    def test_fire_without_a_plan_is_free_and_false(self):
        faults.install(None)
        assert faults.fire("store.corrupt") is False

    def test_injected_fault_survives_pickling(self):
        # a worker->parent exception that cannot unpickle kills the
        # pool's result-handler thread; InjectedFault must round-trip
        import pickle

        exc = pickle.loads(pickle.dumps(InjectedFault("shard.unpickle", 3)))
        assert exc.site == "shard.unpickle"
        assert exc.occurrence == 3


class TestBackoff:
    def test_delays_grow_exponentially_and_cap(self):
        backoff = Backoff(base=0.1, factor=2.0, cap=0.5, seed=7)
        delays = [backoff.delay(attempt) for attempt in range(1, 6)]
        # jitter is in [0.5, 1.0] x the full delay
        assert 0.05 <= delays[0] <= 0.1
        assert 0.1 <= delays[1] <= 0.2
        assert all(delay <= 0.5 for delay in delays)

    def test_same_seed_reproduces_the_sequence(self):
        a = [Backoff(seed=3).delay(n) for n in range(1, 6)]
        b = [Backoff(seed=3).delay(n) for n in range(1, 6)]
        assert a == b
        c = [Backoff(seed=4).delay(n) for n in range(1, 6)]
        assert a != c

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            Backoff(base=-1)
        with pytest.raises(ValueError):
            Backoff(factor=0.5)


# --------------------------------------------------------------------- #
# End-to-end: every fault class yields bit-identical sweep results
# --------------------------------------------------------------------- #


def sweep_points():
    """Two structure groups (M = 3 and 4) over the same densities."""
    return [
        SweepPoint(make_problem(mean), max_defects=truncation)
        for truncation in (3, 4)
        for mean in DENSITIES
    ]


def rows_of(results):
    return [
        (r.yield_estimate, r.error_bound, r.probability_not_functioning, r.truncation)
        for r in results
    ]


def run_sweep(tmp_path, name, fault_plan=None, warm=False, **kwargs):
    """One pooled sweep over the two groups; ``warm`` first commits both
    structures to the store, so the workers load them instead of building."""
    faults.clear()
    store_dir = str(tmp_path / name)
    if warm:
        SweepService(store_dir=store_dir).evaluate_batch(
            [SweepPoint(make_problem(1.0), max_defects=m) for m in (3, 4)]
        )
    service = SweepService(
        workers=2, store_dir=store_dir, fault_plan=fault_plan, **kwargs
    )
    try:
        rows = rows_of(service.evaluate_batch(sweep_points()))
        counters = service.registry.snapshot()["counters"]
        dispatched = service.registry.counter("service.batches.parallel")
    finally:
        service.close()
        faults.clear()
    return rows, counters, dispatched


class TestFaultInjectionEndToEnd:
    """One test per fault class: identical results, nonzero fault metrics."""

    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        rows, counters, dispatched = run_sweep(
            tmp_path_factory.mktemp("clean"), "clean"
        )
        return rows, dispatched

    def _run_faulted(self, tmp_path, clean, spec, **kwargs):
        clean_rows, dispatched = clean
        if dispatched == 0:
            pytest.skip("platform cannot spawn worker processes")
        rows, counters, _ = run_sweep(
            tmp_path, "faulted", fault_plan=FaultPlan.from_spec(spec), **kwargs
        )
        assert rows == clean_rows  # bit-for-bit despite the faults
        return counters

    def test_killed_worker_does_not_abort_the_sweep(self, tmp_path, clean):
        counters = self._run_faulted(tmp_path, clean, {"worker.kill": {"at": [1]}})
        assert counters.get("fault.worker_lost", 0) >= 1
        assert counters.get("supervise.respawns", 0) >= 1

    def test_hung_worker_trips_the_deadline_watchdog(self, tmp_path, clean):
        counters = self._run_faulted(
            tmp_path,
            clean,
            {"worker.hang": {"at": [1], "delay": 30}},
            shard_timeout=0.75,
            max_retries=1,
        )
        assert counters.get("fault.shard_timeout", 0) >= 1
        assert counters.get("supervise.respawns", 0) >= 1

    def test_unpicklable_shard_is_retried_with_backoff(self, tmp_path, clean):
        counters = self._run_faulted(
            tmp_path, clean, {"shard.unpickle": {"at": [1]}}
        )
        assert counters.get("fault.shard_error", 0) >= 1
        assert counters.get("retry.attempts", 0) >= 1

    def test_exhausted_pickled_shards_are_evaluated_in_parent(self, tmp_path, clean):
        counters = self._run_faulted(
            tmp_path,
            clean,
            {"shard.unpickle": {"at": list(range(1, 40))}},
            max_retries=0,
        )
        assert counters.get("fault.quarantined", 0) >= 1

    def test_corrupt_store_entry_is_quarantined_and_survived(self, tmp_path, clean):
        # the store holds both structures before the pool forks, so each
        # worker's first store read (occurrence 1 of its own counter)
        # damages a committed entry, detects it and rebuilds
        counters = self._run_faulted(
            tmp_path, clean, {"store.corrupt": {"at": [1]}}, warm=True
        )
        assert counters.get("fault.store_corrupt", 0) >= 1
        assert counters.get("fault.injected.store.corrupt", 0) >= 1

    def test_quarantined_store_entry_lands_in_the_quarantine_dir(self, tmp_path, clean):
        _, dispatched = clean
        if dispatched == 0:
            pytest.skip("platform cannot spawn worker processes")
        run_sweep(
            tmp_path,
            "quarantine",
            fault_plan=FaultPlan.from_spec({"store.corrupt": {"at": [1]}}),
            warm=True,
        )
        quarantine = tmp_path / "quarantine" / "quarantine"
        assert quarantine.is_dir()
        assert any(quarantine.iterdir())


def ms2_batch(truncations, count):
    """``count`` MS2 points per truncation level: one group per level."""
    from repro.soc import benchmark_problem

    return [
        SweepPoint(
            benchmark_problem("MS2", mean_defects=0.1 + 0.01 * index),
            max_defects=truncation,
        )
        for truncation in truncations
        for index in range(count)
    ]


class TestPoolDeadline:
    def test_a_build_slower_than_the_last_batch_trips_no_deadline(self):
        """A job's deadline must cover a build, however fast the last batch's
        points ran: every job here hangs 1 s on its worker, a stand-in for
        a slow build, and no job may be abandoned for it."""
        plan = FaultPlan.from_spec(
            {"worker.hang": {"at": list(range(1, 50)), "delay": 1.0}}
        )
        service = SweepService(workers=2, fault_plan=plan)
        try:
            if service.ensure_workers() is None:
                pytest.skip("platform cannot spawn worker processes")
            # two unheld 200-point groups, then two unheld 1-point groups
            first = service.evaluate_batch(ms2_batch((3, 4), 200))
            second = service.evaluate_batch(ms2_batch((5, 6), 1))
            counters = service.registry.snapshot()["counters"]
        finally:
            service.close()
            faults.clear()
        assert service.registry.counter("service.batches.parallel") == 2
        assert counters.get("fault.shard_timeout", 0) == 0
        assert counters.get("supervise.respawns", 0) == 0
        serial = SweepService()
        assert rows_of(first) == rows_of(serial.evaluate_batch(ms2_batch((3, 4), 200)))
        assert rows_of(second) == rows_of(serial.evaluate_batch(ms2_batch((5, 6), 1)))

    def test_members_killed_between_batches_are_replaced_up_front(self):
        """Members killed while idle can die holding the pool's task-queue
        lock; the next dispatch must count them lost and respawn at once
        instead of waiting for a deadline."""
        import os
        import signal
        import time

        service = SweepService(workers=2)
        service._CLOSE_TIMEOUT = 0.5  # a wedged pool cannot be drained
        try:
            pool = service.ensure_workers()
            if pool is None:
                pytest.skip("platform cannot spawn worker processes")
            service.evaluate_batch(ms2_batch((3, 4), 8))
            killed = {process.pid for process in pool._pool}
            for pid in killed:
                os.kill(pid, signal.SIGKILL)
            # let the pool replace both members, as it does long before a
            # later batch arrives: the deaths are over when it starts
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                live = {p.pid for p in pool._pool if p.exitcode is None}
                if len(live) == 2 and not live & killed:
                    break
                time.sleep(0.02)
            results = service.evaluate_batch(ms2_batch((5, 6), 8))
            counters = service.registry.snapshot()["counters"]
        finally:
            service.close()
        assert service.registry.counter("service.batches.parallel") == 2
        assert counters.get("fault.worker_lost", 0) >= 1
        assert counters.get("fault.shard_timeout", 0) == 0
        expected = SweepService().evaluate_batch(ms2_batch((5, 6), 8))
        assert rows_of(results) == rows_of(expected)


class TestPoolTeardown:
    def test_dispatch_error_terminates_the_pool_exactly_once(
        self, tmp_path, monkeypatch
    ):
        """An exception while draining results must not double-terminate."""
        service = SweepService(workers=2, store_dir=str(tmp_path))
        pool = service.ensure_workers()
        if pool is None:
            pytest.skip("platform cannot spawn worker processes")
        calls = {"terminate": 0}
        original = pool.terminate

        def counting_terminate():
            calls["terminate"] += 1
            original()

        monkeypatch.setattr(pool, "terminate", counting_terminate)

        def exploding_dispatch(self, jobs, worker):
            raise RuntimeError("boom while draining")

        monkeypatch.setattr(ShardSupervisor, "dispatch", exploding_dispatch)
        rows = rows_of(service.evaluate_batch(sweep_points()))

        reference = rows_of(SweepService().evaluate_batch(sweep_points()))
        assert rows == reference  # the serial fallback still answered
        assert calls["terminate"] == 1
        service.close()  # pool reference already cleared: still exactly once
        assert calls["terminate"] == 1

    def test_close_is_reentrant(self, tmp_path):
        service = SweepService(workers=2, store_dir=str(tmp_path))
        if service.ensure_workers() is None:
            pytest.skip("platform cannot spawn worker processes")
        service.close()
        service.close()
        assert service._pool is None
        assert service.respawn_workers() is not None
        service.close()


class TestSuppressedFaultAccounting:
    def test_suppressed_cleanup_failures_are_counted(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        faults.note_suppressed(registry, "pool.join", OSError("gone"))
        faults.note_suppressed(registry, "pool.terminate", OSError("dead"))
        assert registry.counter("fault.suppressed") == 2
        assert registry.counter("fault.suppressed.pool.join") == 1
        assert registry.counter("fault.suppressed.pool.terminate") == 1

    def test_note_suppressed_tolerates_no_registry(self):
        faults.note_suppressed(None, "pool.kill", OSError("x"))  # must not raise
