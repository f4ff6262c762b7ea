"""Fault-tolerant dispatch: every injected fault class must be absorbed.

The deterministic fault harness (:mod:`repro.engine.faults`) fires at
well-known sites; the supervision layer (:mod:`repro.engine.supervise`)
must turn every fault into retries, degradations or in-parent
quarantine — the sweep results stay **bit-for-bit identical** to a clean
run, and every transition is visible in the ``fault.*`` / ``retry.*`` /
``supervise.*`` metrics.
"""

import os

import pytest

from repro.core.problem import YieldProblem
from repro.distributions import ComponentDefectModel, PoissonDefectDistribution
from repro.engine import faults
from repro.engine.faults import PLAN_ENV, FaultPlan, InjectedFault
from repro.engine.service import SweepService
from repro.engine.supervise import (
    Backoff,
    DegradationLadder,
    ShardSupervisor,
    ShmJanitor,
)
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
        plan = FaultPlan.from_spec({"shm.create": 1})
        assert plan.check("shm.create") is not None
        assert plan.check("shm.create") is None
        plan.reset()
        assert plan.check("shm.create") is not None

    def test_env_var_installs_a_plan(self, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, '{"shm.create": {"at": [1]}}')
        faults.clear()  # force re-resolution of the env var
        plan = faults.active()
        assert plan is not None
        with pytest.raises(InjectedFault):
            faults.fire("shm.create")

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

        exc = pickle.loads(pickle.dumps(InjectedFault("shm.create", 3)))
        assert exc.site == "shm.create"
        assert exc.occurrence == 3


class TestNetworkFaultSites:
    """The four ``net.*`` sites the remote fabric is chaos-tested through."""

    def test_refuse_and_drop_raise_injected_faults(self):
        faults.install(FaultPlan.from_spec({"net.refuse": 1, "net.drop": 1}))
        with pytest.raises(InjectedFault) as info:
            faults.fire("net.refuse")
        assert info.value.site == "net.refuse"
        with pytest.raises(InjectedFault):
            faults.fire("net.drop")

    def test_delay_sleeps_then_reports_not_fired(self):
        import time

        faults.install(FaultPlan.from_spec({"net.delay": {"at": [1], "delay": 0.2}}))
        started = time.perf_counter()
        assert faults.fire("net.delay") is False  # caller proceeds normally
        assert time.perf_counter() - started >= 0.2

    def test_garbage_returns_true_for_caller_side_corruption(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        faults.install(FaultPlan.from_spec({"net.garbage": 1}))
        assert faults.fire("net.garbage", registry) is True
        assert registry.counter("fault.injected.net.garbage") == 1
        assert faults.fire("net.garbage", registry) is False  # occurrence 2

    def test_remote_is_the_first_ladder_rung(self):
        ladder = DegradationLadder(cooldown=2)
        assert ladder.preferred("remote") == "remote"
        ladder.note_failure("remote")
        assert ladder.blocked_routes() == ["remote"]
        assert ladder.preferred("remote") == "shm"
        # local successes pay the remote block down again
        ladder.note_success("shm")
        ladder.note_success("shm")
        assert ladder.blocked_routes() == []
        assert ladder.allows("remote")


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


class TestDegradationLadder:
    def test_failure_blocks_and_successes_restore(self):
        ladder = DegradationLadder(cooldown=2)
        assert ladder.allows("shm")
        ladder.note_failure("shm")
        assert not ladder.allows("shm")
        assert ladder.preferred() == "pickled"
        ladder.note_success("pickled")
        assert not ladder.allows("shm")  # one success paid one of two down
        ladder.note_success("pickled")
        assert ladder.allows("shm")  # cascade steps back up
        assert ladder.preferred() == "shm"

    def test_parent_route_is_never_blocked(self):
        ladder = DegradationLadder(cooldown=1)
        ladder.note_failure("shm")
        ladder.note_failure("pickled")
        assert ladder.preferred() == "parent"

    def test_disabled_ladder_keeps_no_state(self):
        ladder = DegradationLadder(enabled=False)
        ladder.note_failure("shm")
        assert ladder.allows("shm")

    def test_restore_transition_is_counted(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        ladder = DegradationLadder(cooldown=1)
        ladder.note_failure("shm", registry)
        ladder.note_success("pickled", registry)
        assert registry.counter("fault.degrade.shm") == 1
        assert registry.counter("fault.restore.shm") == 1


class TestShmJanitor:
    def test_sweep_unlinks_adopted_blocks(self):
        shared_memory = pytest.importorskip("multiprocessing.shared_memory")
        janitor = ShmJanitor()
        block = shared_memory.SharedMemory(create=True, size=64)
        name = block.name
        janitor.adopt(block)
        assert janitor.orphans() == [name]
        assert janitor.sweep() == 1
        assert janitor.orphans() == []
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_release_is_idempotent_and_removes_from_orphans(self):
        shared_memory = pytest.importorskip("multiprocessing.shared_memory")
        janitor = ShmJanitor()
        block = shared_memory.SharedMemory(create=True, size=64)
        janitor.adopt(block)
        janitor.release(block, unlink=True)
        assert janitor.orphans() == []
        janitor.release(block, unlink=True)  # second release must not raise
        assert janitor.sweep() == 0

    def test_sweep_reclaims_a_segment_leaked_by_a_dead_process(self, tmp_path):
        """A child leaks a real segment; the parent's sweep returns it.

        This is the janitor's actual production scenario — a SIGKILLed
        worker never runs its cleanup — so the test crosses a real
        process boundary instead of simulating the leak in-process.
        """
        shared_memory = pytest.importorskip("multiprocessing.shared_memory")
        import subprocess
        import sys

        child = (
            "import os, sys\n"
            "from multiprocessing import resource_tracker, shared_memory\n"
            "block = shared_memory.SharedMemory(create=True, size=128)\n"
            "block.buf[:4] = b'leak'\n"
            # stop the child's resource tracker from reclaiming the block
            # at exit: the leak must be real, the parent's job to sweep
            "try:\n"
            "    resource_tracker.unregister(block._name, 'shared_memory')\n"
            "except Exception:\n"
            "    pass\n"
            "print(block.name, flush=True)\n"
            "os._exit(0)\n"  # no cleanup, like a killed worker
        )
        result = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        name = result.stdout.strip()
        assert name

        # the leak outlived its creator: the parent can still attach
        leaked = shared_memory.SharedMemory(name=name)
        assert bytes(leaked.buf[:4]) == b"leak"

        janitor = ShmJanitor()
        janitor.adopt(leaked)
        assert janitor.orphans() == [name]
        assert janitor.sweep() == 1
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


# --------------------------------------------------------------------- #
# End-to-end: every fault class yields bit-identical sweep results
# --------------------------------------------------------------------- #


def run_sweep(tmp_path, name, fault_plan=None, **kwargs):
    faults.clear()
    service = SweepService(
        workers=2,
        shard_size=8,
        store_dir=str(tmp_path / name),
        fault_plan=fault_plan,
        **kwargs,
    )
    try:
        rows = service.density_sweep(make_problem, DENSITIES, max_defects=3)
        counters = service.registry.snapshot()["counters"]
        dispatched = service.stats.shards_dispatched
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
            use_shared_memory=False,
            max_retries=0,
        )
        assert counters.get("fault.quarantined", 0) >= 1

    def test_shm_creation_failure_degrades_to_pickled(self, tmp_path, clean):
        counters = self._run_faulted(tmp_path, clean, {"shm.create": {"at": [1]}})
        assert counters.get("fault.shm_create", 0) >= 1
        assert counters.get("fault.degrade.shm", 0) >= 1
        assert counters.get("fault.injected.shm.create", 0) >= 1

    def test_corrupt_store_entry_is_quarantined_and_survived(self, tmp_path, clean):
        # the pool forks before the parent's first store load, so each
        # worker's occurrence counter starts at 0: occurrence 1 fires on
        # every worker's first read and damages the committed entry (the
        # parent's own occurrence-1 firing hits a not-yet-committed entry,
        # a no-op)
        counters = self._run_faulted(
            tmp_path, clean, {"store.corrupt": {"at": [1]}}
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
        )
        quarantine = tmp_path / "quarantine" / "quarantine"
        assert quarantine.is_dir()
        assert any(quarantine.iterdir())


class TestMidSweepDegradation:
    def test_shm_failure_mid_sweep_falls_back_per_group(self, tmp_path):
        """First group dispatches over shm, the second falls back to pickled."""
        from repro.engine.service import SweepPoint

        def run(name, fault_plan=None):
            faults.clear()
            service = SweepService(
                workers=2,
                shard_size=4,
                store_dir=str(tmp_path / name),
                fault_plan=fault_plan,
            )
            try:
                # two structure groups (different truncations), each sharded
                points = [
                    SweepPoint(make_problem(m), max_defects=3) for m in DENSITIES[:16]
                ] + [
                    SweepPoint(make_problem(m), max_defects=4) for m in DENSITIES[:16]
                ]
                results = [r.yield_estimate for r in service.evaluate_batch(points)]
                counters = service.registry.snapshot()["counters"]
                dispatched = service.stats.shards_dispatched
                shm_bytes = service.stats.shm_bytes
            finally:
                service.close()
                faults.clear()
            return results, counters, dispatched, shm_bytes

        clean, _, dispatched, clean_shm = run("clean")
        if dispatched == 0:
            pytest.skip("platform cannot spawn worker processes")
        rows, counters, _, shm_bytes = run(
            "faulted", FaultPlan.from_spec({"shm.create": {"at": [2]}})
        )
        assert rows == clean
        assert counters.get("fault.shm_create", 0) >= 1
        # the first group still used the zero-copy route...
        assert 0 < shm_bytes < clean_shm
        # ...and the clean run used it for both groups
        assert counters.get("fault.degrade.shm", 0) >= 1


class TestPoolTeardown:
    def test_dispatch_error_terminates_the_pool_exactly_once(
        self, tmp_path, monkeypatch
    ):
        """An exception while draining results must not double-terminate."""
        service = SweepService(workers=2, shard_size=8, store_dir=str(tmp_path))
        pool = service.ensure_workers()
        if pool is None:
            pytest.skip("platform cannot spawn worker processes")
        calls = {"terminate": 0}
        original = pool.terminate

        def counting_terminate():
            calls["terminate"] += 1
            original()

        monkeypatch.setattr(pool, "terminate", counting_terminate)

        def exploding_dispatch(self, jobs, worker, **kwargs):
            raise RuntimeError("boom while draining")

        monkeypatch.setattr(ShardSupervisor, "dispatch", exploding_dispatch)
        rows = service.density_sweep(make_problem, DENSITIES, max_defects=3)

        reference = SweepService().density_sweep(
            make_problem, DENSITIES, max_defects=3
        )
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
        faults.note_suppressed(registry, "shm.unlink", OSError("gone"))
        faults.note_suppressed(registry, "pool.terminate", OSError("dead"))
        assert registry.counter("fault.suppressed") == 2
        assert registry.counter("fault.suppressed.shm.unlink") == 1
        assert registry.counter("fault.suppressed.pool.terminate") == 1

    def test_note_suppressed_tolerates_no_registry(self):
        faults.note_suppressed(None, "shm.close", OSError("x"))  # must not raise
