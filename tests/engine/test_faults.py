"""Injected faults and failing builds on the fan-out route.

The deterministic fault harness (:mod:`repro.engine.faults`) fires at the
structure store's well-known site: a corrupt entry must be detected,
quarantined and rebuilt, with sweep results **bit-for-bit identical** to a
clean run and the transitions visible in the ``fault.*`` metrics.  The
end-to-end runs evaluate two structure groups the service does not hold,
so each batch resolves both structures on the fan-out threads.  A build
that fails on a fan-out thread fails its batch with the exception the
serial route raises, and leaves no thread behind.
"""

import threading
import time

import pytest

from repro.bdd.builder import ResourceLimitExceeded
from repro.core.method import YieldAnalyzer
from repro.core.problem import YieldProblem
from repro.distributions import ComponentDefectModel, PoissonDefectDistribution
from repro.engine import faults
from repro.engine import service as service_module
from repro.engine.faults import PLAN_ENV, FaultPlan
from repro.engine.service import SweepPoint, SweepService
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


def fan_out_threads():
    return [thread for thread in threading.enumerate() if thread.name.startswith("repro-fanout")]


# --------------------------------------------------------------------- #
# The harness itself
# --------------------------------------------------------------------- #


class TestFaultPlan:
    def test_spec_forms_int_list_and_dict(self):
        for spec, fired in (
            ({"store.corrupt": 2}, [False, True, False]),
            ({"store.corrupt": [1, 3]}, [True, False, True]),
            ({"store.corrupt": {"every": 2}}, [False, True, False, True]),
            ({"store.corrupt": {"at": [1], "every": 3}}, [True, False, True]),
        ):
            plan = FaultPlan.from_spec(spec)
            assert [plan.check("store.corrupt") is not None for _ in fired] == fired

    def test_unknown_site_is_rejected_eagerly(self):
        # a plan naming a site that does not exist (any more) must fail
        # loudly, or a stale chaos plan would silently inject nothing
        for site in ("worker.explode", "worker.kill", "worker.hang", "shard.unpickle"):
            with pytest.raises(ValueError, match="unknown fault site"):
                FaultPlan.from_spec({site: 1})

    def test_json_round_trip(self):
        plan = FaultPlan.from_spec({"store.corrupt": {"at": [2], "every": 3}})
        again = FaultPlan.from_json(plan.to_json())
        assert again.to_json() == plan.to_json()

    def test_reset_restarts_the_occurrence_counters(self):
        plan = FaultPlan.from_spec({"store.corrupt": 1})
        assert plan.check("store.corrupt") is not None
        assert plan.check("store.corrupt") is None
        plan.reset()
        assert plan.check("store.corrupt") is not None

    def test_env_var_installs_a_plan(self, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, '{"store.corrupt": {"at": [1]}}')
        faults.clear()  # force re-resolution of the env var
        plan = faults.active()
        assert plan is not None
        assert faults.fire("store.corrupt") is True
        assert faults.fire("store.corrupt") is False

    def test_malformed_env_var_is_ignored(self, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, "{not json")
        faults.clear()
        assert faults.active() is None

    def test_fire_without_a_plan_is_free_and_false(self):
        faults.install(None)
        assert faults.fire("store.corrupt") is False


# --------------------------------------------------------------------- #
# End-to-end: a corrupt store entry yields bit-identical sweep results
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


def run_sweep(tmp_path, name, fault_plan=None, warm=False):
    """One fan-out sweep over the two groups; ``warm`` first commits both
    structures to the store, so the fan-out threads load them instead of
    building."""
    faults.clear()
    store_dir = str(tmp_path / name)
    if warm:
        SweepService(store_dir=store_dir).evaluate_batch(
            [SweepPoint(make_problem(1.0), max_defects=m) for m in (3, 4)]
        )
    service = SweepService(workers=2, store_dir=store_dir, fault_plan=fault_plan)
    try:
        rows = rows_of(service.evaluate_batch(sweep_points()))
    finally:
        faults.clear()
    assert service.registry.counter("service.batches.parallel") == 1
    assert not fan_out_threads()
    return rows, service.registry.snapshot()["counters"]


class TestFaultInjectionEndToEnd:
    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        rows, _ = run_sweep(tmp_path_factory.mktemp("clean"), "clean")
        return rows

    def test_corrupt_store_entry_is_quarantined_and_survived(self, tmp_path, clean):
        # the store holds both structures before the batch, so the first
        # store read on a fan-out thread damages a committed entry, detects
        # it and rebuilds; the other loads clean
        rows, counters = run_sweep(
            tmp_path,
            "faulted",
            fault_plan=FaultPlan.from_spec({"store.corrupt": {"at": [1]}}),
            warm=True,
        )
        assert rows == clean  # bit-for-bit despite the fault
        assert counters.get("fault.store_corrupt", 0) == 1
        assert counters.get("fault.store_quarantined", 0) == 1
        assert counters.get("fault.injected.store.corrupt", 0) == 1
        assert counters.get("service.structures.built", 0) == 1
        assert counters.get("store.hits", 0) == 1

    def test_quarantined_store_entry_lands_in_the_quarantine_dir(self, tmp_path, clean):
        run_sweep(
            tmp_path,
            "quarantine",
            fault_plan=FaultPlan.from_spec({"store.corrupt": {"at": [1]}}),
            warm=True,
        )
        quarantine = tmp_path / "quarantine" / "quarantine"
        assert quarantine.is_dir()
        assert any(quarantine.iterdir())


# --------------------------------------------------------------------- #
# Slow and failing builds on the fan-out threads
# --------------------------------------------------------------------- #


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
    """The fan-out's thread pool puts no deadline on a build: only the
    analyzer's ``node_limit`` bounds one, as on the serial route."""

    def test_a_build_slower_than_the_last_batch_trips_no_deadline(self, monkeypatch):
        """Every build here sleeps 1 s first, a stand-in for a slow build:
        both batches complete, bit-equal to serial, and the two slow builds
        of a batch overlap on the two threads."""
        real = YieldAnalyzer.compile_for_truncation
        sleeps = []

        def slow(self, problem, truncation):
            started = time.perf_counter()
            time.sleep(1.0)
            sleeps.append((started, time.perf_counter()))
            return real(self, problem, truncation)

        monkeypatch.setattr(YieldAnalyzer, "compile_for_truncation", slow)
        service = SweepService(workers=2)
        # two unheld 200-point groups, then two unheld 1-point groups
        first = service.evaluate_batch(ms2_batch((3, 4), 200))
        second = service.evaluate_batch(ms2_batch((5, 6), 1))
        monkeypatch.undo()
        assert service.registry.counter("service.batches.parallel") == 2
        assert service.registry.counter("service.structures.built") == 4
        for one, other in (sleeps[:2], sleeps[2:]):
            assert max(one[0], other[0]) < min(one[1], other[1])  # side by side
        serial = SweepService()
        assert rows_of(first) == rows_of(serial.evaluate_batch(ms2_batch((3, 4), 200)))
        assert rows_of(second) == rows_of(serial.evaluate_batch(ms2_batch((5, 6), 1)))


class TestPoolTeardown:
    def test_dispatch_error_terminates_the_pool_exactly_once(self, monkeypatch):
        """A build that raises on a fan-out thread shuts the batch's thread
        pool down exactly once, joins its threads and propagates the error."""
        shutdowns = []

        class CountingExecutor(service_module.ThreadPoolExecutor):
            def shutdown(self, *args, **kwargs):
                shutdowns.append(self)
                return super().shutdown(*args, **kwargs)

        real = YieldAnalyzer.compile_for_truncation

        def exploding(self, problem, truncation):
            if truncation == 4:
                raise RuntimeError("boom while building")
            return real(self, problem, truncation)

        monkeypatch.setattr(service_module, "ThreadPoolExecutor", CountingExecutor)
        monkeypatch.setattr(YieldAnalyzer, "compile_for_truncation", exploding)
        service = SweepService(workers=2)
        with pytest.raises(RuntimeError, match="boom while building"):
            service.evaluate_batch(sweep_points())
        assert len(shutdowns) == 1
        assert not fan_out_threads()
        monkeypatch.undo()
        # the service still answers, bit for bit
        rows = rows_of(service.evaluate_batch(sweep_points()))
        assert rows == rows_of(SweepService().evaluate_batch(sweep_points()))


class TestFailingBuild:
    def test_a_failing_build_fails_only_its_own_group(self):
        """Two unheld groups, one past ``node_limit``: the batch raises what
        the serial route raises, the healthy structure stays resident, and
        the next batch on it runs in-process with no rebuild."""
        from repro.soc import benchmark_problem

        def points(name, truncation, offset):
            return [
                SweepPoint(
                    benchmark_problem(name, mean_defects=0.5 + offset + 0.01 * index),
                    max_defects=truncation,
                )
                for index in range(8)
            ]

        limit = 3000
        healthy, failing = points("MS2", 2, 0.0), points("MS4", 5, 0.0)
        with pytest.raises(ResourceLimitExceeded):
            SweepService(node_limit=limit).evaluate_batch(failing)
        service = SweepService(workers=2, node_limit=limit)
        with pytest.raises(ResourceLimitExceeded):
            service.evaluate_batch(healthy + failing)
        assert not fan_out_threads()
        assert service.registry.counter("service.batches.parallel") == 1
        assert service.registry.counter("service.structures.built") == 1
        (skey,) = {group.skey for group in service.group([p.problem for p in healthy], [2] * 8)}
        assert service.has_structure(skey)

        later = points("MS2", 2, 1.0)
        results = service.evaluate_batch(later)
        assert service.registry.counter("service.structures.built") == 1
        assert service.registry.counter("service.structures.reused") == 1
        assert service.registry.counter("dispatch.groups_in_process") == 1
        assert service.registry.counter("service.batches.parallel") == 1
        assert rows_of(results) == rows_of(SweepService().evaluate_batch(later))


class TestSuppressedFaultAccounting:
    def test_suppressed_cleanup_failures_are_counted(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        faults.note_suppressed(registry, "store.save", OSError("disk full"))
        faults.note_suppressed(registry, "store.save", OSError("read-only"))
        assert registry.counter("fault.suppressed") == 2
        assert registry.counter("fault.suppressed.store.save") == 2

    def test_note_suppressed_tolerates_no_registry(self):
        faults.note_suppressed(None, "store.save", OSError("x"))  # must not raise

    def test_a_failed_store_save_is_counted_not_raised(self, tmp_path, monkeypatch):
        from repro.engine.store import StructureStore

        def failing_save(self, skey, compiled):
            raise OSError("disk full")

        monkeypatch.setattr(StructureStore, "save", failing_save)
        service = SweepService(store_dir=str(tmp_path / "store"))
        rows = rows_of(service.evaluate_batch(sweep_points()))
        assert rows == rows_of(SweepService().evaluate_batch(sweep_points()))
        assert service.registry.counter("fault.suppressed.store.save") == 2
