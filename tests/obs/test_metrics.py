"""Tests for the unified metrics registry."""

import pickle
import threading

import pytest

from repro.obs.metrics import HISTOGRAM_BOUNDS, MetricsRegistry


class TestCounters:
    def test_inc_and_read(self):
        registry = MetricsRegistry()
        registry.inc("service.points.evaluated")
        registry.inc("service.points.evaluated", 5)
        assert registry.counter("service.points.evaluated") == 6
        assert registry.counter("missing") == 0

    def test_thread_safety(self):
        registry = MetricsRegistry()

        def work():
            for _ in range(1000):
                registry.inc("n")

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter("n") == 4000


class TestGauges:
    def test_last_write_wins(self):
        registry = MetricsRegistry()
        registry.set_gauge("workers", 2)
        registry.set_gauge("workers", 4)
        assert registry.gauge("workers") == 4
        assert registry.gauge("missing", default=-1) == -1


class TestHistograms:
    def test_observe_accumulates(self):
        registry = MetricsRegistry()
        registry.observe("phase.build_seconds", 0.5)
        registry.observe("phase.build_seconds", 1.5)
        assert registry.histogram_count("phase.build_seconds") == 2
        assert registry.histogram_sum("phase.build_seconds") == 2.0
        assert registry.histogram_sum("missing") == 0.0
        assert registry.histogram_count("missing") == 0

    def test_bucketing(self):
        registry = MetricsRegistry()
        # one observation per bucket, plus one overflow
        for value in (0.0005, 0.005, 0.05, 0.5, 5.0, 50.0):
            registry.observe("t", value)
        hist = registry.snapshot()["histograms"]["t"]
        assert hist["buckets"] == [1] * (len(HISTOGRAM_BOUNDS) + 1)
        assert hist["min"] == 0.0005
        assert hist["max"] == 50.0


class TestSnapshotDiffMerge:
    def test_snapshot_is_plain_and_picklable(self):
        registry = MetricsRegistry()
        registry.inc("a", 2)
        registry.set_gauge("g", 1.5)
        registry.observe("h", 0.1)
        snap = pickle.loads(pickle.dumps(registry.snapshot()))
        assert snap["counters"] == {"a": 2}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1

    def test_merge_snapshot_folds_a_worker_delta(self):
        parent = MetricsRegistry()
        parent.inc("kernel.fused_passes", 1)
        parent.observe("phase.worker_evaluate_seconds", 0.5)
        worker = MetricsRegistry()
        worker.inc("kernel.fused_passes", 2)
        worker.inc("store.hits")
        worker.set_gauge("workers", 2)
        worker.observe("phase.worker_evaluate_seconds", 1.5)
        parent.merge_snapshot(worker.snapshot())
        assert parent.counter("kernel.fused_passes") == 3
        assert parent.counter("store.hits") == 1
        assert parent.gauge("workers") == 2
        assert parent.histogram_count("phase.worker_evaluate_seconds") == 2
        assert parent.histogram_sum("phase.worker_evaluate_seconds") == 2.0

    def test_merge_none_is_a_no_op(self):
        parent = MetricsRegistry()
        parent.merge_snapshot(None)
        parent.merge_snapshot({})
        assert parent.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_clear(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.observe("h", 1.0)
        registry.clear()
        assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


class TestExposition:
    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.inc("service.points.evaluated", 19)
        registry.set_gauge("dispatch.workers", 2)
        registry.observe("phase.build_seconds", 0.05)
        registry.observe("phase.build_seconds", 5.0)
        text = registry.expose_text()
        assert "# TYPE repro_service_points_evaluated counter" in text
        assert "repro_service_points_evaluated 19" in text
        assert "# TYPE repro_dispatch_workers gauge" in text
        assert "# TYPE repro_phase_build_seconds histogram" in text
        assert 'repro_phase_build_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_phase_build_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_phase_build_seconds_count 2" in text
        assert "repro_phase_build_seconds_sum 5.05" in text
        assert text.endswith("\n")

    def test_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        for value in (0.0005, 0.005, 0.05):
            registry.observe("t", value)
        text = registry.expose_text()
        assert 'repro_t_bucket{le="0.001"} 1' in text
        assert 'repro_t_bucket{le="0.01"} 2' in text
        assert 'repro_t_bucket{le="0.1"} 3' in text
        assert 'repro_t_bucket{le="+Inf"} 3' in text


def esen_points(means, truncation=2):
    from repro.engine.service import SweepPoint
    from repro.soc import benchmark_problem

    return [
        SweepPoint(benchmark_problem("ESEN4x1", mean_defects=mean), max_defects=truncation)
        for mean in means
    ]


class TestServiceStatsFacade:
    """The registry is the sweep service's one view of its statistics.

    The service counts with ``registry.inc`` and times phases with
    ``registry.observe``; it has no ``stats`` attribute to read them from.
    """

    def test_attribute_reads_and_writes_map_to_metrics(self):
        from repro.engine.service import SweepService

        service = SweepService()
        assert not hasattr(service, "stats")
        registry = service.registry
        assert registry.counter("service.points.evaluated") == 0
        service.evaluate_batch(esen_points([0.5, 1.0, 1.5]))
        assert registry.counter("service.points.requested") == 3
        assert registry.counter("service.points.evaluated") == 3
        assert registry.counter("service.structures.built") == 1
        service.evaluate_batch(esen_points([0.5, 1.0, 1.5]))
        assert registry.counter("service.points.requested") == 6
        assert registry.counter("service.points.evaluated") == 3
        assert registry.counter("service.cache.result_hits") == 3
        assert registry.counter("service.structures.built") == 1

    def test_timer_attributes_observe_deltas(self):
        import time

        from repro.engine.service import SweepService

        service = SweepService()
        registry = service.registry
        start = time.perf_counter()
        service.evaluate_batch(esen_points([0.5, 1.0]))
        elapsed = time.perf_counter() - start
        assert registry.histogram_count("phase.build_seconds") == 1
        assert registry.histogram_count("phase.evaluate_seconds") == 1
        build = registry.histogram_sum("phase.build_seconds")
        evaluate = registry.histogram_sum("phase.evaluate_seconds")
        assert build > 0 and evaluate > 0
        assert build + evaluate <= elapsed

        # new means on the held structure: one more evaluate sample, no build
        start = time.perf_counter()
        service.evaluate_batch(esen_points([2.0, 2.5]))
        elapsed = time.perf_counter() - start
        assert registry.histogram_count("phase.build_seconds") == 1
        assert registry.histogram_sum("phase.build_seconds") == build
        assert registry.histogram_count("phase.evaluate_seconds") == 2
        delta = registry.histogram_sum("phase.evaluate_seconds") - evaluate
        assert 0 < delta <= elapsed

    def test_as_dict_covers_every_field(self):
        from repro.engine import native
        from repro.engine.service import SweepService

        service = SweepService()
        points = esen_points([0.5, 1.0, 1.5])
        service.evaluate_batch(points)
        service.gradient_batch(points[:2])
        registry = service.registry
        snapshot = registry.snapshot()
        pickle.loads(pickle.dumps(snapshot))
        for name, value in snapshot["counters"].items():
            assert registry.counter(name) == value
        for name, histogram in snapshot["histograms"].items():
            assert registry.histogram_count(name) == histogram["count"]
            assert registry.histogram_sum(name) == histogram["sum"]
        passes = "kernel.native_passes" if native.available() else "kernel.fused_passes"
        counters = {
            name for name in snapshot["counters"] if not name.startswith("kernel.cache.")
        }
        assert counters >= {
            "service.points.requested",
            "service.points.evaluated",
            "service.points.differentiated",
            "service.structures.built",
            "service.passes.batched",
            "service.passes.gradient",
            "service.linearize.builds",
            passes,
        }
        assert set(snapshot["histograms"]) == {
            "phase.build_seconds",
            "phase.evaluate_seconds",
            "phase.gradient_seconds",
        }


#: The registry namespaces of the README metrics table a sweep service
#: writes.  ``native.*`` is left out: it counts process-wide events once per
#: process, so its values depend on what ran earlier in the test process.
SERVICE_PREFIXES = ("service.", "store.", "kernel.", "dispatch.")


def service_counters(service):
    counters = service.registry.snapshot()["counters"]
    return {
        name: value for name, value in counters.items() if name.startswith(SERVICE_PREFIXES)
    }


def phase_counts(service):
    histograms = service.registry.snapshot()["histograms"]
    return {
        name: histogram["count"]
        for name, histogram in histograms.items()
        if name.startswith("phase.")
    }


class TestServiceRegistryNames:
    """A fixed scenario counted exactly, read by registry name only."""

    MEANS = [0.25 * i for i in range(1, 9)]

    def points(self, truncations):
        return [point for m in truncations for point in esen_points(self.MEANS, m)]

    @staticmethod
    def build_counters(*truncations):
        """The ``kernel.cache.*`` totals the builds at ``truncations`` publish."""
        from repro.core.method import YieldAnalyzer
        from repro.soc import benchmark_problem

        totals = {}
        for truncation in truncations:
            compiled = YieldAnalyzer().compile_for_truncation(
                benchmark_problem("ESEN4x1", mean_defects=1.0), truncation
            )
            for manager, events in compiled.kernel_cache_stats.items():
                for event, value in events.items():
                    if value:
                        name = "kernel.cache.%s.%s" % (manager, event)
                        totals[name] = totals.get(name, 0) + value
        return totals

    def test_scenario_counts_under_registry_names(self, tmp_path):
        from repro.engine import native
        from repro.engine.service import SweepService, structure_key
        from repro.engine.store import StructureStore, digest_of

        store_dir = str(tmp_path / "store")
        passes = "kernel.native_passes" if native.available() else "kernel.fused_passes"

        def entry_bytes(*truncations):
            sizes = {entry.digest: entry.nbytes for entry in StructureStore(store_dir).entries()}
            return sum(
                sizes[digest_of(structure_key(self.points([m])[0].problem, m, service.ordering))]
                for m in truncations
            )

        # 1-3: a cold serial sweep (one build, saved), the same sweep again
        # (result-cache hits) and a gradient batch on the held structure
        service = SweepService(store_dir=store_dir)
        service.evaluate_batch(self.points([3]))
        service.evaluate_batch(self.points([3]))
        service.gradient_batch(self.points([3])[:3])
        assert service_counters(service) == {
            "service.points.requested": 16,
            "service.points.evaluated": 8,
            "service.cache.result_hits": 8,
            "service.structures.built": 1,
            "service.structures.reused": 1,
            "service.passes.batched": 1,
            "service.passes.gradient": 1,
            "service.points.differentiated": 3,
            # saving linearizes; both passes reuse the arrays
            "service.linearize.builds": 1,
            "service.linearize.reuses": 2,
            "store.misses": 1,
            "store.bytes": entry_bytes(3),
            passes: 2,
            **self.build_counters(3),
        }
        assert phase_counts(service) == {
            "phase.build_seconds": 1,
            "phase.evaluate_seconds": 1,
            "phase.gradient_seconds": 1,
        }

        # 4: a second service warm-starts from the first one's store
        warm = SweepService(store_dir=store_dir)
        warm.evaluate_batch(self.points([3]))
        assert service_counters(warm) == {
            "service.points.requested": 8,
            "service.points.evaluated": 8,
            "service.passes.batched": 1,
            "service.linearize.reuses": 1,
            "store.hits": 1,
            "store.mmap_loads": 1,
            "store.bytes": entry_bytes(3),
            passes: 1,
        }
        assert phase_counts(warm) == {"phase.evaluate_seconds": 1}

        # 5: a pooled sweep of two groups it does not hold: each goes whole
        # to a worker, which misses the store and builds
        pooled = SweepService(workers=2, store_dir=store_dir)
        try:
            if pooled.ensure_workers() is None:
                pytest.skip("platform cannot spawn worker processes")
            pooled.evaluate_batch(self.points([2, 4]))
        finally:
            pooled.close()
        counters = service_counters(pooled)
        assert counters.pop("dispatch.payload_bytes") > 0
        assert counters == {
            "service.points.requested": 16,
            "service.points.evaluated": 16,
            "service.batches.parallel": 1,
            "dispatch.groups_in_process": 0,
            "service.structures.built": 2,
            "service.passes.batched": 2,
            "service.linearize.builds": 2,
            "store.misses": 2,
            "store.bytes": entry_bytes(2, 4),
            passes: 2,
            **self.build_counters(2, 4),
        }
        assert phase_counts(pooled) == {
            "phase.build_seconds": 2,
            "phase.evaluate_seconds": 1,
            "phase.worker_evaluate_seconds": 2,
        }
