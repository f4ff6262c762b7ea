"""Sweep-service invariants: reuse correctness, no per-point state, fan-out."""

import gc
import tracemalloc

import pytest

from repro.core.method import YieldAnalyzer
from repro.core.problem import YieldProblem
from repro.distributions import ComponentDefectModel, PoissonDefectDistribution
from repro.engine.service import (
    SweepPoint,
    SweepService,
    result_key,
    structure_key,
)
from repro.faulttree import FaultTreeBuilder
from repro.ordering import OrderingSpec


def build_tree():
    ft = FaultTreeBuilder("svc-tmr")
    ft.set_top(ft.k_out_of_n_failed(2, ["M1", "M2", "M3"]))
    return ft.build()


TREE = build_tree()


def make_problem(mean_defects):
    model = ComponentDefectModel.uniform(["M1", "M2", "M3"], lethality=0.8)
    distribution = PoissonDefectDistribution(mean=mean_defects)
    return YieldProblem(TREE, model, distribution, name="svc-tmr")


MEANS = [0.4, 0.8, 1.2, 1.6, 2.0]


class TestStructureReuse:
    def test_five_point_density_sweep_builds_one_structure(self):
        service = SweepService()
        rows = service.density_sweep(make_problem, MEANS, max_defects=3)
        assert len(rows) == len(MEANS)
        assert service.registry.counter("service.structures.built") == 1
        assert service.registry.counter("service.points.evaluated") == len(MEANS)

    def test_sweep_results_match_the_serial_analyzer(self):
        service = SweepService()
        rows = service.density_sweep(make_problem, MEANS, max_defects=3)
        analyzer = YieldAnalyzer()
        for (mean, estimate, truncation), expected_mean in zip(rows, MEANS):
            reference = analyzer.evaluate(make_problem(expected_mean), max_defects=3)
            assert mean == expected_mean
            assert truncation == reference.truncation
            assert estimate == pytest.approx(reference.yield_estimate, abs=1e-12)

    def test_batch_results_keep_request_order(self):
        service = SweepService()
        points = [SweepPoint(make_problem(m), max_defects=3) for m in MEANS]
        results = list(reversed(service.evaluate_batch(list(reversed(points)))))
        forward = service.evaluate_batch(points)
        for a, b in zip(results, forward):
            assert a.yield_estimate == pytest.approx(b.yield_estimate, abs=1e-15)

    def test_reused_points_are_flagged(self):
        service = SweepService()
        points = [SweepPoint(make_problem(m), max_defects=3) for m in MEANS]
        results = service.evaluate_batch(points)
        flags = sorted(r.extra["structure_reused"] for r in results)
        assert flags[0] == 0.0  # the point that paid for the build
        assert flags[-1] == 1.0  # everyone else rode along

    def test_truncation_sweep_is_monotone(self):
        service = SweepService()
        rows = service.truncation_sweep(make_problem(1.0), [1, 2, 3, 4])
        estimates = [estimate for _, estimate, _ in rows]
        bounds = [bound for _, _, bound in rows]
        assert estimates == sorted(estimates)
        assert bounds == sorted(bounds, reverse=True)

    def test_epsilon_resolves_truncation_per_point(self):
        service = SweepService(epsilon=1e-2)
        loose = service.evaluate(make_problem(1.0))
        tight = service.evaluate(make_problem(1.0), epsilon=1e-6)
        assert tight.truncation > loose.truncation
        assert tight.error_bound <= 1e-6


class TestResultCaching:
    def test_different_densities_never_collide(self):
        ordering = OrderingSpec("w", "ml")
        key_a = result_key(make_problem(0.5), 3, ordering)
        key_b = result_key(make_problem(0.6), 3, ordering)
        assert key_a != key_b
        # but the structure is shared
        assert structure_key(make_problem(0.5), 3, ordering) == structure_key(
            make_problem(0.6), 3, ordering
        )

    def test_structure_lru_is_bounded(self):
        service = SweepService(max_structures=1)
        service.evaluate(make_problem(1.0), max_defects=2)
        service.evaluate(make_problem(1.0), max_defects=3)
        service.evaluate(make_problem(1.0), max_defects=4)
        assert len(service._structures) == 1


class TestNoPointState:
    """The service keeps compiled structures and nothing per point."""

    def test_a_repeated_request_runs_its_pass_again(self):
        service = SweepService()
        first = service.density_sweep(make_problem, MEANS, max_defects=3)
        second = service.density_sweep(make_problem, MEANS, max_defects=3)
        assert second == first  # bit for bit
        assert service.registry.counter("service.points.evaluated") == 2 * len(MEANS)
        assert service.registry.counter("service.passes.batched") == 2
        assert service.registry.counter("service.structures.built") == 1

    def test_a_warm_service_does_not_grow_with_the_points_it_serves(self):
        from repro.soc import benchmark_problem

        def factory(mean):
            return benchmark_problem("ESEN4x1", mean_defects=mean)

        def sweep(number):
            # fresh densities every request, as a served sweep sees them
            densities = [0.25 + 0.01 * i + 1e-4 * number for i in range(96)]
            service.density_sweep(factory, densities, max_defects=4)

        service = SweepService()
        for number in range(3):  # build, then fill every bounded table
            sweep(number)
        sweeps = 50
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for number in range(3, 3 + sweeps):
                sweep(number)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # a per-point result cache held ~0.5 KB per point (~2.4 MB here)
        assert grown < sweeps * 96 * 512 // 10


class TestAnalyzerOptions:
    @pytest.mark.parametrize(
        "options",
        [{"max_retries": 2}, {"shard_timeout": 30.0}, {"cache_dir": "x"}, {"fault_plan": None}],
    )
    def test_unknown_options_raise_at_construction(self, options):
        # an option the analyzer does not take must not wait for the first
        # build
        with pytest.raises(TypeError):
            SweepService(**options)

    def test_analyzer_options_reach_every_build(self):
        from repro.bdd.builder import ResourceLimitExceeded

        service = SweepService(node_limit=100, workers=2)
        with pytest.raises(ResourceLimitExceeded):
            service.truncation_sweep(make_problem(1.0), [3, 4])


class TestParallelFanOut:
    def test_worker_fan_out_matches_serial_results(self):
        serial = SweepService()
        serial_rows = serial.truncation_sweep(make_problem(1.0), [2, 3, 4])

        parallel = SweepService(workers=2)
        parallel_rows = parallel.truncation_sweep(make_problem(1.0), [2, 3, 4])

        for a, b in zip(serial_rows, parallel_rows):
            assert a[0] == b[0]
            assert b[1] == pytest.approx(a[1], abs=1e-15)
            assert b[2] == pytest.approx(a[2], abs=1e-15)

    def test_single_group_batches_stay_in_process(self):
        service = SweepService(workers=4)
        service.density_sweep(make_problem, MEANS, max_defects=3)
        assert service.registry.counter("service.batches.parallel") == 0
        assert service.registry.counter("service.structures.built") == 1

    def test_consecutive_pools_leave_stderr_clean(self, tmp_path):
        """Three services in one process, each building two structures on
        its fan-out thread pool: nothing may print a traceback or a leak,
        and no fan-out thread may outlive its batch."""
        import os
        import subprocess
        import sys

        script = (
            "from repro.engine.service import SweepPoint, SweepService\n"
            "from repro.soc import benchmark_problem\n"
            "means = [0.05 + 0.05 * i for i in range(64)]\n"
            "for _ in range(3):\n"
            "    service = SweepService(store_dir=%r, workers=2)\n"
            "    service.evaluate_batch([\n"
            "        SweepPoint(benchmark_problem('ESEN4x1', mean_defects=mean),\n"
            "                   max_defects=truncation)\n"
            "        for truncation in (3, 4) for mean in means\n"
            "    ])\n"
            "    print(service.registry.counter('service.batches.parallel') > 0,\n"
            "          flush=True)\n"
            "import threading\n"
            "print(sorted(t.name for t in threading.enumerate()))\n"
        ) % str(tmp_path / "store")
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["True"] * 3 + ["['MainThread']"]
        assert "Traceback" not in result.stderr, result.stderr
        assert "KeyError" not in result.stderr, result.stderr
        assert "leaked" not in result.stderr, result.stderr

    def test_worker_built_structures_serve_later_batches(self):
        service = SweepService(workers=2)
        service.truncation_sweep(make_problem(1.0), [2, 3])
        built = service.registry.counter("service.structures.built")
        assert len(service._structures) == 2
        # same structures, different defect model: no rebuild anywhere
        service.truncation_sweep(make_problem(1.5), [2, 3])
        assert service.registry.counter("service.structures.built") == built
        assert service.registry.counter("service.structures.reused") == 2


class TestOnePmfPerPoint:
    """The sweep path evaluates each point's lethal count pmf exactly once.

    The calls are counted on the distribution class the benchmark
    problems use; a warm sweep must make one ``pmf_vector(M)`` call per
    point (its result key's vector, reused for the column and the error
    bound) and no scalar ``pmf``, ``tail`` or ``cdf`` call at all.
    """

    NAME, M = "ESEN4x1", 4
    DENSITIES = [0.1 + 0.03 * index for index in range(32)]

    def factory(self, mean):
        from repro.soc import benchmark_problem

        return benchmark_problem(self.NAME, mean_defects=mean)

    def count_calls(self, monkeypatch):
        from collections import Counter

        from repro.distributions import NegativeBinomialDefectDistribution

        calls = Counter()
        for method in ("pmf", "pmf_vector", "tail", "cdf"):
            original = getattr(NegativeBinomialDefectDistribution, method)

            def counted(self, k, _original=original, _method=method):
                calls[(_method, k)] += 1
                return _original(self, k)

            monkeypatch.setattr(NegativeBinomialDefectDistribution, method, counted)
        return calls

    def primed_service(self):
        service = SweepService()
        service.density_sweep(self.factory, [1.0], max_defects=self.M)
        return service

    def test_warm_sweep_makes_one_pmf_vector_call_per_point(self, monkeypatch):
        service = self.primed_service()
        calls = self.count_calls(monkeypatch)
        rows = service.density_sweep(self.factory, self.DENSITIES, max_defects=self.M)
        assert len(rows) == len(self.DENSITIES)
        assert service.registry.counter("service.structures.built") == 1
        assert dict(calls) == {("pmf_vector", self.M): len(self.DENSITIES)}

    def test_gradients_make_one_pmf_vector_call_per_model(self, monkeypatch):
        service = self.primed_service()
        calls = self.count_calls(monkeypatch)
        service.gradient_batch(
            [SweepPoint(self.factory(mean), max_defects=self.M) for mean in self.DENSITIES]
        )
        assert dict(calls) == {("pmf_vector", self.M + 1): len(self.DENSITIES)}
