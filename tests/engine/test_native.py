"""Fallback and cache behaviour of the native compiled kernel backend.

The equivalence suite (``tests/property/test_fused_equivalence.py``) pins
the native kernel's floats to the fused kernel bit-for-bit; this module
pins the *degradation* story: a host with no compiler, a failing compile,
or a corrupt cached ``.so`` must complete every pass bit-identically on
the fused kernel — with ``native.fallbacks`` recording each degraded
pass — and a healthy cache must warm-start the library without
recompiling.
"""

import glob
import os
import stat

import pytest

from repro.engine import native
from repro.engine.batch import LinearizedDiagram
from repro.faulttree.multivalued import MultiValuedVariable
from repro.mdd.manager import FALSE, MDDManager
from repro.obs.metrics import MetricsRegistry

HAVE_CC = native._find_compiler() is not None


@pytest.fixture
def sandbox(tmp_path, monkeypatch):
    """A private `.so` cache plus a re-armed load, restored afterwards."""
    cache = tmp_path / "native-cache"
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
    native.reset()
    yield cache
    native.reset()


def small_diagram():
    variables = [
        MultiValuedVariable("w", (0, 1, 2)),
        MultiValuedVariable("v", (1, 2)),
    ]
    manager = MDDManager(variables)
    v_node = manager.literal("v", [2])
    root = manager.mk(0, [FALSE, v_node, v_node])
    return LinearizedDiagram.from_mdd(manager, root)


# three models: distinct columns on top, uniform on the bottom level so
# passes exercise both the wide path and the model-uniform collapse
COLUMNS = {
    0: ((0.5, 0.1, 0.3), (0.3, 0.1, 0.4), (0.2, 0.8, 0.3)),
    1: ((0.4, 0.4, 0.4), (0.6, 0.6, 0.6)),
}


def fused_oracle():
    linearized = small_diagram()
    probabilities = linearized.evaluate(COLUMNS, 3, kernel="fused")
    _, gradients = linearized.backward(COLUMNS, 3, kernel="fused")
    return probabilities, gradients


def run_native(linearized):
    probabilities = linearized.evaluate(COLUMNS, 3, kernel="native")
    _, gradients = linearized.backward(COLUMNS, 3, kernel="native")
    return probabilities, gradients


class TestForcedFallback:
    def test_no_compiler_degrades_bit_identically(self, sandbox, monkeypatch):
        monkeypatch.setenv("CC", "/nonexistent")
        native.reset()
        assert not native.available()
        before = native.counters()["fallbacks"]
        linearized = small_diagram()
        assert run_native(linearized) == fused_oracle()  # bit-for-bit
        assert native.counters()["fallbacks"] - before >= 2
        assert linearized.native_passes == 0  # degraded passes count as fused
        assert linearized.fused_passes == 2
        assert linearized.last_kernel == "fused"
        assert not os.path.exists(str(sandbox))  # nothing was compiled

    def test_failing_compiler_degrades_bit_identically(self, sandbox, tmp_path, monkeypatch):
        cc = tmp_path / "broken-cc"
        cc.write_text("#!/bin/sh\nexit 1\n")
        cc.chmod(cc.stat().st_mode | stat.S_IXUSR)
        monkeypatch.setenv("CC", str(cc))
        native.reset()
        assert not native.available()
        before = native.counters()["fallbacks"]
        assert run_native(small_diagram()) == fused_oracle()
        assert native.counters()["fallbacks"] - before >= 2

    def test_fallback_counter_reaches_the_registry(self, sandbox, monkeypatch):
        monkeypatch.setenv("CC", "/nonexistent")
        native.reset()
        run_native(small_diagram())
        registry = MetricsRegistry()
        native.publish_counters(registry, {})
        assert registry.counter("native.fallbacks") >= 2


@pytest.mark.skipif(not HAVE_CC, reason="needs a working C compiler")
class TestCompileAndCache:
    def test_native_pass_counters_move(self, sandbox):
        assert native.available()
        linearized = small_diagram()
        assert run_native(linearized) == fused_oracle()
        assert linearized.native_passes == 2
        assert linearized.fused_passes == 0
        assert linearized.last_kernel == "native"

    def test_warm_start_skips_the_compile(self, sandbox):
        assert native.available()
        after_compile = native.counters()
        native.reset()
        assert native.available()  # second load, same cache
        warm = native.counters()
        assert warm["compiles"] == after_compile["compiles"]
        assert warm["loads"] == after_compile["loads"] + 1

    def test_corrupt_cached_so_is_a_miss_and_recompiles(self, sandbox):
        assert native.available()
        compiles = native.counters()["compiles"]
        (so_path,) = glob.glob(str(sandbox / "*.so"))
        with open(so_path, "r+b") as handle:
            handle.seek(0)
            handle.write(b"\0" * 64)  # checksum no longer matches the marker
        native.reset()
        assert native.available()  # recompiled, never trusted
        assert native.counters()["compiles"] == compiles + 1
        assert run_native(small_diagram()) == fused_oracle()

    def test_missing_marker_is_a_miss(self, sandbox):
        assert native.available()
        compiles = native.counters()["compiles"]
        (marker,) = glob.glob(str(sandbox / "*.json"))
        os.unlink(marker)
        native.reset()
        assert native.available()
        assert native.counters()["compiles"] == compiles + 1

    def test_compiler_loss_after_warm_cache_still_loads(self, sandbox, monkeypatch):
        """A warm `.so` serves hosts whose compiler later disappears."""
        assert native.available()
        counters = native.counters()
        monkeypatch.setenv("CC", "/nonexistent")
        native.reset()
        assert not native.available()  # the key embeds the compiler id
        monkeypatch.delenv("CC")
        native.reset()
        assert native.available()
        assert native.counters()["compiles"] == counters["compiles"]


class TestServiceFallback:
    def test_sweep_completes_bit_identically_without_a_compiler(
        self, tmp_path, monkeypatch
    ):
        from repro.distributions import (
            ComponentDefectModel,
            PoissonDefectDistribution,
        )
        from repro.core.problem import YieldProblem
        from repro.engine.service import SweepPoint, SweepService
        from repro.faulttree import FaultTreeBuilder

        ft = FaultTreeBuilder("fallback")
        ft.set_top(ft.k_out_of_n_failed(2, ["M1", "M2", "M3"]))
        tree = ft.build()
        model = ComponentDefectModel.uniform(["M1", "M2", "M3"], lethality=0.8)
        points = [
            SweepPoint(
                YieldProblem(tree, model, PoissonDefectDistribution(mean=mean)),
                max_defects=3,
            )
            for mean in (0.5, 1.0, 2.0)
        ]

        # native wherever the library loads on this host
        expected = [r.yield_estimate for r in SweepService().evaluate_batch(points)]

        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
        monkeypatch.setenv("CC", "/nonexistent")
        native.reset()
        try:
            service = SweepService()
            results = [r.yield_estimate for r in service.evaluate_batch(points)]
            assert results == expected  # bit-for-bit through the fallback
            assert service.registry.counter("native.fallbacks") > 0
            assert service.registry.counter("kernel.native_passes") == 0
        finally:
            native.reset()
