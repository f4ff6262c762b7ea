"""Persistent structure store: format, round-trips, service warm-starts."""

import json
import os

import pytest

from repro.core.method import YieldAnalyzer
from repro.core.problem import YieldProblem
from repro.distributions import ComponentDefectModel, PoissonDefectDistribution
from repro.engine.store import FORMAT_VERSION, StoreError, StructureStore, digest_of
from repro.engine.service import SweepPoint, SweepService, structure_key
from repro.faulttree import FaultTreeBuilder
from repro.ordering import OrderingSpec
from tests.engine.test_golden import fused_digest


def build_tree():
    ft = FaultTreeBuilder("store-tmr")
    ft.set_top(ft.k_out_of_n_failed(2, ["M1", "M2", "M3"]))
    return ft.build()


TREE = build_tree()


def make_problem(mean_defects):
    model = ComponentDefectModel.uniform(["M1", "M2", "M3"], lethality=0.8)
    distribution = PoissonDefectDistribution(mean=mean_defects)
    return YieldProblem(TREE, model, distribution, name="store-tmr")


MEANS = [0.4, 0.8, 1.2, 1.6, 2.0]
ORDERING = OrderingSpec("w", "ml")


def compile_structure(truncation=3):
    problem = make_problem(1.0)
    compiled = YieldAnalyzer(ORDERING).compile_for_truncation(problem, truncation)
    skey = structure_key(problem, truncation, ORDERING)
    return problem, compiled, skey


class TestStoreFormat:
    def test_save_then_load_restores_an_equivalent_structure(self, tmp_path):
        problem, compiled, skey = compile_structure()
        store = StructureStore(str(tmp_path / "store"))
        nbytes = store.save(skey, compiled)
        assert nbytes > 0
        assert store.contains(skey)

        restored, loaded_bytes = store.load(skey)
        assert loaded_bytes == nbytes
        assert restored.from_store
        assert restored.mdd_manager is None
        assert restored.truncation == compiled.truncation
        assert restored.romdd_size == compiled.romdd_size
        assert restored.component_names == compiled.component_names
        assert restored.variable_names == compiled.variable_names
        assert restored.level_profile == compiled.level_profile
        assert fused_digest(restored.linearized()) == fused_digest(compiled.linearized())

    def test_v2_layout_and_mmap_load(self, tmp_path):
        """New saves write uncompressed per-array .npy files (format v2)."""
        problem, compiled, skey = compile_structure()
        store = StructureStore(str(tmp_path / "store"))
        store.save(skey, compiled)
        digest = digest_of(skey)
        with open(store._json_path(digest)) as handle:
            meta = json.load(handle)
        assert meta["version"] == FORMAT_VERSION == 2
        assert meta["linearized"]["encoding"] == "npy"
        for suffix in (".kids.npy", ".seg.npy", ".levels.npy", ".bounds.npy"):
            assert os.path.exists(store._sidecar(digest, suffix))
        assert not os.path.exists(store._sidecar(digest, ".npz"))

        plain, _ = store.load(skey)
        assert plain.from_store and not plain.store_mmapped
        mmapped, _ = store.load(skey, mmap=True)
        assert mmapped.from_store and mmapped.store_mmapped
        problems = [make_problem(m) for m in MEANS]
        fresh = [r.yield_estimate for r in compiled.evaluate_many(problems)]
        assert [r.yield_estimate for r in plain.evaluate_many(problems)] == fresh
        assert [r.yield_estimate for r in mmapped.evaluate_many(problems)] == fresh

    def test_loading_a_missing_entry_is_a_miss(self, tmp_path):
        store = StructureStore(str(tmp_path / "store"))
        _, _, skey = compile_structure()
        assert store.load(skey) is None
        assert not store.contains(skey)

    def test_corrupt_metadata_is_a_miss_not_an_error(self, tmp_path):
        problem, compiled, skey = compile_structure()
        store = StructureStore(str(tmp_path / "store"))
        store.save(skey, compiled)
        json_path = store._json_path(digest_of(skey))
        with open(json_path, "w") as handle:
            handle.write("{not json")
        assert store.load(skey) is None

    def test_version_skew_is_a_miss(self, tmp_path):
        problem, compiled, skey = compile_structure()
        store = StructureStore(str(tmp_path / "store"))
        store.save(skey, compiled)
        json_path = store._json_path(digest_of(skey))
        with open(json_path) as handle:
            meta = json.load(handle)
        meta["version"] = FORMAT_VERSION + 1
        with open(json_path, "w") as handle:
            json.dump(meta, handle)
        assert store.load(skey) is None

    def test_missing_arrays_file_is_a_miss(self, tmp_path):
        problem, compiled, skey = compile_structure()
        store = StructureStore(str(tmp_path / "store"))
        store.save(skey, compiled)
        os.unlink(store._sidecar(digest_of(skey), ".kids.npy"))
        assert store.load(skey) is None

    def test_terminal_root_entry_round_trips_with_empty_arrays(self, tmp_path):
        """A structure whose ROMDD is a terminal writes (and mmaps) empty arrays."""
        ft = FaultTreeBuilder("always-fails")
        ft.set_top(ft.or_(ft.const(True), ft.failed("M1"), ft.failed("M2")))
        model = ComponentDefectModel.uniform(["M1", "M2"], lethality=0.8)

        def make(mean):
            return YieldProblem(ft.build(), model, PoissonDefectDistribution(mean=mean))

        compiled = YieldAnalyzer(ORDERING).compile_for_truncation(make(1.0), 2)
        assert compiled.linearized().node_count == 0
        skey = structure_key(make(1.0), 2, ORDERING)
        store = StructureStore(str(tmp_path / "store"))
        store.save(skey, compiled)
        digest = digest_of(skey)
        for suffix in (".kids.npy", ".seg.npy", ".levels.npy", ".bounds.npy"):
            assert os.path.exists(store._sidecar(digest, suffix))
        assert store.verify_entry(digest) == (True, [])

        restored, _ = store.load(skey, mmap=True)
        assert restored.store_mmapped
        assert fused_digest(restored.linearized()) == fused_digest(compiled.linearized())
        problems = [make(m) for m in MEANS]
        loaded = [r.yield_estimate for r in restored.evaluate_many(problems)]
        assert loaded == [r.yield_estimate for r in compiled.evaluate_many(problems)]
        assert loaded == [0.0] * len(MEANS)

    def test_entries_info_remove_and_clear(self, tmp_path):
        store = StructureStore(str(tmp_path / "store"))
        assert store.entries() == []
        problem, compiled, skey = compile_structure(truncation=2)
        _, compiled3, skey3 = compile_structure(truncation=3)
        store.save(skey, compiled)
        store.save(skey3, compiled3)

        entries = store.entries()
        assert len(entries) == 2
        assert {entry.truncation for entry in entries} == {2, 3}
        assert store.total_bytes() == sum(entry.nbytes for entry in entries)

        digest = digest_of(skey)
        meta = store.meta_of(digest[:12])
        assert meta["structure"]["truncation"] == 2
        assert store.meta_of("ffff") is None

        assert store.remove(digest[:12]) == 1
        assert len(store.entries()) == 1
        assert store.clear() == 1
        assert store.entries() == []

    def test_ambiguous_digest_prefix_raises(self, tmp_path):
        store = StructureStore(str(tmp_path / "store"))
        problem, compiled, skey = compile_structure(truncation=2)
        _, compiled3, skey3 = compile_structure(truncation=3)
        store.save(skey, compiled)
        store.save(skey3, compiled3)
        with pytest.raises(StoreError):
            store.meta_of("")

    def test_store_requires_a_directory(self):
        with pytest.raises(StoreError):
            StructureStore("")

    def test_saving_a_profileless_structure_raises(self, tmp_path):
        problem, compiled, skey = compile_structure()
        compiled.level_profile = None
        with pytest.raises(StoreError):
            StructureStore(str(tmp_path / "store")).save(skey, compiled)


class TestServiceWarmStart:
    def test_second_service_warm_starts_from_the_store(self, tmp_path):
        store_dir = str(tmp_path / "store")
        cold = SweepService(ordering=ORDERING, store_dir=store_dir)
        cold_rows = cold.density_sweep(make_problem, MEANS, max_defects=3)
        assert cold.registry.counter("service.structures.built") == 1
        assert cold.registry.counter("store.misses") == 1
        assert cold.registry.counter("store.bytes") > 0

        warm = SweepService(ordering=ORDERING, store_dir=store_dir)
        warm_rows = warm.density_sweep(make_problem, MEANS, max_defects=3)
        assert warm.registry.counter("service.structures.built") == 0
        assert warm.registry.counter("store.hits") == 1
        assert warm.registry.counter("store.misses") == 0
        # warm-start results are bit-for-bit the cold-build results
        assert warm_rows == cold_rows

    def test_gradients_through_a_restored_structure(self, tmp_path):
        store_dir = str(tmp_path / "store")
        cold = SweepService(ordering=ORDERING, store_dir=store_dir)
        reference = cold.gradients(make_problem(1.0), max_defects=3)

        warm = SweepService(ordering=ORDERING, store_dir=store_dir)
        restored = warm.gradients(make_problem(1.0), max_defects=3)
        assert warm.registry.counter("service.structures.built") == 0
        assert warm.registry.counter("store.hits") == 1
        assert restored.d_yield_d_raw == reference.d_yield_d_raw
        assert restored.sensitivity == reference.sensitivity
        assert restored.d_failure_d_count == reference.d_failure_d_count

    def test_memory_lru_is_consulted_before_the_store(self, tmp_path):
        service = SweepService(ordering=ORDERING, store_dir=str(tmp_path / "store"))
        service.density_sweep(make_problem, MEANS, max_defects=3)
        hits_before = service.registry.counter("store.hits")
        service.density_sweep(make_problem, [2.4, 2.8], max_defects=3)
        assert service.registry.counter("store.hits") == hits_before
        assert service.registry.counter("service.structures.reused") >= 1

    def test_store_survives_service_clear(self, tmp_path):
        store_dir = str(tmp_path / "store")
        service = SweepService(ordering=ORDERING, store_dir=store_dir)
        service.density_sweep(make_problem, MEANS, max_defects=3)
        service.clear()
        service.density_sweep(make_problem, [2.4], max_defects=3)
        assert service.registry.counter("service.structures.built") == 1
        assert service.registry.counter("store.hits") == 1

    def test_results_match_the_storeless_service_exactly(self, tmp_path):
        plain = SweepService(ordering=ORDERING)
        stored = SweepService(ordering=ORDERING, store_dir=str(tmp_path / "store"))
        plain_rows = plain.density_sweep(make_problem, MEANS, max_defects=3)
        stored_rows = stored.density_sweep(make_problem, MEANS, max_defects=3)
        assert plain_rows == stored_rows


class TestWorkerWarmStart:
    def test_workers_warm_start_from_the_store(self, tmp_path):
        densities = [0.2 + 0.05 * index for index in range(48)]
        store_dir = str(tmp_path / "store")
        points = [
            SweepPoint(make_problem(mean), max_defects=truncation)
            for truncation in (3, 4)
            for mean in densities
        ]
        # warm the store in one (serial) service ...
        warm = SweepService(ordering=ORDERING, store_dir=store_dir)
        for truncation in (3, 4):
            warm.evaluate(make_problem(1.0), max_defects=truncation)
        # ... and fan the two groups out in another: the fan-out threads
        # load both structures from disk, nobody rebuilds them
        service = SweepService(ordering=ORDERING, workers=2, store_dir=store_dir)
        results = service.evaluate_batch(points)
        assert service.registry.counter("service.batches.parallel") == 1
        assert service.registry.counter("service.structures.built") == 0
        assert service.registry.counter("store.hits") == 2
        assert service.registry.counter("store.mmap_loads") == 2

        reference = SweepService(ordering=ORDERING)
        expected = reference.evaluate_batch(points)
        assert [r.yield_estimate for r in results] == [
            r.yield_estimate for r in expected
        ]


class TestVerifyAndQuarantine:
    def test_verify_entry_passes_on_a_clean_save(self, tmp_path):
        _, compiled, skey = compile_structure()
        store = StructureStore(str(tmp_path / "store"))
        store.save(skey, compiled)
        ok, problems = store.verify_entry(digest_of(skey))
        assert ok and problems == []

    def test_save_records_per_array_checksums(self, tmp_path):
        _, compiled, skey = compile_structure()
        store = StructureStore(str(tmp_path / "store"))
        store.save(skey, compiled)
        with open(store._json_path(digest_of(skey))) as handle:
            meta = json.load(handle)
        checksums = meta["checksums"]
        assert sorted(checksums) == ["bounds", "kids", "levels", "seg"]
        assert all(len(value) == 64 for value in checksums.values())

    def test_verify_detects_a_silent_bit_flip(self, tmp_path):
        """Damage that still parses is caught by the recorded checksums."""
        _, compiled, skey = compile_structure()
        store = StructureStore(str(tmp_path / "store"))
        store.save(skey, compiled)
        digest = digest_of(skey)
        kids_path = store._sidecar(digest, ".kids.npy")
        with open(kids_path, "r+b") as handle:
            handle.seek(os.path.getsize(kids_path) - 1)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0xFF]))
        ok, problems = store.verify_entry(digest)
        assert not ok
        assert any("checksum" in problem for problem in problems)

    def test_verify_all_repair_quarantines_corrupt_entries(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        store = StructureStore(str(tmp_path / "store"), registry=registry)
        _, compiled, skey = compile_structure()
        store.save(skey, compiled)
        other = make_problem(2.0)
        okey = structure_key(other, 4, ORDERING)
        store.save(okey, YieldAnalyzer(ORDERING).compile_for_truncation(other, 4))

        digest = digest_of(skey)
        kids_path = store._sidecar(digest, ".kids.npy")
        with open(kids_path, "r+b") as handle:
            handle.truncate(os.path.getsize(kids_path) // 2)

        rows = store.verify_all(repair=False)
        assert len(rows) == 2
        assert sum(1 for _, ok, _ in rows if not ok) == 1
        assert store.contains(skey)  # report-only: nothing moved yet

        rows = store.verify_all(repair=True)
        assert sum(1 for _, ok, _ in rows if not ok) == 1
        assert not store.contains(skey)
        assert store.contains(okey)
        quarantine_dir = tmp_path / "store" / StructureStore.QUARANTINE_DIR
        assert quarantine_dir.is_dir() and any(quarantine_dir.iterdir())
        assert registry.counter("fault.store_quarantined") == 1
        # entries() must not list the quarantined corpse
        assert [entry.digest for entry in store.entries()] == [digest_of(okey)]

    def test_load_quarantines_a_corrupt_entry_and_rebuild_recommits(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        store = StructureStore(str(tmp_path / "store"), registry=registry)
        _, compiled, skey = compile_structure()
        store.save(skey, compiled)
        digest = digest_of(skey)
        kids_path = store._sidecar(digest, ".kids.npy")
        with open(kids_path, "r+b") as handle:
            handle.truncate(os.path.getsize(kids_path) // 2)

        assert store.load(skey) is None  # corruption loads as a miss
        assert registry.counter("fault.store_corrupt") == 1
        assert registry.counter("fault.store_quarantined") == 1
        assert not store.contains(skey)  # the corpse was moved aside

        store.save(skey, compiled)  # the rebuild recommits cleanly
        restored, _ = store.load(skey)
        assert restored is not None
