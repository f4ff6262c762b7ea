"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import main
from repro.faulttree import dumps, loads
from repro.distributions import ComponentDefectModel
from repro.faulttree import FaultTreeBuilder

EXAMPLE_FT = """
toplevel SYSTEM;
SYSTEM and CORE_A CORE_B;
CORE_A prob 0.2;
CORE_B prob 0.2;
"""


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "duplex.ft"
    path.write_text(EXAMPLE_FT)
    return str(path)


def stats_values(out):
    """Parse the registry-generated ``--stats`` lines into ``{metric: value}``."""
    values = {}
    for line in out.splitlines():
        parts = line.split()
        if line.startswith("  ") and len(parts) >= 2 and "." in parts[0]:
            values[parts[0]] = parts[1]
    return values


class TestListAndVersion:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "MS2" in out and "ESEN8x4" in out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestEvaluate:
    def test_evaluate_file(self, tree_file, capsys):
        assert main(["evaluate", tree_file, "--max-defects", "3"]) == 0
        out = capsys.readouterr().out
        assert "yield >=" in out
        assert "ROMDD nodes" in out

    def test_evaluate_with_montecarlo(self, tree_file, capsys):
        code = main(["evaluate", tree_file, "--max-defects", "2", "--montecarlo", "500"])
        assert code == 0
        assert "Monte-Carlo check" in capsys.readouterr().out

    def test_evaluate_poisson(self, tree_file, capsys):
        assert main(["evaluate", tree_file, "--poisson", "--max-defects", "2"]) == 0
        assert "yield >=" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        code = main(["evaluate", str(tmp_path / "nope.ft")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.ft"
        path.write_text("toplevel X;\n")
        assert main(["evaluate", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_ordering(self, tree_file, capsys):
        assert main(["evaluate", tree_file, "--ordering", "zz"]) == 2
        assert "error" in capsys.readouterr().err


class TestBenchmark:
    def test_benchmark_ms2(self, capsys):
        code = main(["benchmark", "MS2", "--max-defects", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MS2" in out and "yield >=" in out

    def test_unknown_benchmark(self, capsys):
        assert main(["benchmark", "MS3"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err


class TestImportance:
    def test_default_reports_both_measures(self, capsys):
        assert main(["importance", "MS2", "--max-defects", "2"]) == 0
        out = capsys.readouterr().out
        assert "Component importance for MS2" in out
        assert "Yield sensitivity (analytic reverse-mode gradients)" in out
        assert "Hardening potential" in out
        assert "IPM_1" in out and "CS_2_2_B" in out
        assert "dY / d(rel. P_i)" in out and "yield gain" in out

    def test_component_subset_and_single_measure(self, capsys):
        code = main(
            [
                "importance",
                "MS2",
                "--max-defects",
                "2",
                "--measure",
                "sensitivity",
                "--components",
                "IPM_1",
                "IPS_1_1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "IPM_1" in out and "IPS_1_1" in out
        assert "Hardening potential" not in out

    def test_fd_route(self, capsys):
        code = main(
            [
                "importance",
                "MS2",
                "--max-defects",
                "2",
                "--measure",
                "sensitivity",
                "--fd",
                "--relative-step",
                "0.01",
            ]
        )
        assert code == 0
        assert "central finite differences, h=0.01" in capsys.readouterr().out

    def test_stats_counters(self, capsys):
        code = main(["importance", "MS2", "--max-defects", "2", "--stats"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Engine statistics" in out
        values = stats_values(out)
        # one analytic pass differentiates the single baseline model...
        assert values["service.passes.gradient"] == "1"
        assert values["service.points.differentiated"] == "1"
        # ...and the hardening route batches baseline + 18 perturbed models
        assert values["service.passes.batched"] == "1"
        assert values["service.points.evaluated"] == "19"
        assert "phase.gradient_seconds" in values  # phase timing histogram

    def test_jobs_fan_out(self, capsys):
        code = main(
            ["importance", "MS2", "--max-defects", "2", "--jobs", "2", "--stats"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Hardening potential" in out
        assert stats_values(out)["service.passes.gradient"] == "1"

    def test_unknown_benchmark(self, capsys):
        assert main(["importance", "NOPE"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_invalid_step_is_a_user_error(self, capsys):
        code = main(
            ["importance", "MS2", "--max-defects", "2", "--fd", "--relative-step", "1.5"]
        )
        assert code == 2
        assert "relative_step" in capsys.readouterr().err

    def test_unknown_component(self, capsys):
        code = main(
            ["importance", "MS2", "--max-defects", "2", "--components", "ZZZ"]
        )
        assert code == 2
        assert "unknown component" in capsys.readouterr().err


class TestTable:
    def test_table1(self, capsys):
        assert main(["table", "1"]) == 0
        out = capsys.readouterr().out
        assert "MS10" in out and "ESEN8x4" in out

    def test_table2_small(self, capsys):
        code = main(["table", "2", "--benchmarks", "MS2", "--max-defects", "2"])
        assert code == 0
        assert "wvr" in capsys.readouterr().out

    def test_table4_small(self, capsys):
        code = main(["table", "4", "--benchmarks", "MS2", "--max-defects", "2"])
        assert code == 0
        assert "yield" in capsys.readouterr().out

    def test_table_unknown_benchmark(self, capsys):
        assert main(["table", "2", "--benchmarks", "NOPE"]) == 2
        assert "unknown benchmarks" in capsys.readouterr().err


class TestCache:
    def test_ls_of_an_empty_store(self, tmp_path, capsys):
        assert main(["cache", "ls", str(tmp_path / "store")]) == 0
        assert "is empty" in capsys.readouterr().out

    def test_warm_then_ls_info_and_clear(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main(["cache", "warm", store_dir, "MS2", "--max-defects", "2"]) == 0
        out = capsys.readouterr().out
        assert "warmed MS2" in out and "M=2" in out

        assert main(["cache", "ls", store_dir]) == 0
        out = capsys.readouterr().out
        assert "1 entries" in out and "M=2" in out
        digest = out.strip().splitlines()[-1].split()[0]

        assert main(["cache", "info", store_dir, digest]) == 0
        out = capsys.readouterr().out
        assert '"truncation": 2' in out
        assert '"format": "repro-structure"' in out

        assert main(["cache", "clear", store_dir]) == 0
        assert "removed 1 entries" in capsys.readouterr().out
        assert main(["cache", "ls", store_dir]) == 0
        assert "is empty" in capsys.readouterr().out

    def test_info_of_an_unknown_digest(self, tmp_path, capsys):
        assert main(["cache", "info", str(tmp_path / "store"), "ffff"]) == 2
        assert "no entry matches" in capsys.readouterr().err

    def test_warm_unknown_benchmark(self, tmp_path, capsys):
        assert main(["cache", "warm", str(tmp_path / "store"), "NOPE"]) == 2
        assert "NOPE" in capsys.readouterr().err

    def test_sweep_warm_starts_from_a_warmed_store(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main(["cache", "warm", store_dir, "MS2", "--max-defects", "3"]) == 0
        capsys.readouterr()
        code = main(
            [
                "sweep",
                "MS2",
                "--max-defects",
                "3",
                "--store-dir",
                store_dir,
                "--stats",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "structures built    : 0" in out
        values = stats_values(out)
        assert values["store.hits"] == "1"
        assert values.get("store.misses", "0") == "0"

    def test_importance_accepts_a_store_dir(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        code = main(
            [
                "importance",
                "MS2",
                "--max-defects",
                "2",
                "--store-dir",
                store_dir,
                "--stats",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Engine statistics" in out
        # the run persisted its structure: a second process warm-starts
        code = main(
            [
                "importance",
                "MS2",
                "--max-defects",
                "2",
                "--store-dir",
                store_dir,
                "--stats",
            ]
        )
        assert code == 0
        assert stats_values(capsys.readouterr().out)["store.hits"] == "1"

    def test_verify_of_a_clean_store(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main(["cache", "warm", store_dir, "MS2", "--max-defects", "2"]) == 0
        capsys.readouterr()
        assert main(["cache", "verify", store_dir]) == 0
        out = capsys.readouterr().out
        assert "1 ok, 0 corrupt" in out

    def test_verify_reports_and_repairs_corruption(self, tmp_path, capsys):
        import glob
        import os

        store_dir = str(tmp_path / "store")
        assert main(["cache", "warm", store_dir, "MS2", "--max-defects", "2"]) == 0
        capsys.readouterr()
        sidecars = glob.glob(os.path.join(store_dir, "*", "*.npy"))
        if not sidecars:
            pytest.skip("no npy sidecars without numpy")
        target = max(sidecars, key=os.path.getsize)
        with open(target, "r+b") as handle:
            handle.truncate(os.path.getsize(target) // 2)

        # report-only: corrupt entries found -> exit 1, nothing moved
        assert main(["cache", "verify", store_dir]) == 1
        out = capsys.readouterr().out
        assert "1 corrupt" in out and "CORRUPT" in out
        assert not os.path.isdir(os.path.join(store_dir, "quarantine"))

        # --repair quarantines and exits 0; the store is then clean
        assert main(["cache", "verify", store_dir, "--repair"]) == 0
        assert "quarantined" in capsys.readouterr().out
        assert os.path.isdir(os.path.join(store_dir, "quarantine"))
        assert main(["cache", "verify", store_dir]) == 0
        assert "0 ok, 0 corrupt" in capsys.readouterr().out

    def test_verify_of_a_missing_store_is_an_error(self, tmp_path, capsys):
        missing = str(tmp_path / "no-such-store")
        assert main(["cache", "verify", missing]) == 2
        assert "error:" in capsys.readouterr().err


class TestSweepFaultOptions:
    @pytest.mark.parametrize(
        "flags",
        [["--shard-timeout", "-3"], ["--max-retries", "-1"]],
        ids=["negative-timeout", "negative-retries"],
    )
    def test_invalid_supervision_values_are_rejected_up_front(self, flags, capsys):
        # the supervision options no longer exist: passing one is a usage
        # error before any sweep work starts
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "MS2", "--max-defects", "2", "--densities", "1.0"] + flags)
        assert exit_info.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_build_threads_print_the_serial_rows(self, capsys):
        """``--workers``/``--jobs`` set build threads: the table is serial's."""
        argv = ["sweep", "MS2", "--densities", "0.5", "3.0", "--epsilon", "1e-3"]
        assert main(argv) == 0
        serial = capsys.readouterr().out.split("  time (s)")[0]
        for flag in ("--workers", "--jobs"):
            assert main(argv + [flag, "2", "--stats"]) == 0
            out = capsys.readouterr().out
            assert out.split("  time (s)")[0] == serial
            assert "service.batches.parallel" in out


class TestTelemetry:
    def test_sweep_exports_trace_and_metrics(self, tmp_path, capsys):
        from repro.obs import trace as obs_trace

        trace_file = tmp_path / "trace.json"
        metrics_file = tmp_path / "metrics.prom"
        code = main(
            [
                "sweep",
                "MS2",
                "--max-defects",
                "3",
                "--trace",
                str(trace_file),
                "--metrics",
                str(metrics_file),
            ]
        )
        assert code == 0
        assert obs_trace.active() is None  # the CLI stops its tracer
        out = capsys.readouterr().out
        assert "trace               :" in out
        assert str(trace_file) in out
        trace = json.loads(trace_file.read_text())
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in events}
        assert "cli.sweep" in names
        assert "service.build" in names
        assert "service.evaluate" in names
        metrics_text = metrics_file.read_text()
        assert "repro_service_points_requested" in metrics_text
        assert "repro_phase_build_seconds" in metrics_text

    def test_importance_exports_trace(self, tmp_path, capsys):
        trace_file = tmp_path / "trace.json"
        code = main(
            ["importance", "MS2", "--max-defects", "2", "--trace", str(trace_file)]
        )
        assert code == 0
        capsys.readouterr()
        names = {
            e["name"]
            for e in json.loads(trace_file.read_text())["traceEvents"]
            if e["ph"] == "X"
        }
        assert "cli.importance" in names
        assert "service.gradients" in names

    def test_trace_subcommand_renders_a_tree(self, tmp_path, capsys):
        trace_file = tmp_path / "trace.json"
        code = main(
            ["sweep", "MS2", "--max-defects", "3", "--trace", str(trace_file)]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["trace", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "cli.sweep" in out and "ms" in out
        # nesting by containment: service.build sits under cli.sweep
        build_lines = [l for l in out.splitlines() if "service.build" in l]
        assert build_lines and build_lines[0].startswith("  ")

    def test_trace_subcommand_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["trace", str(bad)]) == 2
        assert "error" in capsys.readouterr().err
        good_json_wrong_shape = tmp_path / "shape.json"
        good_json_wrong_shape.write_text("[1, 2, 3]")
        assert main(["trace", str(good_json_wrong_shape)]) == 2
        assert "not a Chrome trace-event file" in capsys.readouterr().err
