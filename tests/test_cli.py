"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "vxp" in out and "radix" in out and "fig09" in out


class TestSimulate:
    def test_basic_run(self, capsys):
        assert main(["simulate", "vb", "lu", "--refs", "10000"]) == 0
        out = capsys.readouterr().out
        assert "vb / lu" in out
        assert "read_miss_ratio_pct" in out

    def test_unknown_system_is_clean_error(self, capsys):
        assert main(["simulate", "warp", "lu", "--refs", "5000"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_benchmark_is_clean_error(self, capsys):
        assert main(["simulate", "vb", "linpack", "--refs", "5000"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_overrides(self, capsys):
        assert main([
            "simulate", "vb", "lu", "--refs", "10000",
            "--cache-assoc", "4", "--nc-size", "1024", "--moesir",
        ]) == 0

    def test_pc_options(self, capsys):
        assert main([
            "simulate", "ncp5", "barnes", "--refs", "10000",
            "--threshold", "4", "--fixed-threshold",
            "--decrement-on-invalidation",
        ]) == 0


class TestSweep:
    def test_grid_output(self, capsys):
        assert main(["sweep", "base,vb", "lu", "--refs", "10000"]) == 0
        out = capsys.readouterr().out
        assert "base" in out and "vb" in out and "lu" in out

    @pytest.mark.parametrize("metric", ["miss", "stall", "traffic"])
    def test_metrics(self, capsys, metric):
        assert main(
            ["sweep", "base", "lu", "--refs", "8000", "--metric", metric]
        ) == 0


class TestMalformedJobsEnv:
    """A non-integer REPRO_JOBS fails only the commands that read it."""

    @pytest.mark.parametrize("argv, status", [
        (["simulate", "base", "fft", "--refs", "5000"], 0),
        (["sweep", "base", "fft", "--refs", "5000", "--jobs", "1"], 0),
        (["sweep", "base", "fft", "--refs", "5000"], 2),
        (["explore", "--benchmarks", "fft", "--refs", "5000", "--no-simulate"], 2),
        (["experiment", "fig04", "--refs", "5000"], 2),
    ], ids=["simulate", "sweep-jobs-flag", "sweep", "explore", "experiment"])
    def test_clean_error_only_where_read(self, capsys, monkeypatch, argv, status):
        monkeypatch.setenv("REPRO_JOBS", "abc")
        # `experiment --refs` exports REPRO_BENCH_REFS; restore it afterwards
        monkeypatch.setenv("REPRO_BENCH_REFS", "5000")
        assert main(argv) == status
        if status:
            err = capsys.readouterr().err
            assert "error:" in err and "REPRO_JOBS" in err


class TestExperiment:
    def test_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0
        assert "Page relocation" in capsys.readouterr().out

    def test_unknown_name(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "available" in capsys.readouterr().err

    def test_fig04_tiny(self, capsys):
        assert main(["experiment", "fig04", "--refs", "6000"]) == 0
        assert "fig04" in capsys.readouterr().out


class TestTrace:
    def test_stats(self, capsys):
        assert main(["trace", "radix", "--refs", "10000", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "write fraction" in out

    def test_save(self, capsys, tmp_path):
        out_file = tmp_path / "t.npz"
        assert main(
            ["trace", "lu", "--refs", "10000", "--out", str(out_file)]
        ) == 0
        assert out_file.exists()

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--version"])
        assert e.value.code == 0


class TestSweepChart:
    def test_chart_mode(self, capsys):
        assert main(
            ["sweep", "base,vb", "lu", "--refs", "8000", "--metric",
             "stall", "--chart"]
        ) == 0
        out = capsys.readouterr().out
        assert "#" in out and "base" in out


class TestProfileFlags:
    def test_simulate_profile_prints_breakdown(self, capsys):
        assert main(
            ["simulate", "vb", "radix", "--refs", "10000", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "Eq. 1 stall attribution" in out
        assert "remote" in out and "nc_hit" in out

    def test_sweep_breakdown_metric(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert main(
            ["sweep", "base,vb", "radix", "--refs", "10000",
             "--metric", "breakdown"]
        ) == 0
        out = capsys.readouterr().out
        assert "Eq. 1 stall attribution — radix" in out
        assert "base" in out and "vb" in out and "(100%)" in out

    def test_sweep_breakdown_chart(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert main(
            ["sweep", "base,vb", "radix", "--refs", "10000",
             "--metric", "breakdown", "--chart"]
        ) == 0
        out = capsys.readouterr().out
        assert "Remote read stall attribution" in out and "@" in out


class TestTraceExport:
    def test_export_writes_valid_chrome_trace(self, capsys, tmp_path):
        from repro.obs.timeline import validate_chrome_trace

        out_file = tmp_path / "trace.json"
        assert main(
            ["trace", "export", "vpp5", "radix", "--refs", "10000",
             "--out", str(out_file)]
        ) == 0
        assert "trace events" in capsys.readouterr().out
        assert validate_chrome_trace(str(out_file)) == []

    def test_export_requires_system_and_benchmark(self, capsys):
        assert main(["trace", "export", "vpp5"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_plain_trace_rejects_stray_positionals(self, capsys):
        assert main(["trace", "radix", "vb", "--refs", "5000"]) == 2
        assert "unexpected" in capsys.readouterr().err


class TestTop:
    def test_board_for_finished_sweep(self, capsys, tmp_path):
        run_dir = tmp_path / "run"
        assert main(
            ["sweep", "base", "lu", "--refs", "8000",
             "--resume", str(run_dir)]
        ) == 0
        capsys.readouterr()
        assert main(["top", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "1/1 done" in out and "complete" in out

    def test_missing_run_dir_warns(self, capsys, tmp_path):
        assert main(["top", str(tmp_path / "nope")]) == 0
        captured = capsys.readouterr()
        assert "no run.json" in captured.err


class TestPerfJson:
    def test_json_report_feeds_the_regression_gate(self, capsys, tmp_path):
        import json

        json_path = tmp_path / "perf.json"
        assert main(
            ["perf", "--systems", "base", "--benchmarks", "lu",
             "--refs", "8000", "--json", str(json_path)]
        ) == 0
        doc = json.loads(json_path.read_text())
        names = [b["name"] for b in doc["benchmarks"]]
        assert "perf::lu" in names and "perf::sweep_total" in names
        for bench in doc["benchmarks"]:
            assert bench["extra_info"]["refs_per_sec"] > 0
        # the exact shape scripts/check_bench_regression.py consumes
        import importlib.util
        import pathlib

        script = (pathlib.Path(__file__).parent.parent
                  / "scripts" / "check_bench_regression.py")
        spec = importlib.util.spec_from_file_location("cbr", script)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        rates = mod.extract_refs_per_sec(str(json_path))
        assert rates["perf::lu"] > 0


_EXPLORE_SMALL = [
    "--benchmarks", "barnes,radix", "--refs", "5000", "--jobs", "1",
    "--families", "base,vb,vbp", "--nc-sizes", "8k,32k",
    "--pc-denoms", "5", "--thresholds", "2,8",
]


class TestExplore:
    def test_explore_reports_frontier_and_errors(self, capsys, tmp_path):
        import json

        json_path = tmp_path / "explore.json"
        assert main(
            ["explore", *_EXPLORE_SMALL, "--frontier-max", "3",
             "--json", str(json_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        assert "per-component surrogate error" in out
        doc = json.loads(json_path.read_text())
        assert doc["kind"] == "explore"
        assert doc["n_ranked"] == doc["space_size"]
        assert doc["frontier"]
        assert doc["validation"]["cells"] > 0

    def test_model_save_and_reuse(self, capsys, tmp_path):
        model_path = tmp_path / "model.json"
        assert main(
            ["explore", *_EXPLORE_SMALL, "--no-simulate",
             "--save-model", str(model_path)]
        ) == 0
        assert model_path.exists()
        assert main(
            ["explore", *_EXPLORE_SMALL, "--no-simulate",
             "--model", str(model_path)]
        ) == 0
        assert "pre-fitted" in capsys.readouterr().out

    def test_check_gates_against_baseline(self, capsys, tmp_path):
        import json

        loose = tmp_path / "loose.json"
        loose.write_text(json.dumps({
            "max_median_abs_total_error_pct": 1000.0,
            "min_candidates_ranked": 1,
        }))
        assert main(
            ["explore", "--check", *_EXPLORE_SMALL,
             "--baseline", str(loose)]
        ) == 0
        assert "within baseline" in capsys.readouterr().out

        strict = tmp_path / "strict.json"
        strict.write_text(json.dumps({
            "max_median_abs_total_error_pct": 0.0,
            "min_candidates_ranked": 10 ** 9,
        }))
        assert main(
            ["explore", "--check", *_EXPLORE_SMALL,
             "--baseline", str(strict)]
        ) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_missing_baseline_is_clean_error(self, capsys, tmp_path):
        assert main(
            ["explore", "--check", *_EXPLORE_SMALL,
             "--baseline", str(tmp_path / "nope.json")]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_size_list_is_clean_error(self, capsys):
        assert main(
            ["explore", "--no-simulate", "--nc-sizes", "huge"]
        ) == 2
        assert "error:" in capsys.readouterr().err
