import contextlib
import hashlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vortexopt.harness as harness
from helpers import strip_wall_column
from test_golden_reports import GOLDEN, RUN_ARGS, legacy_trace_view
from test_harness import fake_report
from vortexopt import VoaConfig
from vortexopt.cli import RUN_SETTINGS, build_parser, load_config_file, main, parse_plan
from vortexopt.harness import (
    REFERENCE_RESULTS,
    ExperimentPlan,
    RUNS_HEADER,
    make_plan,
    read_runs_csv,
    summarize,
    write_reports,
)

# `vortexopt list`'s stdout, byte for byte; the "(grid: ...)" text is derived
# from the reference table's cells.
LIST_GOLDEN = (
    "booth              d=2                          domain [-10, 10] x [-10, 10]              minimum 0\n"
    "beale              d=2                          domain [-4.5, 4.5] x [-4.5, 4.5]          minimum 0\n"
    "goldstein_price    d=2                          domain [-2, 2] x [-2, 2]                  minimum 3\n"
    "mccormick          d=2                          domain [-1.5, 4] x [-3, 4]                minimum -1.9133\n"
    "three_hump_camel   d=2                          domain [-5, 5] x [-5, 5]                  minimum 0\n"
    "sphere             d>=1 (grid: 2, 5, 10, 20, 30) domain [-100, 100] per coordinate         minimum 0\n"
    "rosenbrock         d>=2 (grid: 2, 5, 10, 20, 30) domain [-80, 80] per coordinate           minimum 0\n"
)

# One or more text values per run setting; repeatable settings take two.
SAMPLES = {
    "function": ["sphere", "booth"],
    "dim": ["2", "5"],
    "seeds": ["3"],
    "base-seed": ["7"],
    "particles": ["12"],
    "iterations": ["40"],
    "init-vorticity": ["0.25"],
    "max-vorticity": ["3.5"],
    "elimination": ["6"],
    "target-fitness": ["1e-8"],
    "jobs": ["2"],
    "out": ["res"],
    "trace-dir": ["traces"],
}


class TestParsePlan:
    def test_no_args_is_the_full_default_plan(self):
        plan, jobs = parse_plan([])
        assert len(plan.cells()) == 15
        assert plan.seeds == tuple(range(1, 21))
        assert plan.config.n_particles == 50
        assert plan.config.max_iterations == 5000
        assert plan.config.initial_vorticity == 0.5
        assert plan.config.max_vorticity == 7.0
        assert plan.config.threshold == 50
        assert jobs is None

    def test_single_cell_flags(self):
        plan, _ = parse_plan(["--function", "sphere", "--dim", "10", "--seeds", "5"])
        assert plan.cells() == [("sphere", 10)]
        assert plan.seeds == (1, 2, 3, 4, 5)

    def test_repeatable_function_flag(self):
        plan, _ = parse_plan(["--function", "sphere", "--function", "rosenbrock",
                              "--dim", "2", "--dim", "5"])
        assert plan.cells() == [("sphere", 2), ("sphere", 5),
                                ("rosenbrock", 2), ("rosenbrock", 5)]

    def test_each_function_runs_the_listed_dimensions_it_supports(self):
        plan, _ = parse_plan(["--function", "booth", "--function", "sphere",
                              "--dim", "2", "--dim", "5"])
        assert plan.cells() == [("booth", 2), ("sphere", 2), ("sphere", 5)]

    @pytest.mark.parametrize("argv", [
        ["--function", "booth", "--dim", "2", "--dim", "5"],
        ["--function", "booth", "--function", "beale", "--dim", "2", "--dim", "5"],
        ["--function", "booth", "--function", "sphere", "--dim", "5", "--dim", "10"],
    ])
    def test_dimension_that_no_function_can_run_raises(self, argv):
        with pytest.raises(ValueError, match="benchmark 'booth' supports only dimension 2"):
            parse_plan(argv)

    def test_unsupported_dimension_raises(self):
        with pytest.raises(ValueError, match="booth"):
            parse_plan(["--function", "booth", "--dim", "7"])

    def test_engine_parameters_map_to_config(self):
        plan, jobs = parse_plan([
            "--particles", "10", "--iterations", "100", "--init-vorticity", "0.25",
            "--max-vorticity", "3.0", "--elimination", "4", "--base-seed", "50",
            "--seeds", "2", "--jobs", "2",
        ])
        config = plan.config
        assert config.n_particles == 10
        assert config.max_iterations == 100
        assert config.initial_vorticity == 0.25
        assert config.max_vorticity == 3.0
        assert config.threshold == 4
        assert plan.seeds == (50, 51)
        assert jobs == 2


    @pytest.mark.parametrize("particles", [30, 80])
    def test_particles_alone_set_the_elimination_threshold(self, particles, capsys):
        plan, _ = parse_plan(["--particles", str(particles)])
        assert plan.config.threshold == plan.config.n_particles == particles
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--help"])
        assert "(default: the population size)" in " ".join(capsys.readouterr().out.split())


class TestConfigFile:
    def test_file_values_used_as_defaults(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# experiment settings\n"
            "function = sphere, rosenbrock\n"
            "dim = 2\n"
            "seeds = 4\n"
            "iterations = 123\n"
        )
        plan, _ = parse_plan(["--config", str(cfg)])
        assert plan.cells() == [("sphere", 2), ("rosenbrock", 2)]
        assert plan.seeds == (1, 2, 3, 4)
        assert plan.config.max_iterations == 123

    def test_cli_flags_override_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("iterations = 123\nseeds = 4\n")
        plan, _ = parse_plan(["--config", str(cfg), "--iterations", "55"])
        assert plan.config.max_iterations == 55
        assert plan.seeds == (1, 2, 3, 4)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("momentum = 0.9\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_config_file(cfg)

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("iterations\n")
        with pytest.raises(ValueError, match="expected"):
            load_config_file(cfg)

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("iterations = soon\n")
        with pytest.raises(ValueError, match="bad value"):
            load_config_file(cfg)

    @pytest.mark.parametrize("text,line,key", [
        ("function = sphere\ndim = ,\n", 2, "dim"),
        ("function = , ,\n", 1, "function"),
        ("seeds = 2\niterations =\n", 2, "iterations"),
    ])
    def test_value_of_only_commas_is_empty_naming_its_line(self, tmp_path, text, line, key):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        message = f"{cfg}:{line}: empty value for {key!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_config_file(cfg)

    def test_draw_mode_is_an_unknown_key_naming_its_line(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("seeds = 2\ndraw-mode = shared\n")
        with pytest.raises(ValueError, match=re.escape(f"{cfg}:2: unknown key 'draw-mode'")):
            load_config_file(cfg)

    @pytest.mark.parametrize("line", ["pull-epsilon = 1e-6", "min-vorticity = -2"])
    def test_fixed_engine_constant_is_an_unknown_key(self, tmp_path, line):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(line + "\n")
        key = line.split(" ")[0]
        with pytest.raises(ValueError, match=f"^{re.escape(f'{cfg}:1: unknown key {key!r}')}$"):
            load_config_file(cfg)

    def test_repeated_key_names_both_lines(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("iterations = 5\nseeds = 2\n# again\niterations = 7\n")
        assert main(["run", "--config", str(cfg), "--function", "booth", "--jobs", "1",
                     "--out", str(tmp_path / "res")]) == 2
        captured = capsys.readouterr()
        (err,) = captured.err.splitlines()
        assert err == f"error: {cfg}:4: repeated key 'iterations' (first on line 1)"
        assert captured.out == ""
        assert not (tmp_path / "res").exists()

    def test_file_that_is_not_utf8_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(b"seeds = 2\niterations = \xff\n")
        assert main(["run", "--config", str(cfg), "--function", "booth", "--jobs", "1",
                     "--out", str(tmp_path / "res")]) == 2
        captured = capsys.readouterr()
        (err,) = captured.err.splitlines()
        assert err.startswith(f"error: {cfg}: 'utf-8' codec can't decode")
        assert captured.out == ""
        assert not (tmp_path / "res").exists()


class TestRunSettings:
    def test_every_setting_has_a_sample(self):
        assert set(SAMPLES) == set(RUN_SETTINGS)

    @pytest.mark.parametrize("setting", RUN_SETTINGS.values(), ids=lambda s: s.flag)
    def test_flag_and_file_key_parse_alike(self, tmp_path, setting):
        texts = SAMPLES[setting.flag]
        assert (len(texts) > 1) == setting.repeat
        argv = ["run"] + [arg for text in texts for arg in (f"--{setting.flag}", text)]
        from_flag = getattr(build_parser().parse_args(argv), setting.flag.replace("-", "_"))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{setting.flag} = {', '.join(texts)}\n")
        assert from_flag is not None
        assert load_config_file(cfg) == {setting.flag: from_flag}

    def test_run_flags_are_exactly_the_settings(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--help"])
        flags = set(re.findall(r"--([a-z][a-z-]*)", capsys.readouterr().out))
        assert flags == set(RUN_SETTINGS) | {"config", "help"}

    def test_draw_mode_flag_exits_2_naming_the_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--draw-mode", "shared"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --draw-mode" in err

    @pytest.mark.parametrize("argv", [["--pull-epsilon", "1e-6"], ["--min-vorticity", "-2"]])
    def test_fixed_engine_constant_flag_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            parse_plan(argv)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err


class TestMain:
    def test_list_prints_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("booth", "beale", "goldstein_price", "mccormick",
                     "three_hump_camel", "sphere", "rosenbrock"):
            assert name in out

    def test_list_stdout_matches_golden(self, capsys):
        assert main(["list"]) == 0
        assert capsys.readouterr().out == LIST_GOLDEN

    def test_run_writes_reports(self, tmp_path, capsys):
        code = main([
            "run", "--function", "sphere", "--dim", "2", "--seeds", "2",
            "--iterations", "30", "--jobs", "1", "--out", str(tmp_path / "res"),
        ])
        assert code == 0
        runs = (tmp_path / "res" / "runs.csv").read_text().splitlines()
        assert runs[0] == RUNS_HEADER
        assert len(runs) == 3
        assert (tmp_path / "res" / "summary.csv").exists()
        out = capsys.readouterr().out
        assert "sphere" in out

    def test_run_reports_a_failed_run_and_warns(self, tmp_path, monkeypatch, capsys):
        real = harness.run

        def flaky(config, objective, seed):
            if seed == 2:
                raise RuntimeError("objective exploded")
            return real(config, objective, seed)

        monkeypatch.setattr(harness, "run", flaky)
        code = main(["run", "--function", "sphere", "--dim", "2", "--seeds", "2",
                     "--iterations", "5", "--jobs", "1", "--out", str(tmp_path / "res")])
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("[1/2] sphere d=2 seed=1 best=")
        assert err[1:] == ["[2/2] sphere d=2 seed=2 error=RuntimeError: objective exploded",
                           "warning: 1 run(s) failed; see runs.csv"]

    def test_run_rejects_bad_cell(self, capsys):
        code = main(["run", "--function", "booth", "--dim", "7"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_run_rejects_bad_config_value(self, capsys):
        code = main(["run", "--particles", "1", "--iterations", "5"])
        assert code == 2
        assert "n_particles" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_run_rejects_jobs_below_one_before_running(self, tmp_path, monkeypatch, capsys,
                                                       jobs):
        def no_run(*args, **kwargs):
            raise AssertionError("a run or a pool was started")

        monkeypatch.setattr(harness, "run", no_run)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_run)
        code = main(["run", "--function", "sphere", "--dim", "2", "--seeds", "2",
                     "--jobs", jobs, "--out", str(tmp_path / "res")])
        assert code == 2
        assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("flag", ["--out", "--trace-dir"])
    def test_run_rejects_a_file_as_output_directory_before_running(self, tmp_path,
                                                                   monkeypatch, capsys, flag):
        def no_run(*args, **kwargs):
            raise AssertionError("a run was started")

        monkeypatch.setattr(harness, "run", no_run)
        blocker = tmp_path / "file"
        blocker.write_text("")
        paths = {"--out": str(tmp_path / "res"), "--trace-dir": str(tmp_path / "traces"),
                 flag: str(blocker)}
        code = main(["run", "--function", "sphere", "--dim", "2", "--seeds", "2",
                     "--iterations", "5", "--jobs", "1", *(a for kv in paths.items() for a in kv)])
        assert code == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith("error: ") and str(blocker) in err
        assert not (tmp_path / "res" / "runs.csv").exists()
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("flag,field", [("--out", "out_dir"), ("--trace-dir", "trace_dir")])
    def test_run_rejects_an_empty_path_before_running(self, tmp_path, monkeypatch, capsys,
                                                      flag, field):
        def no_run(*args, **kwargs):
            raise AssertionError("a run was started")

        monkeypatch.setattr(harness, "run", no_run)
        monkeypatch.chdir(tmp_path)
        paths = {"--out": str(tmp_path / "res"), "--trace-dir": str(tmp_path / "traces"),
                 flag: ""}
        code = main(["run", "--function", "sphere", "--dim", "2", "--seeds", "2",
                     "--iterations", "5", "--jobs", "1", *(a for kv in paths.items() for a in kv)])
        assert code == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err == f"error: {field} must be a non-empty path, got ''"
        assert list(tmp_path.iterdir()) == []

    def test_run_gives_a_dimension_outside_the_grid_its_own_column(self, tmp_path, capsys):
        out = tmp_path / "res"
        assert main(["run", "--function", "sphere", "--dim", "3", "--seeds", "2",
                     "--iterations", "20", "--jobs", "1", "--out", str(out)]) == 0
        table = capsys.readouterr().out.splitlines()
        assert table[1].split() == ["function", "d=2", "d=5", "d=10", "d=20", "d=30", "d=3"]
        sphere = next(line for line in table if line.startswith("sphere")).split()
        assert sphere[1:6] == ["NA"] * 5 and sphere[6] != "NA"
        header, *rows = (out / "summary.csv").read_text().splitlines()
        assert header == "function,d2,d5,d10,d20,d30,d3"
        sphere = next(row for row in rows if row.startswith("sphere,")).split(",")
        assert sphere[1:6] == ["NA"] * 5 and sphere[6] != "NA"

    @pytest.mark.parametrize("argv", [
        ["--function", "rosenbrock", "--dim", "5", "--dim", "10", "--seeds", "1",
         "--iterations", "1"],
        ["--function", "mccormick", "--function", "sphere", "--dim", "2", "--seeds", "2",
         "--iterations", "50"],
    ])
    def test_run_grid_prints_the_cells_of_summary_csv(self, tmp_path, capsys, argv):
        out = tmp_path / "res"
        assert main(["run", *argv, "--jobs", "1", "--out", str(out)]) == 0
        table = capsys.readouterr().out.splitlines()[1:]
        header, *rows = (out / "summary.csv").read_text().splitlines()
        assert len(table[0].split()) == len(header.split(","))
        for line, row in zip(table[1:], rows):
            assert line.split() == row.split(","), line
    def test_check_requires_existing_results(self, tmp_path, capsys):
        code = main(["check", "--out", str(tmp_path / "missing")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def _write_runs(self, path, rows, seeds=None):
        """Write ``rows`` of (function, dimension, seed, best) to runs.csv through
        ``write_reports``, which records their plan in summary.json: the rows' cells in
        row order, their seeds unless ``seeds`` names the plan's, the default config."""
        reports = [fake_report(*row) for row in rows]
        dimensions = {}
        for function, dim in dict.fromkeys((f, d) for f, d, _, _ in rows):
            dimensions.setdefault(function, []).append(dim)
        seeds = list(dict.fromkeys(s for _, _, s, _ in rows)) if seeds is None else seeds
        write_reports(reports, summarize(reports),
                      ExperimentPlan(dimensions, seeds, VoaConfig(), out_dir=path))

    def test_check_without_a_reference_cell_exits_2(self, tmp_path, capsys):
        out = tmp_path / "res"
        self._write_runs(out, [("sphere", 3, s, 1e-9) for s in (1, 2)])
        assert main(["check", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no checkable cells in the plan\n"

    def test_check_fails_a_planned_cell_with_no_rows(self, tmp_path, capsys):
        out = tmp_path / "res"
        self._write_runs(out, [(f, 2, s, 1e-9) for f in ("booth", "sphere") for s in (1, 2)])
        runs = out / "runs.csv"
        runs.write_text("".join(line for line in runs.read_text().splitlines(keepends=True)
                                if not line.startswith("sphere,")))
        assert main(["check", "--out", str(out)]) == 1
        booth, sphere = capsys.readouterr().out.splitlines()
        assert booth.startswith("PASS booth d=2 median=1.000000e-09 ")
        assert sphere == "FAIL sphere d=2 has no successful run"

    def test_check_fails_the_rows_of_a_cell_the_plan_lacks(self, tmp_path, capsys):
        out = tmp_path / "res"
        self._write_runs(out, [("sphere", 2, s, 1e-9) for s in (1, 2)])
        with (out / "runs.csv").open("a") as fh:
            fh.write("booth,2,1,1.00000e-09,100,10,1.000,0.0;0.0\n"
                     "sphere,3,1,1.00000e-09,100,10,1.000,0.0;0.0;0.0\n")
        assert main(["check", "--out", str(out)]) == 1
        sphere, booth, sphere3 = capsys.readouterr().out.splitlines()
        assert sphere.startswith("PASS sphere d=2 ") and ";" not in sphere
        assert booth == "FAIL booth d=2 is not in the plan"
        assert sphere3 == "FAIL sphere d=3 is not in the plan"

    def test_check_names_a_config_field_of_the_wrong_type(self, tmp_path, capsys):
        out = tmp_path / "res"
        self._write_runs(out, [("sphere", 2, s, 1e-9) for s in (1, 2)])
        summary = json.loads((out / "summary.json").read_text())
        summary["config"]["max_iterations"] = "abc"
        (out / "summary.json").write_text(json.dumps(summary))
        assert main(["check", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: {out / 'summary.json'}: max_iterations must be an "
                                "integer, got 'abc'\n")
        assert captured.out == ""

    def test_check_refuses_a_config_run_does_not_write(self, tmp_path, capsys):
        out = tmp_path / "res"
        self._write_runs(out, [("sphere", 2, s, 1e-9) for s in (1, 2)])
        summary = json.loads((out / "summary.json").read_text())
        summary["config"]["min_vorticity"] = -2.5
        (out / "summary.json").write_text(json.dumps(summary))
        assert main(["check", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: {out / 'summary.json'}: config min_vorticity=-2.5 "
                                "is not what run writes\n")
        assert captured.out == ""

    @pytest.mark.parametrize("entry", [None, "cells", "seeds", "config", "n_particles"])
    def test_check_names_a_missing_plan_record(self, tmp_path, capsys, entry):
        out = tmp_path / "res"
        self._write_runs(out, [("sphere", 2, s, 1e-9) for s in (1, 2)])
        path = out / "summary.json"
        if entry is None:
            path.unlink()
        else:
            summary = json.loads(path.read_text())
            del (summary["config"] if entry == "n_particles" else summary)[entry]
            path.write_text(json.dumps(summary))
        assert main(["check", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: {path} not found; run `vortexopt run` first\n"
                                if entry is None else f"error: {path}: no {entry!r} entry\n")
        assert captured.out == ""

    def test_check_passes_good_results(self, tmp_path, capsys):
        out = tmp_path / "res"
        self._write_runs(out, [("sphere", 2, s, 1e-9) for s in (1, 2, 3)])
        assert main(["check", "--out", str(out)]) == 0
        assert "PASS sphere d=2" in capsys.readouterr().out

    def test_check_fails_bad_results(self, tmp_path, capsys):
        out = tmp_path / "res"
        self._write_runs(out, [("sphere", 2, s, 0.5) for s in (1, 2, 3)])
        assert main(["check", "--out", str(out)]) == 1
        assert "FAIL sphere d=2" in capsys.readouterr().out

    def test_check_mixed_results_exit_nonzero(self, tmp_path, capsys):
        out = tmp_path / "res"
        self._write_runs(out, [("sphere", 2, 1, 1e-9), ("booth", 2, 1, 0.7)])
        assert main(["check", "--out", str(out)]) == 1
        text = capsys.readouterr().out
        assert "PASS sphere d=2" in text
        assert "FAIL booth d=2" in text

    @pytest.mark.parametrize("passing", [["PASS booth d=2"], []])
    def test_check_fails_a_cell_whose_every_run_failed(self, tmp_path, capsys, passing):
        out = tmp_path / "res"
        self._write_runs(out, [*(("booth", 2, s, 1e-9) for s in (1, 2) if passing),
                               ("sphere", 2, 1, np.nan), ("sphere", 2, 2, np.nan)])
        assert main(["check", "--out", str(out)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" median=")[0] for line in lines] == [
            *passing, "FAIL sphere d=2 has no successful run"]

    def test_check_names_and_fails_a_cell_with_failed_seeds(self, tmp_path, capsys):
        out = tmp_path / "res"
        self._write_runs(out, [("sphere", 2, 1, 1e-9), ("sphere", 2, 2, np.nan),
                               ("sphere", 2, 3, np.inf),
                               *(("booth", 2, s, 1e-9) for s in (1, 2, 3))])
        assert main(["check", "--out", str(out)]) == 1
        sphere, booth = capsys.readouterr().out.splitlines()
        assert sphere.startswith("FAIL sphere d=2 median=1.000000e-09 ")
        assert sphere.endswith("rule: median <= 0.0001; failed seeds 2, 3")
        assert booth.startswith("PASS booth d=2 ") and "seeds" not in booth

    def test_check_names_and_fails_missing_planned_seeds(self, tmp_path, capsys):
        out = tmp_path / "res"
        rows = [("sphere", 2, 1, 1e-9), ("sphere", 2, 3, 1e-9), ("sphere", 2, 4, np.nan)]
        self._write_runs(out, rows, seeds=[1, 2, 3, 4, 5])
        assert main(["check", "--out", str(out)]) == 1
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith("FAIL sphere d=2 median=1.000000e-09 ")
        assert line.endswith("; failed seeds 4; missing seeds 2, 5")
        self._write_runs(out, rows, seeds=[1, 3])
        assert main(["check", "--out", str(out)]) == 1
        assert capsys.readouterr().out.splitlines()[0].endswith(
            "; failed seeds 4; unplanned seeds 4")
        # A run the plan did not make moves the median: 1.22e-1 over seeds 1 to 3,
        # where the planned seeds 1 and 2 give 2.10e-1.
        booth = tmp_path / "booth"
        assert main(["run", "--function", "booth", "--seeds", "3", "--iterations", "5",
                     "--jobs", "1", "--out", str(booth)]) == 0
        summary = json.loads((booth / "summary.json").read_text())
        summary.update(seeds=[1, 2], config=VoaConfig().resolved())
        (booth / "summary.json").write_text(json.dumps(summary))
        capsys.readouterr()
        assert main(["check", "--out", str(booth)]) == 1
        assert capsys.readouterr().out == (
            "FAIL booth d=2 median=1.221670e-01 reference=0.0000 rule: median <= 0.0001"
            "; unplanned seeds 3\n")

    @pytest.mark.parametrize("seeds,named", [("1", "seeds must be a list, got '1'"),
                                             ([1, 2.0], "seeds[1] must be an integer"),
                                             ([True], "seeds[0] must be an integer"),
                                             ([-1], "seeds[0] must lie in"),
                                             ([1, 1], "seeds must be pairwise distinct")])
    def test_check_names_bad_planned_seeds(self, tmp_path, capsys, seeds, named):
        out = tmp_path / "res"
        self._write_runs(out, [("sphere", 2, s, 1e-9) for s in (1, 2)])
        summary = json.loads((out / "summary.json").read_text())
        (out / "summary.json").write_text(json.dumps({**summary, "seeds": seeds}))
        assert main(["check", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        (err,) = captured.err.splitlines()
        assert err.startswith(f"error: {out / 'summary.json'}: {named}")
        assert captured.out == ""

    def test_check_rejects_a_repeated_run(self, tmp_path, capsys):
        out = tmp_path / "res"
        self._write_runs(out, [("sphere", 2, s, 1e-9) for s in (1, 2, 1)])
        assert main(["check", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        (err,) = captured.err.splitlines()
        assert err == (f"error: {out / 'runs.csv'}:4: repeated run sphere d=2 seed=1 "
                       "(first on line 2)")
        assert captured.out == ""

    def test_check_fails_cells_run_with_another_config(self, tmp_path, capsys):
        out = tmp_path / "res"
        assert main(["run", "--function", "sphere", "--dim", "2", "--seeds", "2",
                     "--iterations", "50", "--jobs", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["check", "--out", str(out)]) == 1
        gated = capsys.readouterr()
        (line,) = gated.out.splitlines()
        assert line.startswith("FAIL sphere d=2 ")
        assert line.endswith("; non-default config max_iterations=50")
        assert gated.err == ""
        # Without summary.json the plan and its config are unknown, and nothing is judged.
        (out / "summary.json").unlink()
        assert main(["check", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: {out / 'summary.json'} not found; "
                                           "run `vortexopt run` first\n")

    def test_check_silent_for_the_default_config(self, tmp_path, capsys):
        out = tmp_path / "res"
        self._write_runs(out, [("sphere", 2, s, 1e-9) for s in (9, 10, 11)])
        reports = read_runs_csv(out / "runs.csv")
        plan = make_plan(functions=["sphere"], dims=[2], seed_count=3, base_seed=9, out_dir=out)
        write_reports(reports, summarize(reports), plan)
        record = json.loads((out / "summary.json").read_text())
        assert "seed" not in record["config"] and record["seeds"] == [9, 10, 11]
        assert main(["check", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("summary", [{"rows": []}, {"config": None}, [], "text"])
    def test_check_reads_a_summary_without_a_config_as_missing(self, tmp_path, capsys,
                                                               summary):
        # The plan record is missing, so check exits 2 naming the file, as for no file.
        out = tmp_path / "res"
        self._write_runs(out, [("sphere", 2, s, 1e-9) for s in (1, 2, 3)])
        (out / "summary.json").write_text(json.dumps(summary))
        assert main(["check", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        (err,) = captured.err.splitlines()
        named = "no 'cells' entry" if isinstance(summary, dict) else "needs a config object"
        assert err.startswith(f"error: {out / 'summary.json'}: {named}")
        assert captured.out == ""

    @pytest.mark.parametrize("content", [b"{", b'{"config": {}', b"\xff"])
    def test_check_names_a_summary_that_is_not_json(self, tmp_path, capsys, content):
        out = tmp_path / "res"
        self._write_runs(out, [("sphere", 2, s, 1e-9) for s in (1, 2, 3)])
        (out / "summary.json").write_bytes(content)
        assert main(["check", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        (err,) = captured.err.splitlines()
        assert err.startswith(f"error: {out / 'summary.json'} is not valid JSON")
        assert captured.out == ""

    def test_check_names_a_bad_runs_csv(self, tmp_path, capsys):
        out = tmp_path / "res"
        out.mkdir()
        (out / "runs.csv").write_text("function,dimension\nsphere,2\n")
        assert main(["check", "--out", str(out)]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(f"error: {out / 'runs.csv'}: missing column(s) seed,")

    def test_check_names_a_runs_csv_repeated_column(self, tmp_path, capsys):
        out = tmp_path / "res"
        self._write_runs(out, [("sphere", 2, s, 1e-9) for s in (1, 2)])
        runs = out / "runs.csv"
        header, *rows = runs.read_text().splitlines()
        runs.write_text("\n".join([f"{header},seed", *(f"{row},7" for row in rows)]) + "\n")
        assert main(["check", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        (err,) = captured.err.splitlines()
        assert err == f"error: {runs}: repeated column(s) seed"
        assert captured.out == ""

    @pytest.mark.parametrize("row", ["sphere,2,2,1.0e-09,100,10,1.000",
                                     "sphere,2,2,1.0e-09,100,10,1.000,0.0,0.0"])
    def test_check_names_a_runs_csv_row_of_the_wrong_length(self, tmp_path, capsys, row):
        out = tmp_path / "res"
        self._write_runs(out, [("sphere", 2, s, 1e-9) for s in (1, 3)])
        runs = out / "runs.csv"
        header, first, last = runs.read_text().splitlines()
        runs.write_text("\n".join([header, first, row, last]) + "\n")
        assert main(["check", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        (err,) = captured.err.splitlines()
        assert err.startswith(f"error: {runs}:3: {row.count(',') + 1} cells, but the header has 8")
        assert captured.out == ""

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "vortexopt", "list"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "rosenbrock" in proc.stdout


# Configurations that differ from the default in one field.
_ONE_FIELD_CHANGED = [{"n_particles": 12}, {"max_iterations": 40},
                      {"initial_vorticity": 0.25}, {"max_vorticity": 3.5},
                      {"elimination_threshold": 6}, {"target_fitness": 1e-8}]


@st.composite
def _check_inputs(draw):
    """``(cells, rows, planned, overrides)``: the plan's cells and seeds, each row
    ``(function, dimension, seed, best)`` with NaN for a failed run, in any order. A
    planned seed of a planned cell has a best on either side of the cell's rule, NaN or
    no row, so a planned cell may have no rows; up to two rows hold seeds the plan lacks,
    and up to two more a table cell the plan lacks."""
    cells = draw(st.lists(st.sampled_from(list(REFERENCE_RESULTS)), min_size=1, max_size=3,
                          unique=True))
    planned = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True))

    def bests(cell):
        reference, rule, tol = REFERENCE_RESULTS[cell]
        centre = reference if rule == "near" else 0.0
        return st.floats(-2.0, 2.0).map(lambda x: centre + x * tol) | st.just(float("nan"))

    rows = []
    for cell in cells:
        cell_rows = [(*cell, seed, draw(bests(cell) | st.none())) for seed in planned]
        rows += [row for row in cell_rows if row[3] is not None]
    for cell, seed in draw(st.lists(st.tuples(st.sampled_from(cells), st.integers(7, 8)),
                                    max_size=2, unique=True)):
        rows.append((*cell, seed, draw(bests(cell))))
    other = draw(st.none() | st.sampled_from([c for c in REFERENCE_RESULTS if c not in cells]))
    if other is not None:
        for seed in draw(st.lists(st.integers(1, 8), min_size=1, max_size=2, unique=True)):
            rows.append((*other, seed, draw(bests(other))))
    overrides = draw(st.just({}) | st.sampled_from(_ONE_FIELD_CHANGED))
    return cells, draw(st.permutations(rows)), planned, overrides


class TestCheckVerdict:
    @settings(max_examples=60, deadline=None)
    @given(case=_check_inputs())
    # A run the plan did not make moves the median across the rule: 1.25e-4 over
    # the plan's seeds, 5e-5 with it.
    @example(case=([("booth", 2)], [("booth", 2, 1, 5e-5), ("booth", 2, 2, 2e-4),
                                    ("booth", 2, 3, 1e-9)], [1, 2], {}))
    # A planned cell with no rows fails, however the other cells fare.
    @example(case=([("booth", 2), ("sphere", 2)], [("booth", 2, 1, 1e-9)], [1], {}))
    def test_a_cell_passes_on_its_rule_over_exactly_the_planned_seeds(self, tmp_path_factory,
                                                                     case):
        cells, rows, planned, overrides = case
        out = tmp_path_factory.mktemp("check")
        reports = [fake_report(f, d, seed, best, error="boom" if np.isnan(best) else None)
                   for f, d, seed, best in rows]
        dimensions = {}
        for function, dimension in cells:
            dimensions.setdefault(function, []).append(dimension)
        plan = ExperimentPlan(dimensions, planned, VoaConfig(**overrides), out_dir=out)
        write_reports(reports, summarize(reports), plan)
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = main(["check", "--out", str(out)])

        runs = {}
        for r in read_runs_csv(out / "runs.csv"):  # the bests as runs.csv rounds them
            runs.setdefault((r.function, r.dimension), {})[r.seed] = r.best_fitness
        expected = []  # (cell, passed, what the line says after the cell), in plan order
        for cell in plan.cells():
            seeds = runs.get(cell, {})
            bests = [best for best in seeds.values() if np.isfinite(best)]
            if not bests:
                expected.append((cell, False, "has no successful run"))
                continue
            median = np.median(bests)
            reference, rule, tol = REFERENCE_RESULTS[cell]
            passed = (median <= tol if rule == "max" else abs(median - reference) <= tol)
            expected.append((cell, passed and len(bests) == len(seeds) and not overrides
                             and sorted(seeds) == sorted(planned), "median"))
        # then each cell the plan lacks, in runs.csv's order
        expected += [(cell, False, "is not in the plan") for cell in runs
                     if cell not in plan.cells()]
        verdicts = []
        for line in stdout.getvalue().splitlines():
            verdict, function, dimension, said = line.split(" ", 3)
            verdicts.append(((function, int(dimension.removeprefix("d="))), verdict == "PASS",
                             "median" if said.startswith("median=") else said))
        assert verdicts == expected
        assert code == (0 if all(passed for _, passed, _ in expected) else 1)


class TestTraceOutput:
    def test_trace_dir_flag(self, tmp_path):
        code = main([
            "run", "--function", "booth", "--dim", "2", "--seeds", "1",
            "--iterations", "25", "--jobs", "1",
            "--out", str(tmp_path / "res"), "--trace-dir", str(tmp_path / "traces"),
        ])
        assert code == 0
        trace = (tmp_path / "traces" / "booth_d2_s1.csv").read_text().splitlines()
        assert trace[0] == ("iteration,best_fitness_so_far,mean_fitness,vortex_count,"
                            "eliminations_triggered,non_finite_evals")
        assert len(trace) == 27
        first = np.array(trace[1].split(","), dtype=object)
        assert first[0] == "0"

    def test_pool_workers_write_the_golden_traces(self, tmp_path):
        args = list(RUN_ARGS)
        traces = {}
        for jobs in ("1", "2"):
            args[args.index("--jobs") + 1] = jobs
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main(["run", *args, "--out", str(tmp_path / f"res{jobs}"),
                             "--trace-dir", str(tmp_path / f"traces{jobs}")]) == 0
            traces[jobs] = {p.name: p.read_text(encoding="utf-8")
                            for p in sorted((tmp_path / f"traces{jobs}").iterdir())}
        assert len(traces["2"]) == 6
        assert traces["2"] == traces["1"]
        pooled = traces["2"]["sphere_d5_s2.csv"]
        runs = strip_wall_column((tmp_path / "res2" / "runs.csv").read_text(encoding="utf-8"))
        for text, name in ((pooled, "trace_full"), (legacy_trace_view(pooled), "trace"),
                           (runs, "runs.csv")):
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[name], name
