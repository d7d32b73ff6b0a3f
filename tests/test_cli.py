import numpy as np
import pytest

from vortexopt.cli import load_config_file, main, parse_plan
from vortexopt.harness import RUNS_HEADER


class TestParsePlan:
    def test_no_args_is_the_full_default_plan(self):
        plan, jobs = parse_plan([])
        assert len(plan.cells()) == 15
        assert plan.seeds == tuple(range(1, 21))
        assert plan.config.n_particles == 50
        assert plan.config.max_iterations == 5000
        assert plan.config.initial_vorticity == 0.5
        assert plan.config.max_vorticity == 7.0
        assert plan.config.elimination_threshold == 50
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
            "--seeds", "2", "--draw-mode", "shared", "--jobs", "2",
        ])
        config = plan.config
        assert config.n_particles == 10
        assert config.max_iterations == 100
        assert config.initial_vorticity == 0.25
        assert config.max_vorticity == 3.0
        assert config.min_vorticity == -3.0
        assert config.elimination_threshold == 4
        assert config.per_coordinate_draws is False
        assert plan.seeds == (50, 51)
        assert jobs == 2


class TestConfigFile:
    def test_file_values_used_as_defaults(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# experiment settings\n"
            "function = sphere, rosenbrock\n"
            "dim = 2\n"
            "seeds = 4\n"
            "iterations = 123\n"
            "draw-mode = shared\n"
        )
        plan, _ = parse_plan(["--config", str(cfg)])
        assert plan.cells() == [("sphere", 2), ("rosenbrock", 2)]
        assert plan.seeds == (1, 2, 3, 4)
        assert plan.config.max_iterations == 123
        assert plan.config.per_coordinate_draws is False

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


class TestMain:
    def test_list_prints_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("booth", "beale", "goldstein_price", "mccormick",
                     "three_hump_camel", "sphere", "rosenbrock"):
            assert name in out

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

    def test_run_rejects_bad_cell(self, capsys):
        code = main(["run", "--function", "booth", "--dim", "7"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_run_rejects_bad_config_value(self, capsys):
        code = main(["run", "--particles", "1", "--iterations", "5"])
        assert code == 2
        assert "n_particles" in capsys.readouterr().err

    def test_check_requires_existing_results(self, tmp_path, capsys):
        code = main(["check", "--out", str(tmp_path / "missing")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def _write_runs(self, path, rows):
        lines = [RUNS_HEADER]
        for function, dim, seed, best in rows:
            lines.append(f"{function},{dim},{seed},{best:.5e},100,10,1.000,0.0")
        path.mkdir(parents=True)
        (path / "runs.csv").write_text("\n".join(lines) + "\n")

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

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "vortexopt", "list"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "rosenbrock" in proc.stdout


class TestTraceOutput:
    def test_trace_dir_flag(self, tmp_path):
        code = main([
            "run", "--function", "booth", "--dim", "2", "--seeds", "1",
            "--iterations", "25", "--jobs", "1",
            "--out", str(tmp_path / "res"), "--trace-dir", str(tmp_path / "traces"),
        ])
        assert code == 0
        trace = (tmp_path / "traces" / "booth_d2_s1.csv").read_text().splitlines()
        assert trace[0] == "iteration,best_fitness,mean_fitness,vortex_count,eliminated"
        assert len(trace) == 27
        first = np.array(trace[1].split(","), dtype=object)
        assert first[0] == "0"
