import dataclasses

import numpy as np
import pytest

import vortexopt.harness as harness
from helpers import strip_wall_column
from vortexopt import (
    ExperimentPlan,
    SummaryRow,
    VoaConfig,
    evaluate_checks,
    execute_plan,
    make_plan,
    summarize,
    write_reports,
)
from vortexopt.engine import RunReport
from vortexopt.harness import (
    REFERENCE_RESULTS,
    RUNS_HEADER,
    SUMMARY_HEADER,
    TRACE_HEADER,
    read_runs_csv,
)


def small_plan(tmp_path, **kwargs):
    defaults = dict(
        functions=["booth", "beale"],
        dims=[2],
        seed_count=3,
        config_overrides={"max_iterations": 40},
        out_dir=tmp_path / "out",
    )
    defaults.update(kwargs)
    return make_plan(**defaults)


def fake_report(function, dimension, seed, best, error=None):
    return RunReport(
        function=function, dimension=dimension, seed=seed,
        best_fitness=best, best_position=np.zeros(dimension),
        evaluations=100, iterations=10, wall_time_ms=1.0,
        config=VoaConfig(seed=seed), trace=None, error=error,
    )


class TestMakePlan:
    def test_default_plan_covers_the_full_grid(self, tmp_path):
        plan = make_plan(out_dir=tmp_path)
        assert len(plan.dimensions) == 7
        assert plan.cells() == [
            ("booth", 2), ("beale", 2), ("goldstein_price", 2),
            ("mccormick", 2), ("three_hump_camel", 2),
            ("sphere", 2), ("sphere", 5), ("sphere", 10), ("sphere", 20), ("sphere", 30),
            ("rosenbrock", 2), ("rosenbrock", 5), ("rosenbrock", 10),
            ("rosenbrock", 20), ("rosenbrock", 30),
        ]
        assert plan.seeds == tuple(range(1, 21))
        assert plan.config == VoaConfig()
        assert plan.n_runs == 300

    def test_single_cell_plan(self, tmp_path):
        plan = make_plan(functions=["sphere"], dims=[10], seed_count=5, out_dir=tmp_path)
        assert plan.cells() == [("sphere", 10)]
        assert plan.seeds == (1, 2, 3, 4, 5)

    def test_base_seed_offsets_the_seed_range(self, tmp_path):
        plan = make_plan(seed_count=4, base_seed=100, out_dir=tmp_path)
        assert plan.seeds == (100, 101, 102, 103)

    def test_unsupported_dimension_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="booth"):
            make_plan(functions=["booth"], dims=[7], out_dir=tmp_path)

    @pytest.mark.parametrize("name,dim", [("booth", 7), ("rosenbrock", 1)])
    def test_unsupported_dimension_error_matches_get_objective(self, tmp_path, name, dim):
        with pytest.raises(ValueError) as from_plan:
            make_plan(functions=[name], dims=[dim], out_dir=tmp_path)
        with pytest.raises(ValueError) as from_objective:
            harness.get_objective(name, dim)
        assert str(from_plan.value) == str(from_objective.value)

    @pytest.mark.parametrize("kwargs,field", [
        ({"base_seed": 1.5}, "base_seed"),
        ({"base_seed": True}, "base_seed"),
        ({"base_seed": "3"}, "base_seed"),
        ({"seed_count": 2.7}, "seed_count"),
        ({"seed_count": True}, "seed_count"),
        ({"base_seed": 1.5, "seed_count": 2.7}, "base_seed"),
    ])
    def test_non_integer_seed_arguments_rejected(self, tmp_path, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            make_plan(out_dir=tmp_path, **kwargs)

    @pytest.mark.parametrize("base,count", [(-1, 1), (2**64, 1), (2**64 - 1, 3), (2**64 - 2, 3)])
    def test_seeds_beyond_64_bits_rejected_when_planned(self, tmp_path, base, count):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64 - 1\]"):
            make_plan(base_seed=base, seed_count=count, out_dir=tmp_path)

    def test_last_64_bit_seed_accepted(self, tmp_path):
        plan = make_plan(base_seed=2**64 - 2, seed_count=2, out_dir=tmp_path)
        assert plan.seeds == (2**64 - 2, 2**64 - 1)

    def test_numpy_integer_seed_arguments_accepted(self, tmp_path):
        plan = make_plan(base_seed=np.int64(5), seed_count=np.uint8(2), out_dir=tmp_path)
        assert plan.seeds == (5, 6)
        assert all(type(seed) is int for seed in plan.seeds)

    def test_plan_built_directly_checks_its_seeds(self, tmp_path):
        with pytest.raises(ValueError, match="seed must be an integer"):
            ExperimentPlan(dimensions={"booth": (2,)},
                           seeds=(1, 2.5), config=VoaConfig(), out_dir=tmp_path)

    @pytest.mark.parametrize("dims", [[2.0], [2, 5.0], [True], ["2"]])
    def test_non_integer_dimensions_rejected(self, tmp_path, dims):
        with pytest.raises(ValueError, match="^dimension must be an integer"):
            make_plan(functions=["booth", "sphere"], dims=dims, out_dir=tmp_path)

    def test_plan_built_directly_checks_its_dimensions(self, tmp_path):
        with pytest.raises(ValueError, match="^dimension must be an integer"):
            ExperimentPlan(dimensions={"sphere": (2.0,)},
                           seeds=(1,), config=VoaConfig(), out_dir=tmp_path)

    def test_numpy_integer_dimensions_accepted(self, tmp_path):
        plan = make_plan(functions=["sphere"], dims=[np.int64(2), np.uint8(5)],
                         out_dir=tmp_path)
        assert plan.cells() == [("sphere", 2), ("sphere", 5)]

    def test_duplicate_functions_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="functions must be pairwise distinct"):
            make_plan(functions=["sphere", "sphere"], dims=[2], out_dir=tmp_path)

    def test_duplicate_dimensions_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="dimensions of 'sphere' must be pairwise distinct"):
            make_plan(functions=["sphere"], dims=[2, 2], out_dir=tmp_path)

    def test_unknown_function_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown"):
            make_plan(functions=["nope"], out_dir=tmp_path)

    def test_duplicate_seeds_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="distinct"):
            ExperimentPlan(
                dimensions={"booth": (2,)},
                seeds=(1, 1), config=VoaConfig(), out_dir=tmp_path,
            )

    def test_cells_follow_the_order_of_dimensions(self, tmp_path):
        plan = dataclasses.replace(make_plan(out_dir=tmp_path),
                                   dimensions={"sphere": (5, 2), "booth": (2,)}, seeds=(3,))
        assert plan.cells() == [("sphere", 5), ("sphere", 2), ("booth", 2)]
        assert plan.n_runs == 3

    def test_plan_without_functions_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="plan selects no benchmark functions"):
            ExperimentPlan(dimensions={}, seeds=(1,), config=VoaConfig(), out_dir=tmp_path)

    def test_config_overrides_applied(self, tmp_path):
        plan = make_plan(config_overrides={"max_iterations": 10, "n_particles": 8,
                                           "elimination_threshold": 8}, out_dir=tmp_path)
        assert plan.config.max_iterations == 10
        assert plan.config.n_particles == 8


class TestExecutePlan:
    def test_cardinality_and_order(self, tmp_path):
        plan = small_plan(tmp_path)
        reports = execute_plan(plan, jobs=1)
        assert len(reports) == 6
        assert [(r.function, r.dimension, r.seed) for r in reports] == [
            ("booth", 2, 1), ("booth", 2, 2), ("booth", 2, 3),
            ("beale", 2, 1), ("beale", 2, 2), ("beale", 2, 3),
        ]

    def test_parallel_equals_sequential(self, tmp_path):
        plan = small_plan(tmp_path)
        sequential = execute_plan(plan, jobs=1)
        parallel = execute_plan(plan, jobs=2)
        for a, b in zip(sequential, parallel):
            assert a.best_fitness == b.best_fitness
            assert a.evaluations == b.evaluations
            np.testing.assert_array_equal(a.best_position, b.best_position)

    def test_repeat_execution_writes_identical_bytes(self, tmp_path):
        plan_a = small_plan(tmp_path, out_dir=tmp_path / "a")
        plan_b = small_plan(tmp_path, out_dir=tmp_path / "b")
        for plan in (plan_a, plan_b):
            reports = execute_plan(plan, jobs=1)
            write_reports(reports, summarize(reports), plan)
        runs_a = (tmp_path / "a" / "runs.csv").read_text()
        runs_b = (tmp_path / "b" / "runs.csv").read_text()
        assert strip_wall_column(runs_a) == strip_wall_column(runs_b)
        assert (tmp_path / "a" / "summary.csv").read_text() == \
            (tmp_path / "b" / "summary.csv").read_text()

    def test_failed_run_recorded_without_aborting_siblings(self, tmp_path, monkeypatch):
        real = harness.get_objective

        def flaky(name, dimension):
            if name == "booth":
                raise RuntimeError("objective exploded")
            return real(name, dimension)

        monkeypatch.setattr(harness, "get_objective", flaky)
        plan = small_plan(tmp_path, seed_count=2)
        reports = execute_plan(plan, jobs=1)
        assert len(reports) == 4
        booth_reports = [r for r in reports if r.function == "booth"]
        beale_reports = [r for r in reports if r.function == "beale"]
        assert all(r.error is not None for r in booth_reports)
        assert all(np.isnan(r.best_fitness) for r in booth_reports)
        assert all(r.error is None for r in beale_reports)

    def test_default_jobs_follow_usable_cpus(self, tmp_path, monkeypatch):
        # One usable CPU on an eight-CPU machine: the default must stay serial.
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started for one usable CPU")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        assert len(execute_plan(small_plan(tmp_path))) == 6

    @pytest.mark.parametrize("jobs,message", [
        (0, "jobs must be >= 1, got 0"),
        (-4, "jobs must be >= 1, got -4"),
        (2.5, "jobs must be an integer"),
        (True, "jobs must be an integer"),
        ("2", "jobs must be an integer"),
    ])
    def test_bad_jobs_rejected_before_any_run(self, tmp_path, monkeypatch, jobs, message):
        def no_run(*args, **kwargs):
            raise AssertionError("a run or a pool was started")

        monkeypatch.setattr(harness, "run", no_run)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_run)
        with pytest.raises(ValueError, match=f"^{message}"):
            execute_plan(small_plan(tmp_path), jobs=jobs)

    def test_usable_cpus_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
        assert harness._usable_cpus() == 3

    def test_progress_callback_sees_every_report(self, tmp_path):
        plan = small_plan(tmp_path)
        seen = []
        execute_plan(plan, jobs=1, progress=lambda r: seen.append(r.seed))
        assert seen == [1, 2, 3, 1, 2, 3]


class TestSummarize:
    def test_singleton_group(self):
        rows = summarize([fake_report("sphere", 2, 1, 0.5)])
        row = rows[0]
        assert row.n_seeds == 1
        assert row.best == row.median == row.mean == 0.5
        assert row.stddev == 0.0

    def test_simple_statistics(self):
        reports = [fake_report("sphere", 2, s, b)
                   for s, b in zip((1, 2, 3), (0.0, 0.2, 0.4))]
        row = summarize(reports)[0]
        assert row.median == pytest.approx(0.2)
        assert row.mean == pytest.approx(0.2)
        assert row.best == 0.0

    def test_ordering_invariant_holds(self):
        reports = [fake_report("sphere", 2, s, b)
                   for s, b in zip(range(5), (3.0, 1.0, 4.0, 1.5, 9.0))]
        row = summarize(reports)[0]
        assert row.best <= row.median <= max(3.0, 1.0, 4.0, 1.5, 9.0)

    def test_reference_value_attached(self):
        row = summarize([fake_report("rosenbrock", 30, 1, 0.1)])[0]
        assert row.reference_value == 0.0023

    def test_error_reports_excluded(self):
        reports = [
            fake_report("sphere", 2, 1, 0.5),
            fake_report("sphere", 2, 2, float("nan"), error="boom"),
        ]
        row = summarize(reports)[0]
        assert row.n_seeds == 1
        assert row.median == 0.5

    def test_groups_keep_report_order(self):
        reports = [fake_report("beale", 2, 1, 1.0), fake_report("booth", 2, 1, 2.0)]
        rows = summarize(reports)
        assert [r.function for r in rows] == ["beale", "booth"]


class TestWriteReports:
    def test_headers_are_exact(self, tmp_path):
        assert RUNS_HEADER == ("function,dimension,seed,best_fitness,evaluations,"
                               "iterations,wall_time_ms,best_position")
        assert SUMMARY_HEADER == "function,d2,d5,d10,d20,d30"
        assert TRACE_HEADER == "iteration,best_fitness,mean_fitness,vortex_count,eliminated"
        plan = small_plan(tmp_path, trace_dir=tmp_path / "traces")
        reports = execute_plan(plan, jobs=1)
        paths = write_reports(reports, summarize(reports), plan)
        assert paths["runs"].read_text().splitlines()[0] == RUNS_HEADER
        assert paths["summary"].read_text().splitlines()[0] == SUMMARY_HEADER
        trace_file = tmp_path / "traces" / "booth_d2_s1.csv"
        assert trace_file.read_text().splitlines()[0] == TRACE_HEADER

    def test_summary_grid_shape_and_na(self, tmp_path):
        plan = small_plan(tmp_path)
        reports = execute_plan(plan, jobs=1)
        paths = write_reports(reports, summarize(reports), plan)
        lines = paths["summary"].read_text().splitlines()
        assert len(lines) == 8
        grid = {row.split(",")[0]: row.split(",")[1:] for row in lines[1:]}
        assert all(len(cells) == 5 for cells in grid.values())
        assert grid["booth"][0] != "NA"
        assert grid["booth"][1:] == ["NA"] * 4
        assert grid["sphere"] == ["NA"] * 5  # not part of this plan

    def test_trace_first_row_is_initialization(self, tmp_path):
        plan = small_plan(tmp_path, trace_dir=tmp_path / "traces")
        reports = execute_plan(plan, jobs=1)
        write_reports(reports, summarize(reports), plan)
        lines = (tmp_path / "traces" / "beale_d2_s2.csv").read_text().splitlines()
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[3] == "1"  # one vortex after initialization
        assert first[4] == "0"
        assert len(lines) == 1 + 40 + 1  # header + init row + one row per iteration

    def test_runs_csv_round_trip(self, tmp_path):
        plan = small_plan(tmp_path)
        reports = execute_plan(plan, jobs=1)
        paths = write_reports(reports, summarize(reports), plan)
        loaded = read_runs_csv(paths["runs"])
        assert len(loaded) == len(reports)
        for original, parsed in zip(reports, loaded):
            assert parsed.function == original.function
            assert parsed.seed == original.seed
            assert parsed.best_fitness == pytest.approx(original.best_fitness, rel=1e-5)
            assert parsed.best_position == pytest.approx(original.best_position)

    def test_summary_json_written(self, tmp_path):
        import json

        plan = small_plan(tmp_path)
        reports = execute_plan(plan, jobs=1)
        paths = write_reports(reports, summarize(reports), plan)
        payload = json.loads(paths["summary_json"].read_text())
        assert payload["config"]["n_particles"] == 50
        assert payload["seeds"] == [1, 2, 3]
        assert {row["function"] for row in payload["rows"]} == {"booth", "beale"}


class TestChecks:
    def test_every_grid_cell_has_a_rule_and_reference(self):
        assert set(REFERENCE_RESULTS) == set(make_plan().cells())
        assert len(REFERENCE_RESULTS) == 15
        for reference, rule, tolerance in REFERENCE_RESULTS.values():
            assert isinstance(reference, float)
            assert rule in ("max", "near")
            assert tolerance > 0.0

    def test_near_rules_measure_from_their_own_reference(self):
        assert REFERENCE_RESULTS[("goldstein_price", 2)] == (3.0, "near", 1e-3)
        assert REFERENCE_RESULTS[("mccormick", 2)] == (-1.9133, "near", 1e-3)
        results = evaluate_checks([
            SummaryRow("goldstein_price", 2, 20, 3.0, 3.0005, 3.0, 0.0, None),
            SummaryRow("mccormick", 2, 20, -1.92, -1.9131, -1.91, 0.0, None),
            SummaryRow("rosenbrock", 10, 20, 0.0, 0.009, 0.0, 0.0, None),
        ])
        assert [r.rule for r in results] == [
            "|median - 3| <= 0.001", "|median - -1.9133| <= 0.001", "median <= 0.01"]
        assert [r.reference_value for r in results] == [3.0, -1.9133, 0.0002]
        assert all(r.passed for r in results)

    def test_threshold_rule(self):
        rows = [SummaryRow("sphere", 2, 20, 0.0, 5e-5, 1e-4, 1e-4, 0.0)]
        result = evaluate_checks(rows)[0]
        assert result.passed
        rows = [SummaryRow("sphere", 2, 20, 0.0, 2e-4, 1e-4, 1e-4, 0.0)]
        assert not evaluate_checks(rows)[0].passed

    def test_near_rule(self):
        rows = [SummaryRow("goldstein_price", 2, 20, 3.0, 3.0005, 3.0, 0.0, 3.0)]
        assert evaluate_checks(rows)[0].passed
        rows = [SummaryRow("goldstein_price", 2, 20, 3.0, 3.01, 3.0, 0.0, 3.0)]
        assert not evaluate_checks(rows)[0].passed
        rows = [SummaryRow("mccormick", 2, 20, -1.92, -1.9131, -1.91, 0.0, -1.9133)]
        assert evaluate_checks(rows)[0].passed

    def test_cells_without_rules_are_skipped(self):
        rows = [SummaryRow("sphere", 3, 20, 0.0, 0.0, 0.0, 0.0, None)]
        assert evaluate_checks(rows) == []
