import contextlib
import csv
import dataclasses
import functools
import io
import json
import multiprocessing
import pickle
import re
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vortexopt.harness as harness
from helpers import rowwise, strip_wall_column
from vortexopt import (
    ExperimentPlan,
    Objective,
    SummaryRow,
    VoaConfig,
    evaluate_checks,
    execute_plan,
    make_plan,
    run,
    summarize,
    write_reports,
)
from vortexopt.benchmarks import benchmark_names
from vortexopt.cli import main
from vortexopt.core import RandomSource
from vortexopt.engine import RunReport, RunTrace
from vortexopt.harness import (
    REFERENCE_RESULTS,
    RUNS_HEADER,
    TRACE_HEADER,
    read_plan,
    read_runs_csv,
    write_trace,
)


def small_plan(tmp_path, **kwargs):
    defaults = dict(
        functions=["booth", "beale"],
        dims=[2],
        seed_count=3,
        config=VoaConfig(max_iterations=40),
        out_dir=tmp_path / "out",
    )
    defaults.update(kwargs)
    return make_plan(**defaults)


def fake_report(function, dimension, seed, best, error=None):
    return RunReport(
        function=function, dimension=dimension, seed=seed,
        best_fitness=best, best_position=np.zeros(dimension),
        evaluations=100, iterations=10, wall_time_ms=1.0,
        config=VoaConfig(), trace=None, error=error,
    )


class TestMakePlan:
    def test_config_that_is_not_a_voa_config_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="^config must be a VoaConfig, got "):
            make_plan(functions=["booth"], config={"max_iterations": 5}, out_dir=tmp_path)

    def test_seed_override_rejected_in_favour_of_the_plan_seeds(self, tmp_path):
        with pytest.raises(TypeError, match="'seed'$"):
            VoaConfig(seed=99)
        with pytest.raises(ValueError, match="^config must be a VoaConfig, got "):
            make_plan(functions=["booth"], seed_count=2, config={"seed": 99},
                      out_dir=tmp_path)
        plan = make_plan(functions=["booth"], seed_count=2, out_dir=tmp_path)
        assert plan.seeds == (1, 2)

    def test_override_of_no_settable_field_rejected_naming_it(self):
        with pytest.raises(TypeError, match="'momentum'$"):
            VoaConfig(max_iterations=5, momentum=0.9)
        with pytest.raises(TypeError, match="'per_coordinate_draws'$"):
            VoaConfig(per_coordinate_draws=False)

    @pytest.mark.parametrize("overrides", [5, [["n_particles", 5]], "n_particles"])
    def test_config_overrides_that_are_not_a_mapping_rejected(self, tmp_path, overrides):
        # The overrides keyword is gone: a config is only ever a VoaConfig.
        with pytest.raises(TypeError, match="'config_overrides'$"):
            make_plan(functions=["booth"], config_overrides=overrides, out_dir=tmp_path)
        with pytest.raises(ValueError, match="^config must be a VoaConfig, got "):
            make_plan(functions=["booth"], config=overrides, out_dir=tmp_path)

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

    @pytest.mark.parametrize("kwargs,field", [
        ({"functions": "booth"}, "functions"),
        ({"functions": b"booth"}, "functions"),
        ({"functions": 7}, "functions"),
        ({"dims": 2}, "dims"),
        ({"dims": "2"}, "dims"),
    ])
    def test_string_or_non_iterable_plan_lists_rejected(self, tmp_path, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must be a list, got "):
            make_plan(out_dir=tmp_path, **kwargs)

    # The base seed is named as base_seed, a later one by its place in seeds.
    @pytest.mark.parametrize("base,count", [(-1, 1), (2**64, 1), (2**64 - 1, 3), (2**64 - 2, 3)])
    def test_seeds_beyond_64_bits_rejected_when_planned(self, tmp_path, base, count):
        with pytest.raises(ValueError, match=r"^(base_seed|seeds\[\d\]) must lie in "
                                             r"\[0, 2\*\*64 - 1\]"):
            make_plan(base_seed=base, seed_count=count, out_dir=tmp_path)

    def test_last_64_bit_seed_accepted(self, tmp_path):
        plan = make_plan(base_seed=2**64 - 2, seed_count=2, out_dir=tmp_path)
        assert plan.seeds == (2**64 - 2, 2**64 - 1)

    def test_numpy_integer_seed_arguments_accepted(self, tmp_path):
        plan = make_plan(base_seed=np.int64(5), seed_count=np.uint8(2), out_dir=tmp_path)
        assert plan.seeds == (5, 6)
        assert all(type(seed) is int for seed in plan.seeds)

    def test_plan_built_directly_checks_its_seeds(self, tmp_path):
        with pytest.raises(ValueError, match=r"^seeds\[1\] must be an integer"):
            ExperimentPlan(dimensions={"booth": (2,)},
                           seeds=(1, 2.5), config=VoaConfig(), out_dir=tmp_path)

    @pytest.mark.parametrize("dims", [[2.0], [2, 5.0], [True], ["2"]])
    def test_non_integer_dimensions_rejected(self, tmp_path, dims):
        with pytest.raises(ValueError, match=r"^dims\[\d\] must be an integer"):
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
        with pytest.raises(ValueError, match="^dims must be pairwise distinct"):
            make_plan(functions=["sphere"], dims=[2, 2], out_dir=tmp_path)
        with pytest.raises(ValueError, match="dimensions of 'sphere' must be pairwise distinct"):
            ExperimentPlan(dimensions={"sphere": (2, 2)},
                           seeds=(1,), config=VoaConfig(), out_dir=tmp_path)

    def test_unknown_function_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown"):
            make_plan(functions=["nope"], out_dir=tmp_path)
        with pytest.raises(ValueError, match=r"^unknown benchmark \['booth'\]"):
            make_plan(functions=[["booth"]], out_dir=tmp_path)

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

    def test_empty_dims_rejected_rather_than_read_as_the_grid(self, tmp_path):
        with pytest.raises(ValueError, match="^dims must not be empty"):
            make_plan(functions=["sphere"], dims=[], out_dir=tmp_path)

    def test_plan_without_functions_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="plan selects no benchmark functions"):
            ExperimentPlan(dimensions={}, seeds=(1,), config=VoaConfig(), out_dir=tmp_path)

    def test_config_applied(self, tmp_path):
        config = VoaConfig(max_iterations=10, n_particles=8, elimination_threshold=8)
        plan = make_plan(config=config, out_dir=tmp_path)
        assert plan.config is config
        assert make_plan(out_dir=tmp_path).config == VoaConfig()


# Hostile values for one ExperimentPlan field: scalars of every kind, then
# lists, lists of pairs and dicts of them, nested; plus plausible dimension
# maps and seed lists, so that the accepting path is drawn too.
_ATOMS = st.one_of(
    st.integers(-2, 40), st.just(2**64), st.floats(), st.booleans(), st.none(),
    st.text(max_size=3), st.binary(max_size=3), st.text(min_size=1, max_size=3).map(Path),
    st.integers(0, 40).map(np.int64), st.sampled_from(benchmark_names()))
_INTEGERS = st.integers(-1, 6) | st.integers(0, 6).map(np.uint8)
_PLAN_VALUES = st.one_of(
    st.recursive(_ATOMS, lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.lists(st.tuples(inner, inner), max_size=3),
        st.dictionaries(_ATOMS, inner, max_size=3)), max_leaves=6),
    st.dictionaries(st.sampled_from(benchmark_names()), st.lists(_INTEGERS, max_size=3),
                    max_size=3),
    st.lists(_INTEGERS | st.just(2**64), max_size=3))
# The words that name each field. The registry's own errors about a
# dimensions entry name the unknown benchmark or the unsupported dimension.
_NAMED_BY = {"dimensions": ("dimension", "unknown benchmark")}


class TestPlanBoundary:
    @settings(max_examples=120, deadline=None)
    @given(field=st.sampled_from([f.name for f in dataclasses.fields(ExperimentPlan)]),
           value=_PLAN_VALUES)
    @example(field="dimensions", value={"booth": 2})
    @example(field="seeds", value=1)
    @example(field="seeds", value="12")
    @example(field="seeds", value=np.array(5))
    @example(field="dimensions", value=[("booth", (2,))])
    @example(field="out_dir", value="")
    @example(field="trace_dir", value="")
    @example(field="config", value={"max_iterations": 1})
    @example(field="seeds", value=[np.int64(1), 2])
    @example(field="dimensions", value={"booth": [np.int64(2)], "sphere": [2, np.uint8(5)]})
    @example(field="out_dir", value="results")
    def test_every_field_is_checked_and_normalized_however_built(self, field, value):
        valid = dict(dimensions={"sphere": (2,)}, seeds=(1,), config=VoaConfig(),
                     out_dir=Path("x"))
        for build in (lambda: ExperimentPlan(**{**valid, field: value}),
                      lambda: dataclasses.replace(ExperimentPlan(**valid), **{field: value})):
            try:
                plan = build()
            except ValueError as exc:
                assert any(word in str(exc) for word in _NAMED_BY.get(field, (field,))), exc
                continue
            assert type(plan.dimensions) is MappingProxyType and plan.dimensions
            for name, dims in plan.dimensions.items():
                assert type(name) is str and type(dims) is tuple and dims
                assert all(type(d) is int for d in dims)
            assert type(plan.seeds) is tuple and plan.seeds
            assert all(type(s) is int for s in plan.seeds)
            assert isinstance(plan.config, VoaConfig) and isinstance(plan.out_dir, Path)
            assert plan.trace_dir is None or isinstance(plan.trace_dir, Path)
            assert dataclasses.replace(plan) == plan

    def test_a_plan_keeps_its_order_and_converts_its_values(self):
        plan = ExperimentPlan(dimensions={"sphere": [np.int64(5), 2], "booth": [2]},
                              seeds=[np.uint8(3), 1], config=VoaConfig(), out_dir="res",
                              trace_dir="traces")
        assert plan.dimensions == {"sphere": (5, 2), "booth": (2,)}
        assert plan.seeds == (3, 1)
        assert (plan.out_dir, plan.trace_dir) == (Path("res"), Path("traces"))

    def test_dimensions_cannot_change_after_the_checks(self, tmp_path):
        plan = make_plan(functions=["sphere"], dims=[2], out_dir=tmp_path)
        with pytest.raises(TypeError):
            plan.dimensions["sphere"] = (1.5,)
        assert plan.cells() == [("sphere", 2)]
        again = dataclasses.replace(plan, dimensions=plan.dimensions)
        assert again == plan and type(again.dimensions) is MappingProxyType


@pytest.fixture
def recording_pool(monkeypatch):
    """Replace the process pool with one that maps in this process; returns the
    list of the sizes of the pools started."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    return started


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

    def test_a_spawned_pool_writes_the_bytes_of_one_job(self, tmp_path, monkeypatch):
        # fork is Linux's default start method up to Python 3.13; spawn starts
        # each worker from a fresh interpreter, as forkserver's workers are.
        def write(name, jobs):
            plan = small_plan(tmp_path, functions=["booth", "sphere"],
                              config=VoaConfig(max_iterations=50), out_dir=tmp_path / name)
            reports = execute_plan(plan, jobs=jobs)
            write_reports(reports, summarize(reports), plan)
            return {f: (tmp_path / name / f).read_text()
                    for f in ("runs.csv", "summary.csv", "summary.json")}

        sequential = write("jobs1", 1)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")))
        spawned = write("spawn", 2)
        assert strip_wall_column(spawned.pop("runs.csv")) == \
            strip_wall_column(sequential.pop("runs.csv"))
        assert spawned == sequential

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
        failed = booth_reports[1]
        assert failed.error == "RuntimeError: objective exploded"
        assert (failed.dimension, failed.seed) == (2, 2)
        assert failed.config == plan.config
        assert failed.best_position.shape == (0,)
        assert (failed.evaluations, failed.iterations, failed.wall_time_ms) == (0, 0, 0.0)
        assert failed.trace is None

    def test_report_defaults_describe_a_run_that_produced_nothing(self):
        first, second = RunReport("booth", 2, 1), RunReport("booth", 2, 2)
        assert np.isnan(first.best_fitness)
        assert first.best_position.shape == (0,)
        assert first.best_position is not second.best_position
        assert (first.evaluations, first.iterations, first.wall_time_ms) == (0, 0, 0.0)
        assert (first.config, first.trace, first.error) == (None, None, None)

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

    @pytest.mark.parametrize("jobs,seed_count,pools", [(8, 2, [2]), (1, 2, []), (8, 1, [])])
    def test_the_pool_has_at_most_one_worker_per_run(self, tmp_path, recording_pool, jobs,
                                                     seed_count, pools):
        plan = small_plan(tmp_path, functions=["booth"], seed_count=seed_count)
        reports = execute_plan(plan, jobs=jobs)
        assert recording_pool == pools
        assert [r.seed for r in reports] == list(range(1, seed_count + 1))
        assert all(r.error is None for r in reports)

    @pytest.mark.parametrize("jobs,pools", [(1, []), (2, [2])])
    def test_every_report_echoes_the_plan_config_and_its_seed(self, tmp_path, recording_pool,
                                                              jobs, pools):
        plan = small_plan(tmp_path, base_seed=5, seed_count=2)
        reports = execute_plan(plan, jobs=jobs)
        assert recording_pool == pools
        assert [(r.function, r.seed) for r in reports] == [
            (name, seed) for name, _ in plan.cells() for seed in plan.seeds]
        assert all(r.error is None and r.config == plan.config for r in reports)

    def test_usable_cpus_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
        assert harness._usable_cpus() == 3

    def test_progress_callback_sees_every_report(self, tmp_path):
        plan = small_plan(tmp_path)
        seen = []
        execute_plan(plan, jobs=1, progress=lambda r: seen.append(r.seed))
        assert seen == [1, 2, 3, 1, 2, 3]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("traced", [False, True])
    def test_reports_carry_no_trace(self, tmp_path, jobs, traced):
        plan = small_plan(tmp_path, trace_dir=tmp_path / "traces" if traced else None)
        reports = execute_plan(plan, jobs=jobs)
        assert [r.trace for r in reports] == [None] * 6
        assert all(r.error is None for r in reports)
        if traced:
            assert sorted(p.name for p in (tmp_path / "traces").iterdir()) == sorted(
                f"{f}_d2_s{s}.csv" for f in ("booth", "beale") for s in (1, 2, 3))

    def test_pickled_report_stays_small(self, tmp_path):
        # With its trace, a 500-iteration booth report pickles to about 17 KB.
        plan = small_plan(tmp_path, functions=["booth"], seed_count=1,
                          config=VoaConfig(max_iterations=500))
        (report,) = execute_plan(plan, jobs=1)
        assert report.iterations == 500
        assert len(pickle.dumps(report)) < 2000

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_trace_write_propagates_instead_of_failing_the_run(self, tmp_path, jobs):
        traces = tmp_path / "traces"
        (traces / "beale_d2_s2.csv").mkdir(parents=True)
        seen = []
        with pytest.raises(IsADirectoryError, match="beale_d2_s2.csv"):
            execute_plan(small_plan(tmp_path, trace_dir=traces), jobs=jobs,
                         progress=seen.append)
        assert all(r.error is None for r in seen)
        assert (traces / "booth_d2_s1.csv").is_file()

    def test_output_directories_exist_before_the_first_run(self, tmp_path, monkeypatch):
        plan = small_plan(tmp_path, out_dir=tmp_path / "a" / "out",
                          trace_dir=tmp_path / "b" / "traces", seed_count=1)
        real = harness.run

        def checked(*args):
            assert plan.out_dir.is_dir() and plan.trace_dir.is_dir()
            return real(*args)

        monkeypatch.setattr(harness, "run", checked)
        assert all(r.error is None for r in execute_plan(plan, jobs=1))

    @pytest.mark.parametrize("field", ["out_dir", "trace_dir"])
    def test_a_file_in_place_of_a_directory_fails_before_any_run(self, tmp_path, monkeypatch,
                                                                 field):
        def no_run(*args, **kwargs):
            raise AssertionError("a run or a pool was started")

        monkeypatch.setattr(harness, "_run_cell", no_run)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_run)
        blocker = tmp_path / "file"
        blocker.write_text("")
        paths = {"out_dir": tmp_path / "out", "trace_dir": tmp_path / "traces", field: blocker}
        plan = small_plan(tmp_path, **paths)
        with pytest.raises(FileExistsError, match=re.escape(str(blocker))):
            execute_plan(plan, jobs=2)


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

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
        st.floats(min_value=1.6e308, allow_infinity=False),
        st.floats(max_value=-1.6e308, allow_infinity=False),
        st.sampled_from([-0.0, 0.0, 1.0])), min_size=1, max_size=41))
    @example([-0.0])
    @example([-0.0, -0.0, 0.0])
    @example([1.7e308, 1.7e308])
    @example([-1.7e308, -1.7e308, -1.7e308, 0.0])
    def test_median_is_numpys_bit_for_bit(self, bests):
        # Subnormals, ties, +-0.0 and middle pairs whose sum overflows to inf;
        # np.median maps a median of -0.0 to +0.0, a plain sorted()[mid] does not.
        reports = [fake_report("sphere", 2, seed, best) for seed, best in enumerate(bests)]
        with np.errstate(over="ignore", invalid="ignore"):
            expected = float(np.median(np.asarray(bests)))
            row, = summarize(reports)
        assert row.median.hex() == expected.hex()

    def test_no_numpy_median_in_summarize_or_check(self, tmp_path, monkeypatch):
        # np.median's first call pages numpy's partition code into the
        # process that runs the plan, the one whose peak RSS the benchmark reads.
        plan = small_plan(tmp_path, functions=["sphere"])
        reports = execute_plan(plan, jobs=1)

        def median(*args, **kwargs):
            raise AssertionError("np.median called")

        monkeypatch.setattr(np, "median", median)
        write_reports(reports, summarize(reports), plan)
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = main(["check", "--out", str(plan.out_dir)])
        assert code == 1  # judged, and failed only for its short, non-default config
        assert stdout.getvalue() == (
            "FAIL sphere d=2 median=3.744070e-18 reference=0.0000 rule: median <= 0.0001; "
            "non-default config max_iterations=40\n")

    def test_groups_keep_report_order(self):
        reports = [fake_report("beale", 2, 1, 1.0), fake_report("booth", 2, 1, 2.0)]
        rows = summarize(reports)
        assert [r.function for r in rows] == ["beale", "booth"]


class TestWriteReports:
    def test_headers_are_exact(self, tmp_path):
        assert RUNS_HEADER == ("function,dimension,seed,best_fitness,evaluations,"
                               "iterations,wall_time_ms,best_position")
        assert TRACE_HEADER == ("iteration,best_fitness_so_far,mean_fitness,vortex_count,"
                                "eliminations_triggered,non_finite_evals")
        plan = small_plan(tmp_path, trace_dir=tmp_path / "traces")
        reports = execute_plan(plan, jobs=1)
        paths = write_reports(reports, summarize(reports), plan)
        assert paths["runs"].read_text().splitlines()[0] == RUNS_HEADER
        assert paths["summary"].read_text().splitlines()[0] == "function,d2,d5,d10,d20,d30"
        trace_file = tmp_path / "traces" / "booth_d2_s1.csv"
        assert trace_file.read_text().splitlines()[0] == TRACE_HEADER

    def test_trace_header_is_iteration_then_the_run_trace_fields(self):
        names = [f.name for f in dataclasses.fields(RunTrace)]
        assert TRACE_HEADER.split(",") == ["iteration", *names]

    def test_trace_csv_parses_back_to_every_run_trace_column(self, tmp_path):
        # Non-finite on part of the box, and a low elimination threshold, so
        # that every column varies.
        objective = Objective(
            name="patchy", bounds=((-1.0, 1.0), (-1.0, 1.0)),
            evaluate=rowwise(lambda x: float(x @ x) if x[0] < 0.5 else float("nan")))
        config = VoaConfig(n_particles=12, max_iterations=30, elimination_threshold=3)
        report = run(config, objective, 4)
        path = write_trace(report, tmp_path)
        assert path == tmp_path / "patchy_d2_s4.csv"
        with path.open(newline="") as fh:
            header, *rows = csv.reader(fh)
        assert ",".join(header) == TRACE_HEADER
        columns = dict(zip(header, zip(*rows)))
        trace = report.trace
        assert [int(v) for v in columns["iteration"]] == trace.iteration.tolist()
        for f in dataclasses.fields(RunTrace):
            values = getattr(trace, f.name)
            if values.dtype.kind == "f":
                assert list(columns[f.name]) == [harness._sci(v) for v in values], f.name
            else:
                assert [int(v) for v in columns[f.name]] == values.tolist(), f.name
        assert trace.non_finite_evals.any()
        assert trace.eliminations_triggered.any() and not trace.eliminations_triggered.all()

    def test_a_report_without_a_trace_is_rejected_by_name(self, tmp_path):
        # execute_plan's reports and failed runs carry no trace.
        [planned] = execute_plan(small_plan(tmp_path, functions=["booth"], seed_count=1),
                                 jobs=1)
        failed = fake_report("beale", 2, 7, float("nan"), error="RuntimeError: boom")
        for report, name in ((planned, "booth d=2 seed=1"), (failed, "beale d=2 seed=7")):
            with pytest.raises(ValueError, match=f"^{name} has no trace: .* from run$"):
                write_trace(report, tmp_path)
        assert list(tmp_path.glob("*.csv")) == []

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

    def test_dimensions_outside_the_grid_get_their_own_columns(self, tmp_path):
        summaries = summarize([fake_report("sphere", 40, 1, 0.5),
                               fake_report("sphere", 3, 1, 0.25),
                               fake_report("booth", 2, 1, 0.125)])
        dims, grid = harness.summary_grid(summaries)
        assert dims == (2, 5, 10, 20, 30, 3, 40)
        rows = dict(grid)
        assert rows["sphere"] == [None] * 5 + [0.25, 0.5]
        assert rows["booth"] == [0.125] + [None] * 6
        paths = write_reports([], summaries, small_plan(tmp_path))
        header, *lines = paths["summary"].read_text().splitlines()
        assert header == "function,d2,d5,d10,d20,d30,d3,d40"
        assert "sphere,NA,NA,NA,NA,NA,2.50000e-01,5.00000e-01" in lines

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
            assert (parsed.config, parsed.trace, parsed.error) == (None, None, None)

    def test_runs_csv_round_trip_past_the_csv_field_limit(self, tmp_path):
        position = RandomSource(7).uniform_unit_batch(7000)
        report = dataclasses.replace(fake_report("sphere", 7000, 1, 0.5), best_position=position)
        limit = csv.field_size_limit()
        paths = write_reports([report], summarize([report]), small_plan(tmp_path))
        assert max(map(len, paths["runs"].read_text().split(","))) > limit
        (loaded,) = read_runs_csv(paths["runs"])
        np.testing.assert_array_equal(loaded.best_position, position)
        assert csv.field_size_limit() == limit

    def test_runs_csv_error_named_by_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(csv, "reader", functools.partial(csv.reader, strict=True))
        path = tmp_path / "runs.csv"
        path.write_text(f'{RUNS_HEADER}\nsphere,2,1,"1.0"x,100,10,1.000,0.0;0.5\n')
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: ',' expected"):
            read_runs_csv(path)

    def test_runs_csv_missing_columns_named(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text("function,dimension,best_fitness\nsphere,2,1.0\n")
        message = (f"{path}: missing column(s) seed, evaluations, iterations, wall_time_ms, "
                   "best_position")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_runs_csv(path)

    @pytest.mark.parametrize("cells", [7, 9])
    def test_runs_csv_row_of_the_wrong_length_named_by_line(self, tmp_path, cells):
        good = "sphere,2,1,1.0e-01,100,10,1.000,0.0;0.5"
        bad = ",".join((good + ",extra").split(",")[:cells])
        path = tmp_path / "runs.csv"
        path.write_text("\n".join([RUNS_HEADER, good, bad, good]) + "\n")
        message = f"{path}:3: {cells} cells, but the header has 8"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_runs_csv(path)

    def test_runs_csv_blank_line_between_rows_skipped(self, tmp_path):
        path = tmp_path / "runs.csv"
        rows = [f"sphere,2,{seed},1.0e-01,100,10,1.000,0.0;0.5" for seed in (1, 2)]
        path.write_text("\n".join([RUNS_HEADER, rows[0], "", rows[1]]) + "\n")
        assert [r.seed for r in read_runs_csv(path)] == [1, 2]

    def test_runs_csv_repeated_column_named(self, tmp_path):
        # Read as a dict, the second seed cell would silently win: seed 7, not 1.
        path = tmp_path / "runs.csv"
        path.write_text(f"{RUNS_HEADER},seed\nsphere,2,1,1.0e-01,100,10,1.000,0.0;0.5,7\n")
        message = f"{path}: repeated column(s) seed"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_runs_csv(path)

    def test_runs_csv_unknown_extra_column_accepted(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text(f"note,{RUNS_HEADER}\nhello,sphere,2,1,1.0e-01,100,10,1.000,0.0;0.5\n")
        (report,) = read_runs_csv(path)
        assert (report.function, report.seed, report.best_fitness) == ("sphere", 1, 0.1)

    def test_runs_csv_not_utf8_named(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_bytes(RUNS_HEADER.encode() + b"\nsphere,2,1,1.0,100,10,1.000,\xff\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: 'utf-8' codec"):
            read_runs_csv(path)

    @pytest.mark.parametrize("column,cell", [
        ("seed", "notanumber"), ("best_fitness", "notanumber"), ("best_position", "0.5;x"),
        ("wall_time_ms", ""),
    ])
    def test_runs_csv_bad_cell_named_by_line_and_column(self, tmp_path, column, cell):
        good = dict(zip(RUNS_HEADER.split(","), ["sphere", "2", "1", "1.0e-01", "100", "10",
                                                 "1.000", "0.0;0.5"]))
        bad = {**good, column: cell}
        rows = [",".join(good.values()), ",".join(bad.values())]
        path = tmp_path / "runs.csv"
        path.write_text("\n".join([RUNS_HEADER, *rows]) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:3: column {column}: ')}"):
            read_runs_csv(path)

    def test_summary_json_written(self, tmp_path):
        plan = small_plan(tmp_path)
        reports = execute_plan(plan, jobs=1)
        paths = write_reports(reports, summarize(reports), plan)
        payload = json.loads(paths["summary_json"].read_text())
        assert payload["config"]["n_particles"] == 50
        assert payload["seeds"] == [1, 2, 3]
        assert payload["cells"] == [["booth", 2], ["beale", 2]]
        assert {row["function"] for row in payload["rows"]} == {"booth", "beale"}

    def test_summary_json_records_the_plan_seeds_and_no_config_seed(self, tmp_path):
        plan = small_plan(tmp_path, base_seed=5, seed_count=2)
        payload = json.loads(write_reports([], [], plan)["summary_json"].read_text())
        assert "seed" not in payload["config"]
        assert payload["config"] == plan.config.resolved()
        assert payload["seeds"] == [5, 6]

    def test_read_plan_rebuilds_the_written_plan(self, tmp_path):
        plan = make_plan(functions=["sphere", "booth"], dims=[5, 2], seed_count=2, base_seed=4,
                         config=VoaConfig(n_particles=12, target_fitness=1e-8),
                         out_dir=tmp_path)
        write_reports([], [], plan)
        read = read_plan(tmp_path / "summary.json")
        assert read.cells() == plan.cells() == [("sphere", 5), ("sphere", 2), ("booth", 2)]
        assert read.seeds == (4, 5)
        assert read.config.resolved() == plan.config.resolved()
        assert read.out_dir == tmp_path and read.trace_dir is None

    @pytest.mark.parametrize("key,value", [("momentum", 3), ("min_vorticity", -2.5), ("seed", 1),
                                           ("per_coordinate_draws", False),
                                           ("elimination_threshold", None),
                                           ("max_vorticity", 7), ("max_vorticity", 7.0),
                                           ("per_coordinate_draws", 1)])
    def test_read_plan_names_a_config_entry_run_does_not_write(self, tmp_path, key, value):
        path = write_reports([], [], small_plan(tmp_path))["summary_json"]
        record = json.loads(path.read_text())
        record["config"][key] = value
        path.write_text(json.dumps(record))
        named = f"{path}: config {key}={json.dumps(value)} is not what run writes"
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            read_plan(path)

    def test_read_plan_refuses_a_record_of_an_earlier_version(self, tmp_path):
        # Such a record held the retired engine constants, and may hold a config entry less.
        path = write_reports([], [], small_plan(tmp_path))["summary_json"]
        record = json.loads(path.read_text())
        record["config"].update(min_vorticity=-7.0, pull_epsilon=1e-9)
        del record["config"]["per_coordinate_draws"]
        path.write_text(json.dumps(record, indent=2, sort_keys=True))
        named = (f"{path}: config min_vorticity=-7.0, pull_epsilon=1e-09, "
                 "per_coordinate_draws=missing is not what run writes")
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            read_plan(path)

    @pytest.mark.parametrize("cells,named", [
        ("booth", "needs a config object and cells"),
        ([["booth"]], "needs a config object and cells"),
        ([[2, "booth"]], "needs a config object and cells"),
        ([], "plan selects no benchmark functions"),
        ([["nope", 2]], "unknown benchmark 'nope'"),
        ([["booth", 3]], "benchmark 'booth' supports only dimension 2, got 3"),
        ([["sphere", 2.5]], "dimension must be an integer, got 2.5"),
        ([["sphere", 2], ["sphere", 2]], "dimensions of 'sphere' must be pairwise distinct"),
        ([["sphere", 2], ["rosenbrock", 2], ["sphere", 5]],
         "cells must list each function's dimensions together, as run writes them")])
    def test_read_plan_names_a_bad_cell(self, tmp_path, cells, named):
        path = write_reports([], [], small_plan(tmp_path))["summary_json"]
        path.write_text(json.dumps({**json.loads(path.read_text()), "cells": cells}))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {named}')}"):
            read_plan(path)


# Reals that fixed-width formats are most likely to mangle, mixed into all floats.
_EDGE_REALS = st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 5e-324, 2.2250738585072e-308])
_REALS = st.floats(allow_subnormal=True) | _EDGE_REALS
_COUNTS = st.integers(0, 2**63 - 1)
_REPORTS = st.builds(
    RunReport,
    # Registry names, and user Objective names that hold commas, quotes or line breaks.
    function=st.sampled_from(benchmark_names()) | st.text(),
    dimension=st.integers(1, 10**6),
    seed=st.integers(0, 2**64 - 1),
    best_fitness=_REALS,
    best_position=st.lists(_REALS, max_size=6).map(lambda xs: np.array(xs, dtype=np.float64)),
    evaluations=_COUNTS,
    iterations=_COUNTS,
    wall_time_ms=st.floats(min_value=0.0, max_value=1e12),
)


class TestRunsCsvRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(reports=st.lists(_REPORTS, max_size=4,
                            unique_by=lambda r: (r.function, r.dimension, r.seed)))
    @example(reports=[RunReport("ridge,2", 2, 1), RunReport('say "hi"\nthen\rbye', 3, 2)])
    def test_write_read_write_is_byte_identical(self, tmp_path_factory, reports):
        plan = make_plan(functions=["booth"], seed_count=1,
                         out_dir=tmp_path_factory.mktemp("roundtrip"))
        written = write_reports(reports, [], plan)["runs"].read_bytes()
        reread = read_runs_csv(plan.out_dir / "runs.csv")
        assert [r.function for r in reread] == [r.function for r in reports]
        assert write_reports(reread, [], plan)["runs"].read_bytes() == written

        header, *rows = csv.reader(io.StringIO(written.decode("utf-8"), newline=""))
        assert ",".join(header) == RUNS_HEADER
        assert len(rows) == len(reports)
        for row in rows:
            assert len(row) == len(header)
            for column, cell in zip(header, row):
                write, parse = harness._RUNS_COLUMNS[column]
                assert write(parse(cell)) == cell, column


class TestChecks:
    def test_every_grid_cell_has_a_rule_and_reference(self):
        assert set(REFERENCE_RESULTS) == set(make_plan().cells())
        assert len(REFERENCE_RESULTS) == 15
        # The default plan runs each function at its cells in the table.
        assert {name for name, _ in REFERENCE_RESULTS} == set(benchmark_names())
        for reference, rule, tolerance in REFERENCE_RESULTS.values():
            assert isinstance(reference, float)
            assert rule in ("max", "near")
            assert tolerance > 0.0

    def test_near_rules_measure_from_their_own_reference(self):
        assert REFERENCE_RESULTS[("goldstein_price", 2)] == (3.0, "near", 1e-3)
        assert REFERENCE_RESULTS[("mccormick", 2)] == (-1.9133, "near", 1e-3)
        rows = summarize([fake_report("goldstein_price", 2, 1, 3.0005),
                          fake_report("mccormick", 2, 1, -1.9131),
                          fake_report("rosenbrock", 10, 1, 0.009)])
        results = evaluate_checks(rows)
        assert [row for row, _, _ in results] == rows
        assert [rule for _, rule, _ in results] == [
            "|median - 3| <= 0.001", "|median - -1.9133| <= 0.001", "median <= 0.01"]
        assert [row.reference_value for row, _, _ in results] == [3.0, -1.9133, 0.0002]
        assert all(passed for _, _, passed in results)

    def test_threshold_rule(self):
        rows = [SummaryRow("sphere", 2, 20, 0.0, 5e-5, 1e-4, 1e-4, 0.0)]
        assert evaluate_checks(rows) == [(rows[0], "median <= 0.0001", True)]
        rows = [SummaryRow("sphere", 2, 20, 0.0, 2e-4, 1e-4, 1e-4, 0.0)]
        assert evaluate_checks(rows) == [(rows[0], "median <= 0.0001", False)]

    def test_near_rule(self):
        rows = [SummaryRow("goldstein_price", 2, 20, 3.0, 3.0005, 3.0, 0.0, 3.0)]
        assert evaluate_checks(rows)[0][2] is True
        rows = [SummaryRow("goldstein_price", 2, 20, 3.0, 3.01, 3.0, 0.0, 3.0)]
        assert evaluate_checks(rows)[0][2] is False
        rows = [SummaryRow("mccormick", 2, 20, -1.92, -1.9131, -1.91, 0.0, -1.9133)]
        assert evaluate_checks(rows)[0][2] is True

    def test_cells_without_rules_are_skipped(self):
        rows = [SummaryRow("sphere", 3, 20, 0.0, 0.0, 0.0, 0.0, None)]
        assert evaluate_checks(rows) == []
