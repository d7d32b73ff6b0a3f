"""Acceptance suite: one test (or parametrized group) per release criterion.

The quantitative criteria run the full default experiment plan, 20 seeds per
cell, and compare cell medians against the bundled reference tolerances; the
plan's report bytes are pinned by sha256. The tests that read the plan are
marked slow, so criteria 6, 7, 8 and 10 also run in the fast suite. Each
check prints a PASS/FAIL line so a verbose run reads as a criterion report.
"""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from helpers import run_with_invariant_checks, strip_wall_column
from vortexopt import (
    Objective,
    VoaConfig,
    execute_plan,
    get_objective,
    make_plan,
    run,
    summarize,
    write_reports,
)
from vortexopt.benchmarks import benchmark_names, get_spec
from vortexopt.core import RandomSource
from vortexopt.engine import (
    initialize_swarm,
    mark_vortices,
    move_toward_best,
    vorticity_decay,
    vorticity_kick,
    vorticity_pull,
)

# sha256 of the full default plan's reports, runs.csv without its wall_time_ms
# column; a change to these bytes must say why.
DEFAULT_PLAN_GOLDEN = {
    "runs": "90daf5e4f7c3b9041bf70f31f5c23d840690f7836c287fd790c637250158b3b0",
    "summary": "d007b24bc25e87612f96ca2af344a739fc1bbe91de356b43f93861ac4671c2ae",
    # Re-pinned when max_vorticity left VoaConfig; its config line is the only change.
    "summary_json": "2ec3e1b7948cd82e0bc776c95ddefd354f44a416474757a440843ff63f4dc6a2",
}


def _report(criterion, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")


@pytest.fixture(scope="session")
def full_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance")
    plan = make_plan(out_dir=out)
    reports = execute_plan(plan, jobs=2)
    summaries = summarize(reports)
    paths = write_reports(reports, summaries, plan)
    medians = {(s.function, s.dimension): s.median for s in summaries}
    return SimpleNamespace(plan=plan, reports=reports, summaries=summaries,
                           paths=paths, medians=medians)


@pytest.mark.slow
@pytest.mark.parametrize("name", list(DEFAULT_PLAN_GOLDEN))
def test_default_plan_bytes_match_golden(full_results, name):
    text = full_results.paths[name].read_text(encoding="utf-8")
    if name == "runs":
        text = strip_wall_column(text)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DEFAULT_PLAN_GOLDEN[name]


@pytest.mark.slow
class TestCriterion01ZeroMinimumFunctionsAtD2:
    @pytest.mark.parametrize("function", ["booth", "beale", "three_hump_camel", "sphere"])
    def test_median_reaches_zero_within_1e4(self, full_results, function):
        median = full_results.medians[(function, 2)]
        ok = median <= 1e-4
        _report("criterion 1", ok, f"{function} d=2 median {median:.3e} <= 1e-4")
        assert ok


@pytest.mark.slow
class TestCriterion02GoldsteinPrice:
    def test_median_within_1e3_of_3(self, full_results):
        median = full_results.medians[("goldstein_price", 2)]
        ok = abs(median - 3.0) <= 1e-3
        _report("criterion 2", ok, f"goldstein_price median {median:.6f} within 1e-3 of 3")
        assert ok


@pytest.mark.slow
class TestCriterion03McCormick:
    def test_median_within_1e3_of_reference(self, full_results):
        median = full_results.medians[("mccormick", 2)]
        ok = abs(median - (-1.9133)) <= 1e-3
        _report("criterion 3", ok, f"mccormick median {median:.6f} within 1e-3 of -1.9133")
        assert ok


@pytest.mark.slow
class TestCriterion04SphereScalesWithDimension:
    @pytest.mark.parametrize("dim", [5, 10, 20, 30])
    def test_median_reaches_zero_within_1e4(self, full_results, dim):
        median = full_results.medians[("sphere", dim)]
        ok = median <= 1e-4
        _report("criterion 4", ok, f"sphere d={dim} median {median:.3e} <= 1e-4")
        assert ok


@pytest.mark.slow
class TestCriterion05Rosenbrock:
    @pytest.mark.parametrize("dim,bound", [(2, 1e-3), (5, 1e-3), (10, 1e-2),
                                           (20, 5e-2), (30, 5e-2)])
    def test_median_within_bound(self, full_results, dim, bound):
        median = full_results.medians[("rosenbrock", dim)]
        ok = median <= bound
        _report("criterion 5", ok, f"rosenbrock d={dim} median {median:.3e} <= {bound:g}")
        assert ok


class TestCriterion06BenchmarkOracles:
    def test_implementations_match_straight_line_oracles(self):
        worst = 0.0
        for name, dim in make_plan().cells():
            obj = get_objective(name, dim)
            points = np.random.default_rng(99).uniform(
                obj.lower, obj.upper, size=(1000, dim))
            got = obj.evaluate_rows(points)
            for p, g in zip(points, got):
                if name in oracles.PAIR_ORACLES:
                    e = oracles.PAIR_ORACLES[name](float(p[0]), float(p[1]))
                else:
                    e = oracles.VECTOR_ORACLES[name]([float(c) for c in p])
                rel = abs(g - e) / max(1.0, abs(e))
                worst = max(worst, rel)
                assert rel <= 1e-12
        _report("criterion 6", True, f"1000-point oracle agreement, worst rel err {worst:.2e}")

    def test_known_minima_reproduce(self):
        for name in benchmark_names():
            spec = get_spec(name)
            for _, d in make_plan(functions=[name]).cells():
                minimizer = spec.minimizer(d)
                assert minimizer.shape == (d,)
                got = get_objective(name, d).evaluate(minimizer)
                assert got == pytest.approx(spec.known_minimum_value, abs=1e-4)
        _report("criterion 6", True,
                "all seven known minima reproduce within 1e-4 at every grid dimension")


class TestCriterion07UpdateRuleExamples:
    def test_hand_computed_examples_exact(self):
        checks = [
            (vorticity_kick(0.5, 0.0, -7.0, 7.0), 0.5),
            (vorticity_kick(0.5, 0.2, -7.0, 7.0), 0.6),
            (vorticity_kick(6.0, 0.9, -7.0, 7.0), 7.0),
            (vorticity_pull(0.5, 0.6, 0.0, 1e-9, -7.0, 7.0), 0.5),
            (vorticity_pull(0.5, 0.6, 0.5, 1e-9, -7.0, 7.0), 1.1),
            (vorticity_pull(0.0, 7.0, 1.0, 1e-9, -7.0, 7.0), 7.0),
            (vorticity_decay(2.0, 0.0), 0.0),
            (vorticity_decay(2.0, 0.25), 0.5),
            (vorticity_decay(-3.0, 0.5), -1.5),
        ]
        for got, expected in checks:
            assert got == pytest.approx(expected, abs=1e-12)
        bounds = (np.array([-4.5, -4.5]), np.array([4.5, 4.5]))
        one = np.array([[1.0]])
        got = move_toward_best(np.array([[1.0, 1.0]]), np.array([0.5]), np.array([3.0, 3.0]),
                               one, *bounds)
        np.testing.assert_allclose(got, [[2.0, 2.0]], atol=1e-12)
        best = np.array([2.0, 2.0])
        got = move_toward_best(best[None, :].copy(), np.array([3.0]), best,
                               np.array([[0.7]]), *bounds)
        np.testing.assert_array_equal(got, [best])
        got = move_toward_best(np.array([[4.0, 4.0]]), np.array([7.0]), np.array([-4.0, -4.0]),
                               one, *bounds)
        np.testing.assert_allclose(got, [[-4.5, -4.5]], atol=1e-12)
        _report("criterion 7", True, "all update-rule examples exact to 1e-12, "
                                     "clamp and guard paths included")


class TestCriterion08FullRunInvariants:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_500_iteration_sphere_run_clean(self, seed):
        config = VoaConfig(max_iterations=500)
        run_with_invariant_checks(config, get_objective("sphere", 5), seed)
        _report("criterion 8", True,
                f"sphere d=5 seed={seed}: 500 iterations, zero invariant violations")


@pytest.mark.slow
class TestCriterion09Determinism:
    def test_default_plan_reproduces_byte_identical_reports(self, full_results,
                                                            tmp_path_factory):
        out = tmp_path_factory.mktemp("acceptance_repeat")
        plan = make_plan(out_dir=out)
        reports = execute_plan(plan, jobs=2)
        paths = write_reports(reports, summarize(reports), plan)
        first_runs = full_results.paths["runs"].read_text()
        second_runs = paths["runs"].read_text()
        ok = strip_wall_column(first_runs) == strip_wall_column(second_runs)
        same_summary = (full_results.paths["summary"].read_text()
                        == paths["summary"].read_text())
        _report("criterion 9", ok and same_summary,
                "two default-plan executions, identical CSV bytes (wall time aside)")
        assert ok
        assert same_summary


class TestCriterion10DegenerateInputs:
    def test_zero_iterations_returns_initialization_best(self):
        objective = get_objective("sphere", 2)
        config = VoaConfig(max_iterations=0)
        report = run(config, objective, 21)
        fresh = initialize_swarm(config, objective, RandomSource(21))
        ok = report.best_fitness == fresh.fitness[fresh.best_index]
        _report("criterion 10", ok, "max_iterations=0 returns the initialization best")
        assert ok
        assert report.iterations == 0

    def test_identical_fitness_marks_everything_vortex(self):
        flat = Objective(name="flat",
                         bounds=((-1.0, 1.0), (-1.0, 1.0)),
                         evaluate=lambda X: np.ones(X.shape[:-1]))
        state = initialize_swarm(VoaConfig(), flat, RandomSource(2))
        mark_vortices(state)
        ok = bool(state.is_vortex.all())
        _report("criterion 10", ok, "all-identical fitnesses mark every particle vortex")
        assert ok

    def test_zero_vorticity_pull_is_finite_and_clamped(self):
        got = vorticity_pull(0.0, 7.0, 1.0, 1e-9, -7.0, 7.0)
        ok = np.isfinite(got) and -7.0 <= got <= 7.0
        _report("criterion 10", ok, f"zero-vorticity pull yields finite clamped {got}")
        assert ok


@pytest.mark.slow
class TestCriterion11GridFidelity:
    NOT_APPLICABLE = {
        (name, d)
        for name in ("booth", "beale", "goldstein_price", "mccormick", "three_hump_camel")
        for d in (5, 10, 20, 30)
    }

    def test_summary_grid_matches_reference_layout(self, full_results):
        lines = full_results.paths["summary"].read_text().splitlines()
        assert lines[0] == "function,d2,d5,d10,d20,d30"
        assert len(lines) == 8
        dims = (2, 5, 10, 20, 30)
        na_cells = set()
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 6
            for d, value in zip(dims, cells[1:]):
                if value == "NA":
                    na_cells.add((cells[0], d))
                else:
                    float(value)
        ok = na_cells == self.NOT_APPLICABLE
        _report("criterion 11", ok,
                "7x5 summary grid with NA exactly at the ten non-applicable cells")
        assert ok


@pytest.mark.slow
class TestReportConsistency:
    def test_best_fitness_matches_best_position(self, full_results):
        for report in full_results.reports:
            objective = get_objective(report.function, report.dimension)
            value = objective.evaluate(report.best_position)
            assert report.best_fitness == pytest.approx(value, abs=1e-12)
            assert report.evaluations >= report.config.n_particles
