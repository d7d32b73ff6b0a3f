import sys
from pathlib import Path

import numpy as np
import pytest

import vortexopt.engine as engine
from helpers import rowwise
from oracles import splitmix64_units
from vortexopt import (
    Objective,
    SwarmState,
    VoaConfig,
    advance_iteration,
    eliminate_and_respawn,
    get_objective,
    initialize_swarm,
    mark_vortices,
    refresh_fitness_and_best,
    run,
)
from vortexopt.core import RandomSource


def make_state(positions, fitness, best_index, vorticity=None, is_vortex=None):
    """Hand-built swarm state for exercising a single operation."""
    positions = np.asarray(positions, dtype=np.float64)
    fitness = np.asarray(fitness, dtype=np.float64)
    n = positions.shape[0]
    if vorticity is None:
        vorticity = np.full(n, 0.5)
    if is_vortex is None:
        is_vortex = np.zeros(n, dtype=bool)
        is_vortex[best_index] = True
    return SwarmState(
        positions=positions,
        vorticity=np.asarray(vorticity, dtype=np.float64),
        fitness=fitness,
        is_vortex=is_vortex,
        best_vorticity=float(vorticity[best_index]) if not np.isscalar(vorticity) else 0.5,
        best_index=best_index,
    )


class TestInitializeSwarm:
    def test_population_and_single_vortex(self):
        objective = get_objective("sphere", 2)
        state = initialize_swarm(VoaConfig(), objective, RandomSource(1))
        assert state.n_particles == 50
        assert int(state.is_vortex.sum()) == 1

    def test_best_record_is_population_minimum(self):
        objective = get_objective("sphere", 2)
        state = initialize_swarm(VoaConfig(), objective, RandomSource(3))
        assert state.best_index == int(np.argmin(state.fitness))

    def test_positions_inside_bounds(self):
        objective = get_objective("mccormick", 2)
        state = initialize_swarm(VoaConfig(), objective, RandomSource(9))
        assert np.all(state.positions >= objective.lower)
        assert np.all(state.positions <= objective.upper)

    def test_only_best_vorticity_kicked(self):
        objective = get_objective("sphere", 2)
        config = VoaConfig()
        state = initialize_swarm(config, objective, RandomSource(5))
        others = np.delete(state.vorticity, state.best_index)
        assert np.all(others == config.initial_vorticity)
        # the kick is v + r*v with r in [0, 1)
        assert config.initial_vorticity <= state.vorticity[state.best_index] \
            < 2 * config.initial_vorticity
        assert state.best_vorticity == state.vorticity[state.best_index]

    def test_same_seed_bit_identical(self):
        objective = get_objective("sphere", 2)
        a = initialize_swarm(VoaConfig(), objective, RandomSource(7))
        b = initialize_swarm(VoaConfig(), objective, RandomSource(7))
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.fitness, b.fitness)
        np.testing.assert_array_equal(a.vorticity, b.vorticity)
        assert a.best_index == b.best_index

    def test_evaluation_count(self):
        objective = get_objective("sphere", 2)
        assert run(VoaConfig(max_iterations=0), objective, 2).evaluations == 50


class TestMarkVortices:
    def test_mean_rule(self):
        state = make_state(np.zeros((3, 1)), [1.0, 2.0, 3.0], best_index=0)
        mark_vortices(state)
        assert list(state.is_vortex) == [True, True, False]

    def test_all_equal_fitness_all_vortex(self):
        state = make_state(np.zeros((4, 1)), [2.0] * 4, best_index=0)
        mark_vortices(state)
        assert state.is_vortex.all()

    def test_single_dominant_bad_particle(self):
        state = make_state(np.zeros((3, 1)), [0.0, 0.0, 300.0], best_index=0)
        mark_vortices(state)
        assert list(state.is_vortex) == [True, True, False]

    def test_mean_returned(self):
        state = make_state(np.zeros((3, 1)), [1.0, 2.0, 6.0], best_index=0)
        assert mark_vortices(state) == 3.0

    def test_record_holder_forced_vortex(self):
        # holder sits above the mean but keeps vortex status anyway
        state = make_state(np.zeros((3, 1)), [5.0, 1.0, 1.0], best_index=0)
        mark_vortices(state)
        assert state.is_vortex[0]
        assert list(state.is_vortex) == [True, True, True]


def quadratic_objective():
    return Objective(
        name="quadratic",
        bounds=((-10.0, 10.0), (-10.0, 10.0)),
        evaluate=lambda X: X[..., 0] ** 2 + X[..., 1] ** 2,
    )


NO_CANDIDATES = np.empty((0, 2))


class TestRefreshFitnessAndBest:
    def test_strict_improvement_replaces_record(self):
        positions = np.array([[0.5, 0.0], [1.0, 0.0]])
        state = make_state(positions, [99.0, 1.0], best_index=1,
                           vorticity=[0.3, 0.8])
        refresh_fitness_and_best(state, quadratic_objective(), NO_CANDIDATES)
        assert state.best_index == 0
        assert state.fitness[0] == 0.25
        assert state.best_vorticity == 0.3
        np.testing.assert_array_equal(state.positions[0], [0.5, 0.0])

    def test_tie_keeps_incumbent(self):
        positions = np.array([[0.0, 1.0], [1.0, 0.0]])
        state = make_state(positions, [1.0, 1.0], best_index=1)
        refresh_fitness_and_best(state, quadratic_objective(), NO_CANDIDATES)
        assert state.best_index == 1
        assert state.fitness[1] == 1.0

    def test_iteration_best_marked_vortex(self):
        positions = np.array([[0.5, 0.0], [1.0, 0.0]])
        state = make_state(positions, [99.0, 1.0], best_index=1)
        assert not state.is_vortex[0]
        refresh_fitness_and_best(state, quadratic_objective(), NO_CANDIDATES)
        assert state.is_vortex[0]

    def test_non_finite_fitness_flagged_and_never_wins(self):
        objective = Objective(
            name="partial", bounds=((-1.0, 1.0),),
            evaluate=rowwise(lambda p: float("nan") if p[0] > 0 else float(p[0] ** 2)),
        )
        positions = np.array([[0.5], [-0.5]])
        state = make_state(positions, [99.0, 99.0], best_index=1)
        non_finite, _ = refresh_fitness_and_best(state, objective, np.empty((0, 1)))
        assert non_finite == 1
        assert state.fitness[0] == np.inf
        assert state.best_index == 1
        assert state.fitness[1] == 0.25

    def test_candidates_share_the_swarm_call_and_never_take_the_record(self, monkeypatch):
        objective = Objective(
            name="partial", bounds=((-1.0, 1.0),),
            evaluate=rowwise(lambda p: float("nan") if p[0] > 0.9 else float(p[0] ** 2)),
        )
        calls = []
        real = Objective.evaluate_rows
        monkeypatch.setattr(Objective, "evaluate_rows",
                            lambda self, X: calls.append(X.shape) or real(self, X))
        state = make_state(np.array([[0.5], [-0.5], [0.95]]), [99.0] * 3, best_index=1)
        non_finite, candidate_fitness = refresh_fitness_and_best(
            state, objective, np.array([[0.0], [0.95], [0.1]]))
        assert calls == [(6, 1)]
        # Only the swarm's rows count as non-finite, and a better candidate
        # does not become the record: it is not a particle yet.
        assert non_finite == 1
        np.testing.assert_array_equal(state.fitness, [0.25, 0.25, np.inf])
        np.testing.assert_array_equal(candidate_fitness, [0.0, np.inf, 0.1 ** 2])
        assert state.best_index == 1


class TestEliminateAndRespawn:
    def _state(self, n, n_vortex):
        positions = np.linspace(0.1, 0.9, n)[:, None] * np.ones((1, 2))
        state = make_state(positions, np.arange(n, dtype=float), best_index=0)
        state.is_vortex = np.zeros(n, dtype=bool)
        state.is_vortex[:n_vortex] = True
        return state

    def test_triggered_replaces_all_normals(self):
        objective = quadratic_objective()
        state = self._state(50, n_vortex=40)
        before = state.positions.copy()
        config = VoaConfig(elimination_threshold=50)
        rng = RandomSource(4)
        # One candidate more than the normals: the cull takes a prefix.
        candidates = objective.to_box(rng.peek(11 * 2).reshape(11, 2))
        candidate_fitness = objective.evaluate_rows(candidates)
        triggered = eliminate_and_respawn(state, config, objective, rng, candidates,
                                          candidate_fitness)
        assert triggered
        assert state.n_particles == 50
        # vortex rows untouched, normal rows resampled and re-evaluated
        np.testing.assert_array_equal(state.positions[:40], before[:40])
        np.testing.assert_array_equal(state.positions[40:], objective.sample(RandomSource(4), 10))
        assert np.all(state.vorticity[40:] == config.initial_vorticity)
        expected = [p[0] ** 2 + p[1] ** 2 for p in state.positions[40:]]
        np.testing.assert_allclose(state.fitness[40:], expected, rtol=1e-15)
        assert not state.is_vortex[40:].any()
        # Only the placed rows' draws were consumed.
        assert rng.uniform_unit_batch(1)[0] == splitmix64_units(4, 21)[-1]

    def test_all_vortex_triggers_vacuously(self):
        objective = quadratic_objective()
        state = self._state(10, n_vortex=10)
        before = state.positions.copy()
        triggered = eliminate_and_respawn(state, VoaConfig(n_particles=10, elimination_threshold=10),
                                          objective, RandomSource(4), NO_CANDIDATES, np.empty(0))
        assert triggered
        np.testing.assert_array_equal(state.positions, before)

    def test_zero_threshold_never_triggers_with_normals(self):
        objective = quadratic_objective()
        state = self._state(10, n_vortex=9)
        before = state.positions.copy()
        triggered = eliminate_and_respawn(state, VoaConfig(n_particles=10, elimination_threshold=0),
                                          objective, RandomSource(4), NO_CANDIDATES, np.empty(0))
        assert not triggered
        np.testing.assert_array_equal(state.positions, before)


class TestRun:
    def test_zero_iterations_returns_initialization_best(self):
        objective = get_objective("sphere", 2)
        config = VoaConfig(max_iterations=0)
        report = run(config, objective, 11)
        fresh = initialize_swarm(config, objective, RandomSource(11))
        assert report.best_fitness == fresh.fitness[fresh.best_index]
        np.testing.assert_array_equal(report.best_position, fresh.positions[fresh.best_index])
        assert report.iterations == 0
        assert len(report.trace) == 1

    def test_trace_starts_at_initialization(self):
        objective = get_objective("sphere", 2)
        report = run(VoaConfig(max_iterations=20), objective, 2)
        trace = report.trace
        assert trace.iteration[0] == 0
        assert trace.vortex_count[0] == 1
        assert not trace.eliminations_triggered[0]
        assert len(trace) == 21
        np.testing.assert_array_equal(trace.iteration, np.arange(21))

    def test_early_stopped_trace_holds_only_the_rows_that_ran(self):
        objective = get_objective("booth", 2)
        report = run(VoaConfig(max_iterations=5000, target_fitness=1e-8), objective, 11)
        assert 0 < report.iterations < 5000
        for column in ("iteration", "best_fitness_so_far", "mean_fitness", "vortex_count",
                       "eliminations_triggered", "non_finite_evals"):
            values = getattr(report.trace, column)
            assert values.shape == (report.iterations + 1,), column
            assert values.base is None, column

    def test_same_seed_identical_reports(self):
        objective = get_objective("rosenbrock", 5)
        config = VoaConfig(max_iterations=150)
        a = run(config, objective, 13)
        b = run(config, objective, 13)
        assert a.best_fitness == b.best_fitness
        np.testing.assert_array_equal(a.best_position, b.best_position)
        assert a.evaluations == b.evaluations
        np.testing.assert_array_equal(a.trace.best_fitness_so_far, b.trace.best_fitness_so_far)
        np.testing.assert_array_equal(a.trace.mean_fitness, b.trace.mean_fitness)
        np.testing.assert_array_equal(a.trace.vortex_count, b.trace.vortex_count)

    def test_different_seeds_differ(self):
        objective = get_objective("sphere", 2)
        a = run(VoaConfig(max_iterations=50), objective, 1)
        b = run(VoaConfig(max_iterations=50), objective, 2)
        assert a.best_fitness != b.best_fitness

    def test_report_bookkeeping(self):
        objective = get_objective("sphere", 3)
        config = VoaConfig(max_iterations=100)
        report = run(config, objective, 5)
        assert report.function == "sphere"
        assert report.dimension == 3
        assert report.seed == 5
        assert report.evaluations >= config.n_particles * (report.iterations + 1)
        assert report.config == config
        assert report.error is None
        assert report.best_fitness == pytest.approx(
            objective.evaluate(report.best_position), abs=1e-12)

    def test_best_fitness_monotone_in_trace(self):
        objective = get_objective("rosenbrock", 2)
        report = run(VoaConfig(max_iterations=300), objective, 8)
        best = report.trace.best_fitness_so_far
        assert np.all(np.diff(best) <= 0.0)

    def test_target_fitness_stops_early(self):
        objective = get_objective("sphere", 2)
        config = VoaConfig(max_iterations=5000, target_fitness=1e-3)
        report = run(config, objective, 3)
        assert report.iterations < 5000
        assert report.best_fitness <= 1e-3
        assert len(report.trace) == report.iterations + 1

    @pytest.mark.parametrize("config", [
        VoaConfig(max_iterations=40),
        VoaConfig(max_iterations=5000, target_fitness=1e-3),
    ])
    def test_trace_mean_is_population_mean_after_each_iteration(self, config):
        objective = get_objective("sphere", 2)
        report = run(config, objective, 3)
        rng = RandomSource(3)
        state = initialize_swarm(config, objective, rng)
        means = [state.fitness.mean()]
        for _ in range(report.iterations):
            advance_iteration(state, config, objective, rng)
            means.append(state.fitness.mean())
        np.testing.assert_array_equal(report.trace.mean_fitness, means)

    def test_initial_vorticity_outside_clamp_clamped_by_kick_and_pull(self):
        objective = get_objective("sphere", 2)
        config = VoaConfig(initial_vorticity=100.0)
        rng = RandomSource(2)
        state = initialize_swarm(config, objective, rng)
        assert state.best_vorticity == config.max_vorticity
        advance_iteration(state, config, objective, rng)
        # Vortices went through the pull; respawned normals hold the initial value
        # until the next iteration's pull.
        assert np.all(np.abs(state.vorticity[state.is_vortex]) <= config.max_vorticity)
        assert np.all(state.vorticity[~state.is_vortex] == 100.0)


STAGES = ("mark_vortices", "vorticity_pull", "vorticity_decay", "move_toward_best",
          "refresh_fitness_and_best", "eliminate_and_respawn")


class TestIterationContract:
    """What tools that wrap the stage functions from outside rely on."""

    # The cull's boundary cases, each hit by its parameters within 8 iterations:
    # "dropped", a normal particle takes the iteration's best, so the cull
    # leaves the last candidate and its draws in the stream; "threshold+1 cull"
    # and "threshold+1 no cull", marking leaves threshold + 1 normals; "no
    # normals", every particle is a vortex (a flat objective).
    @pytest.mark.parametrize("name,dimension,kwargs,case", [
        pytest.param("booth", 2, {}, None, id="booth-2-kwargs0"),
        pytest.param("sphere", 5, {}, None, id="sphere-5-kwargs1"),
        pytest.param("rosenbrock", 3, {"n_particles": 12, "elimination_threshold": 3}, None,
                     id="rosenbrock-3-kwargs2"),
        pytest.param("sphere", 5, {"n_particles": 6, "elimination_threshold": 4}, "dropped",
                     id="dropped"),
        pytest.param("sphere", 5, {"n_particles": 8, "elimination_threshold": 3},
                     "threshold+1 cull", id="threshold+1-cull"),
        pytest.param("booth", 2, {"n_particles": 8, "elimination_threshold": 1},
                     "threshold+1 no cull", id="threshold+1-no-cull"),
        pytest.param("flat", 2, {"n_particles": 5}, "no normals", id="no-normals"),
    ])
    def test_iteration_consumes_the_stream_layout(self, monkeypatch, name, dimension, kwargs,
                                                  case):
        config = VoaConfig(**kwargs)
        if name == "flat":
            objective = Objective(name="flat", bounds=((-1.0, 1.0),) * dimension,
                                  evaluate=lambda X: np.zeros(X.shape[:-1]))
        else:
            objective = get_objective(name, dimension)
        n, threshold = config.n_particles, config.threshold
        vortices, respawned, hit = [], [], set()
        real_mark, real_eliminate = engine.mark_vortices, engine.eliminate_and_respawn

        def mark(state):
            mean = real_mark(state)
            vortices.append(int(np.count_nonzero(state.is_vortex)))
            return mean

        def eliminate(state, *rest):
            normal = int(np.count_nonzero(~state.is_vortex))
            triggered = real_eliminate(state, *rest)
            respawned.append(normal if triggered else 0)
            marked_normals = n - vortices[-1]
            if normal == marked_normals - 1 and triggered:
                hit.add("dropped")
            if marked_normals == threshold + 1:
                hit.add("threshold+1 cull" if triggered else "threshold+1 no cull")
            if marked_normals == 0:
                hit.add("no normals")
            return triggered

        monkeypatch.setattr(engine, "mark_vortices", mark)
        monkeypatch.setattr(engine, "eliminate_and_respawn", eliminate)
        rng = RandomSource(21)
        state = initialize_swarm(config, objective, rng)
        used = n * dimension + 1
        for it in range(8):
            advance_iteration(state, config, objective, rng)
            used += n + (vortices[it] - 1) + (n - 1) * dimension + respawned[it] * dimension
            # The next draw is the one right after the counted ones.
            assert rng.uniform_unit_batch(1)[0] == splitmix64_units(21, used + 1)[-1]
            used += 1
        assert case is None or case in hit

    def test_stages_called_through_module_globals(self, monkeypatch):
        config = VoaConfig()
        objective = get_objective("booth", 2)
        rng = RandomSource(5)
        state = initialize_swarm(config, objective, rng)
        calls = {name: [] for name in STAGES}
        for name in STAGES:
            def record(*args, _name=name, _real=getattr(engine, name)):
                calls[_name].append(args)
                return _real(*args)

            monkeypatch.setattr(engine, name, record)
        advance_iteration(state, config, objective, rng)
        assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(STAGES, 1)
        assert calls["mark_vortices"][0] == (state,)
        refresh_args = calls["refresh_fitness_and_best"][0]
        assert len(refresh_args) == 3
        assert refresh_args[0] is state and refresh_args[1] is objective
        # The benchmark's tracer reads the cull's first four arguments.
        eliminate_args = calls["eliminate_and_respawn"][0]
        assert len(eliminate_args) == 6
        assert all(a is b for a, b in zip(eliminate_args, (state, config, objective, rng)))
        assert eliminate_args[4] is refresh_args[2]


class TestWrapperFreePath:
    @pytest.mark.parametrize("name,dimension", [("booth", 2), ("sphere", 30)])
    def test_iterations_enter_no_numpy_python_wrapper(self, name, dimension):
        # numpy's Python-level wrappers (ndarray.clip -> _methods._clip,
        # ndarray.min -> _methods._amin, np.sum -> fromnumeric.sum) cost
        # microseconds per call on swarm-sized arrays; the stages call ufuncs.
        config = VoaConfig()
        objective = get_objective(name, dimension)
        rng = RandomSource(3)
        state = initialize_swarm(config, objective, rng)
        entered = set()

        def profile(frame, event, _arg):
            if event == "call":
                entered.add((Path(frame.f_code.co_filename), frame.f_code.co_name))

        sys.setprofile(profile)
        try:
            for _ in range(20):
                advance_iteration(state, config, objective, rng)
        finally:
            sys.setprofile(None)
        wrappers = sorted(f"{path.name}:{func}" for path, func in entered
                          if "numpy" in path.parts
                          and path.name in ("_methods.py", "fromnumeric.py"))
        assert wrappers == []
