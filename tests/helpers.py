"""Shared test utilities: CSV munging, and the stage-by-stage invariant
driver used by the property and acceptance suites.
"""

import numpy as np

from vortexopt import (
    VoaConfig,
    eliminate_and_respawn,
    initialize_swarm,
    mark_vortices,
    move_toward_best,
    refresh_fitness_and_best,
    run,
    vorticity_decay,
    vorticity_pull,
)
from vortexopt.core import RandomSource


def strip_wall_column(csv_text):
    """Drop the wall_time_ms column so run CSVs can be compared byte-wise."""
    out_lines = []
    for line in csv_text.splitlines():
        cells = line.split(",")
        header = cells and cells[0] == "function"
        kept = [c for i, c in enumerate(cells) if i != 6]
        assert header is False or cells[6] == "wall_time_ms"
        out_lines.append(",".join(kept))
    return "\n".join(out_lines)


def run_with_invariant_checks(config: VoaConfig, objective):
    """Drive a full run through the public stage operations, asserting the
    swarm invariants between stages, and cross-check the result against the
    one-shot driver.

    Returns the number of iterations in which elimination triggered.
    """
    rng = RandomSource(config.seed)
    state = initialize_swarm(config, objective, rng)
    n = config.n_particles
    d = objective.dimension
    lower, upper = objective.lower, objective.upper
    eliminations = 0

    assert state.positions.shape == (n, d)
    assert int(state.is_vortex.sum()) == 1
    assert np.all(state.positions >= lower) and np.all(state.positions <= upper)
    assert state.best_fitness == state.fitness.min()

    for _ in range(config.max_iterations):
        prev_best = state.best_fitness

        mark_vortices(state)
        mean = state.fitness.mean()
        expected = (state.fitness <= mean).copy()
        expected[state.best_index] = True
        assert np.array_equal(state.is_vortex, expected), "marking rule violated"

        r = rng.uniform_unit_batch(n)
        state.vorticity = np.asarray(vorticity_pull(
            state.vorticity, state.best_vorticity, r,
            config.pull_epsilon, config.min_vorticity, config.max_vorticity,
        ))
        assert np.all(state.vorticity >= config.min_vorticity)
        assert np.all(state.vorticity <= config.max_vorticity)

        decaying = state.is_vortex.copy()
        decaying[state.best_index] = False
        k = int(decaying.sum())
        if k:
            before = np.abs(state.vorticity[decaying])
            r = rng.uniform_unit_batch(k)
            state.vorticity[decaying] = vorticity_decay(state.vorticity[decaying], r)
            assert np.all(np.abs(state.vorticity[decaying]) <= before)

        moving = np.ones(n, dtype=bool)
        moving[state.best_index] = False
        holder_position = state.positions[state.best_index].copy()
        if config.per_coordinate_draws:
            r = rng.uniform_unit_batch((n - 1) * d).reshape(n - 1, d)
        else:
            r = rng.uniform_unit_batch(n - 1)
        state.positions[moving] = move_toward_best(
            state.positions[moving], state.vorticity[moving],
            state.best_position, r, lower, upper,
        )
        assert np.all(state.positions >= lower) and np.all(state.positions <= upper)
        assert np.array_equal(state.positions[state.best_index], holder_position)

        refresh_fitness_and_best(state, objective)
        assert state.positions.shape == (n, d), "population size changed"
        assert state.best_fitness <= prev_best, "best-so-far record worsened"
        assert state.best_fitness <= state.fitness.min()
        assert state.fitness[state.best_index] == state.best_fitness

        pre_positions = state.positions.copy()
        pre_vortex = state.is_vortex.copy()
        triggered = eliminate_and_respawn(state, config, objective, rng)
        assert state.positions.shape == (n, d)
        assert np.all(state.positions >= lower) and np.all(state.positions <= upper)
        if triggered:
            eliminations += 1
            # Vortex particles survive untouched; only normals were replaced.
            assert np.array_equal(state.positions[pre_vortex], pre_positions[pre_vortex])
            assert np.array_equal(state.is_vortex, pre_vortex)
        else:
            assert np.array_equal(state.positions, pre_positions)
        state.iteration += 1

    report = run(config, objective)
    assert report.best_fitness == state.best_fitness
    assert np.array_equal(report.best_position, state.best_position)
    assert report.evaluations == state.evaluations
    return eliminations
