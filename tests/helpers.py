"""Shared test utilities: the row-loop lift of a scalar objective, CSV
munging, and the invariant driver used by the property and acceptance suites.
"""

from types import SimpleNamespace

import numpy as np

from vortexopt import VoaConfig, engine
from vortexopt.harness import RUNS_HEADER

STAGES = ("initialize_swarm", "mark_vortices", "vorticity_pull", "vorticity_decay",
          "move_toward_best", "refresh_fitness_and_best", "eliminate_and_respawn")


def rowwise(f):
    """Lift ``f``, a function of one position vector, to the objective
    contract: an (..., d) array maps to the (...) array of f's values, one
    per row, by a loop over the rows."""
    def evaluate(X):
        X = np.asarray(X, dtype=np.float64)
        values = [f(row) for row in X.reshape(-1, X.shape[-1])]
        return np.array(values, dtype=np.float64).reshape(X.shape[:-1])
    return evaluate


def strip_wall_column(csv_text):
    """Drop the wall_time_ms column so run CSVs can be compared byte-wise."""
    columns = RUNS_HEADER.split(",")
    assert "wall_time_ms" in columns
    wall = columns.index("wall_time_ms")
    out_lines = []
    for line in csv_text.splitlines():
        cells = line.split(",")
        header = cells and cells[0] == "function"
        kept = [c for i, c in enumerate(cells) if i != wall]
        assert header is False or cells[wall] == "wall_time_ms"
        out_lines.append(",".join(kept))
    return "\n".join(out_lines)


def run_with_invariant_checks(config: VoaConfig, objective, seed=1):
    """Run ``engine.run`` from ``seed`` with its stage functions wrapped,
    asserting the swarm invariants at every stage boundary, and check the
    report against the swarm the stages left.

    Returns the number of iterations in which elimination triggered.
    """
    n, d = config.n_particles, objective.dimension
    lower, upper = objective.lower, objective.upper
    real = {name: getattr(engine, name) for name in STAGES}
    seen = SimpleNamespace(state=None, means=[], eliminations=0, evaluations=0, best=None,
                           holder=None, holder_position=None)

    def assert_in_box(positions):
        assert positions.shape == (n, d), "population size changed"
        assert np.all(positions >= lower) and np.all(positions <= upper), "left the box"

    def initialize_swarm(*args):
        state = real["initialize_swarm"](*args)
        assert_in_box(state.positions)
        assert int(state.is_vortex.sum()) == 1
        assert state.fitness[state.best_index] == state.fitness.min()
        seen.state = state
        seen.evaluations += n
        return state

    def mark_vortices(state):
        mean = real["mark_vortices"](state)
        assert mean == state.fitness.mean(), "marking returned another mean"
        expected = state.fitness <= mean
        expected[state.best_index] = True
        assert np.array_equal(state.is_vortex, expected), "marking rule violated"
        seen.means.append(mean)
        seen.best = state.fitness[state.best_index]
        seen.holder = state.best_index
        seen.holder_position = state.positions[state.best_index].copy()
        return mean

    def vorticity_pull(*args):
        pulled = real["vorticity_pull"](*args)
        assert np.all(pulled >= -config.max_vorticity)
        assert np.all(pulled <= config.max_vorticity)
        return pulled

    def vorticity_decay(v, r):
        decayed = real["vorticity_decay"](v, r)
        assert np.all(np.abs(decayed) <= np.abs(v)), "decay is not a contraction"
        return decayed

    def move_toward_best(*args):
        moved = real["move_toward_best"](*args)
        assert_in_box(moved)
        return moved

    def refresh_fitness_and_best(state, objective, candidates):
        assert np.array_equal(state.positions[seen.holder], seen.holder_position), \
            "the record holder moved"
        # The refresh marks at most one more vortex, so a cull can trigger only
        # with normals - 1 <= threshold, and it may then take every normal.
        normals = int(np.count_nonzero(~state.is_vortex))
        rows = normals if normals - 1 <= config.threshold else 0
        assert candidates.shape == (rows, d), "candidates for other than every normal particle"
        assert np.all(candidates >= lower) and np.all(candidates <= upper), "left the box"
        non_finite, candidate_fitness = real["refresh_fitness_and_best"](
            state, objective, candidates)
        assert candidate_fitness.shape == (len(candidates),)
        seen.evaluations += n
        assert_in_box(state.positions)
        assert state.fitness.shape == (n,), "population size changed"
        record = state.fitness[state.best_index]
        assert record <= seen.best, "best-so-far record worsened"
        assert record == state.fitness.min()
        # The record is the holder's row, so it relies on a pure objective: a
        # kept holder's unmoved row re-evaluates to the value it held.
        if state.best_index == seen.holder:
            assert record == seen.best, "a kept holder's fitness changed on re-evaluation"
        return non_finite, candidate_fitness

    def eliminate_and_respawn(state, config, objective, rng, candidates, candidate_fitness):
        pre_positions = state.positions.copy()
        pre_vortex = state.is_vortex.copy()
        triggered = real["eliminate_and_respawn"](state, config, objective, rng, candidates,
                                                  candidate_fitness)
        assert_in_box(state.positions)
        assert np.array_equal(state.is_vortex, pre_vortex)
        # Vortex particles survive untouched; only normals may be replaced.
        kept = pre_vortex if triggered else slice(None)
        assert np.array_equal(state.positions[kept], pre_positions[kept])
        if triggered:
            # The normals, index ascending, took a prefix of the candidates.
            count = int(np.count_nonzero(~pre_vortex))
            assert np.array_equal(state.positions[~pre_vortex], candidates[:count])
            assert np.array_equal(state.fitness[~pre_vortex], candidate_fitness[:count])
        seen.eliminations += triggered
        # Each particle a cull respawns counts one evaluation: all the normals.
        seen.evaluations += int(np.count_nonzero(~pre_vortex)) if triggered else 0
        return triggered

    try:
        for wrapper in (initialize_swarm, mark_vortices, vorticity_pull, vorticity_decay,
                        move_toward_best, refresh_fitness_and_best, eliminate_and_respawn):
            setattr(engine, wrapper.__name__, wrapper)
        report = engine.run(config, objective, seed)
    finally:
        for name, fn in real.items():
            setattr(engine, name, fn)

    assert len(seen.means) == report.iterations
    assert np.array_equal(report.trace.mean_fitness[:-1], seen.means)
    holder = seen.state.best_index
    assert report.best_fitness == seen.state.fitness[holder]
    assert np.array_equal(report.best_position, seen.state.positions[holder])
    assert report.evaluations == seen.evaluations
    assert seen.eliminations == report.trace.eliminations_triggered.sum()
    return seen.eliminations
