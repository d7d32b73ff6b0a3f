"""The vortex optimization loop.

One run proceeds as: random initialization with a one-time vorticity kick for
the initial best particle, then a fixed number of iterations each made of six
ordered stages:

1. mark every particle at or below the population mean fitness as a vortex,
2. pull every particle's vorticity toward the recorded best vorticity,
3. decay the vorticity of every vortex particle except the record holder,
4. move every particle except the record holder toward the recorded best
   position,
5. re-evaluate all fitnesses and update the best-so-far record on strict
   improvement,
6. when few enough normal particles remain, respawn all of them uniformly.

Randomness is consumed in a fixed order (stage by stage, particle index
ascending, coordinate index ascending within a particle), so a run is a pure
function of (config, objective, seed). ``advance_iteration`` takes the pull,
decay and move draws of an iteration in one batch and slices it, since their
counts are known once marking is done; the respawn draws come from a second
call. The stream layout is the same as with one call per stage.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Objective, RandomSource, SwarmState, VoaConfig

__all__ = [
    "RunTrace",
    "RunReport",
    "vorticity_kick",
    "vorticity_pull",
    "vorticity_decay",
    "move_toward_best",
    "initialize_swarm",
    "mark_vortices",
    "refresh_fitness_and_best",
    "eliminate_and_respawn",
    "advance_iteration",
    "run",
]


class RunTrace:
    """Columnar trace of a whole run, one array per column: row 0 is the
    initialized swarm and row k the swarm after iteration k."""

    def __init__(self, best_fitness_so_far, mean_fitness, vortex_count,
                 eliminations_triggered, non_finite_evals):
        self.best_fitness_so_far = np.asarray(best_fitness_so_far, dtype=np.float64)
        self.mean_fitness = np.asarray(mean_fitness, dtype=np.float64)
        self.vortex_count = np.asarray(vortex_count, dtype=np.int64)
        self.eliminations_triggered = np.asarray(eliminations_triggered, dtype=bool)
        self.non_finite_evals = np.asarray(non_finite_evals, dtype=np.int64)

    def __len__(self):
        return self.best_fitness_so_far.shape[0]

    @property
    def iteration(self) -> np.ndarray:
        """The row numbers: row k is the swarm after iteration k."""
        return np.arange(len(self))


@dataclass(eq=False)
class RunReport:
    """Everything a single run produced, plus the configuration that made it."""

    function: str
    dimension: int
    seed: int
    best_fitness: float
    best_position: np.ndarray
    evaluations: int
    iterations: int
    wall_time_ms: float
    config: VoaConfig
    trace: Optional[RunTrace] = None
    error: Optional[str] = None


def vorticity_kick(v, r, v_min, v_max):
    """Upward vorticity nudge ``v + r*v``, clamped to the configured limits.

    Applied exactly once per run, to the initial best particle.
    """
    return np.clip(v + r * v, v_min, v_max)


def vorticity_pull(v, best_v, r, epsilon, v_min, v_max):
    """Vorticity step ``v + r * (best_v / v)``, guarded and clamped.

    The divisor is the particle's own vorticity; magnitudes below ``epsilon``
    are replaced by ``epsilon`` carrying the original sign (zero counts as
    positive), so the step stays finite. The result is clamped to
    [v_min, v_max]. Accepts scalars or arrays.
    """
    v = np.asarray(v, dtype=np.float64)
    size = np.abs(v)
    guarded = v
    # The minimum is NaN when v holds a NaN, which also takes the guarded branch.
    if not np.minimum.reduce(size, axis=None) >= epsilon:
        guarded = np.where(size >= epsilon, v, np.where(v >= 0.0, epsilon, -epsilon))
    # Limits first: on a signed-zero tie this keeps the same zero that
    # ndarray.clip keeps with scalar limits.
    out = np.minimum(v_max, np.maximum(v_min, v + r * (best_v / guarded)))
    return out if out.ndim else float(out)


def vorticity_decay(v, r):
    """Contraction ``r*v`` with r in [0, 1); never leaves the clamp interval."""
    return r * v


def move_toward_best(positions, vorticity, best_position, r, lower, upper):
    """Move particles along ``r * v * (best - position)``, clamped to the box.

    ``positions`` is one vector or a (k, d) stack. ``r`` may be a scalar, one
    draw per particle (k,), or one draw per coordinate (the shape of
    ``positions``); a scalar or per-particle draw is shared by all coordinates
    of that particle, confining the move to the line through the best position.
    """
    pos = np.asarray(positions, dtype=np.float64)
    best = np.asarray(best_position, dtype=np.float64)
    if pos.ndim not in (1, 2) or best.shape != pos.shape[-1:]:
        raise ValueError(
            f"dimension mismatch: positions have shape {pos.shape}, "
            f"best position has shape {best.shape}"
        )
    v = np.asarray(vorticity, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    if r.ndim == pos.ndim:
        factor = r * v[..., None]
    else:
        factor = (r * v)[..., None]
    # pos + factor * (best - pos), computed and clamped in place on one new array.
    moved = best - pos
    moved *= factor
    moved += pos
    np.maximum(moved, lower, out=moved)
    np.minimum(moved, upper, out=moved)
    return moved


def _sanitize(values: np.ndarray) -> np.ndarray:
    # Non-finite objective values compare as +inf so they never win a record.
    return np.where(np.isfinite(values), values, np.inf)


def initialize_swarm(config: VoaConfig, objective: Objective, rng: RandomSource) -> SwarmState:
    """Place the population uniformly in the box and seed the best record.

    All particles start at the configured initial vorticity with normal
    status; the fittest one receives the one-time vorticity kick, becomes a
    vortex, and its values become the best-so-far record.
    """
    n = config.n_particles
    positions = rng._box_points(objective.lower, objective.upper, n)
    fitness = _sanitize(objective.evaluate_rows(positions))
    vorticity = np.full(n, config.initial_vorticity, dtype=np.float64)
    best_index = int(fitness.argmin())
    r = rng.uniform_unit()
    vorticity[best_index] = float(
        vorticity_kick(vorticity[best_index], r, config.min_vorticity, config.max_vorticity)
    )
    is_vortex = np.zeros(n, dtype=bool)
    is_vortex[best_index] = True
    return SwarmState(
        positions=positions,
        vorticity=vorticity,
        fitness=fitness,
        is_vortex=is_vortex,
        best_position=positions[best_index].copy(),
        best_fitness=float(fitness[best_index]),
        best_vorticity=float(vorticity[best_index]),
        best_index=best_index,
        evaluations=n,
    )


def mark_vortices(state: SwarmState) -> SwarmState:
    """Classify particles: fitness at or below the population mean is a vortex.

    The best-so-far holder keeps vortex status regardless of the mean test.
    The mean is kept in ``state.mean_fitness``.
    """
    fitness = state.fitness
    # np.add.reduce / n is the sum and division that ndarray.mean performs.
    state.mean_fitness = np.add.reduce(fitness) / fitness.shape[0]
    state.is_vortex = fitness <= state.mean_fitness
    state.is_vortex[state.best_index] = True
    return state


def refresh_fitness_and_best(state: SwarmState, objective: Objective) -> int:
    """Re-evaluate every particle and update the best-so-far record.

    The iteration's best particle is marked vortex. The record is replaced
    only on strict improvement; ties keep the incumbent holder. Non-finite
    fitness values are stored as +inf; their count is returned for the trace.
    """
    raw = objective.evaluate_rows(state.positions)
    n = state.n_particles
    state.evaluations += n
    finite = np.isfinite(raw)
    state.fitness = np.where(finite, raw, np.inf)
    it_best = int(state.fitness.argmin())
    state.is_vortex[it_best] = True
    if state.fitness[it_best] < state.best_fitness:
        state.best_fitness = float(state.fitness[it_best])
        state.best_position = state.positions[it_best].copy()
        state.best_vorticity = float(state.vorticity[it_best])
        state.best_index = it_best
    return n - int(np.count_nonzero(finite))


def eliminate_and_respawn(state: SwarmState, config: VoaConfig, objective: Objective,
                          rng: RandomSource) -> bool:
    """Cull and replace the normal particles when few enough remain.

    Triggers when the normal count is at or below the elimination threshold;
    every normal particle is then replaced by a fresh uniform-random one at
    the initial vorticity, already evaluated, still with normal status.
    Vortex particles, including the record holder, are untouched and the
    population size never changes. Returns whether the cull triggered.
    """
    count = state.n_particles - int(np.count_nonzero(state.is_vortex))
    if count > config.elimination_threshold:
        return False
    if count:
        normal = (~state.is_vortex).nonzero()[0]
        fresh = rng._box_points(objective.lower, objective.upper, count)
        state.positions[normal] = fresh
        state.vorticity[normal] = config.initial_vorticity
        state.fitness[normal] = _sanitize(objective.evaluate_rows(fresh))
        state.evaluations += count
    return True


def advance_iteration(state: SwarmState, config: VoaConfig, objective: Objective,
                      rng: RandomSource):
    """Run one full iteration in stage order; returns (eliminated, non_finite)."""
    n = state.n_particles
    mark_vortices(state)
    holder = state.best_index

    # The pull, decay and move draws are consecutive in the stream and their
    # counts are known once marking is done, so they come from one call.
    # Marking keeps the record holder a vortex, and the holder does not decay.
    k = int(np.count_nonzero(state.is_vortex)) - 1
    m = objective.dimension if config.per_coordinate_draws else 1
    draws = rng.uniform_unit_batch(n + k + (n - 1) * m)

    # Vorticity pull toward the record, every particle including the holder.
    state.vorticity = vorticity_pull(state.vorticity, state.best_vorticity, draws[:n],
                                     config.pull_epsilon, config.min_vorticity,
                                     config.max_vorticity)

    # Decay for vortex particles other than the record holder.
    if k:
        decaying = state.is_vortex.copy()
        decaying[holder] = False
        state.vorticity[decaying] = vorticity_decay(state.vorticity[decaying],
                                                    draws[n:n + k])

    # Move the whole swarm toward the recorded best position, with a zero draw
    # at the holder's row, then restore the holder's row: it does not move.
    r = draws[n + k:]
    split = holder * m
    r = np.concatenate((r[:split], np.zeros(m), r[split:])).reshape(n, m)
    before = state.positions
    state.positions = move_toward_best(before, state.vorticity, state.best_position,
                                       r, objective.lower, objective.upper)
    state.positions[holder] = before[holder]

    non_finite = refresh_fitness_and_best(state, objective)
    eliminated = eliminate_and_respawn(state, config, objective, rng)
    return eliminated, non_finite


def run(config: VoaConfig, objective: Objective) -> RunReport:
    """Execute a full optimization run and report the best record found.

    The report carries the complete per-iteration trace (row 0 describes the
    initialized swarm), the total number of objective evaluations, and an
    echo of the configuration. Identical (config, objective) pairs produce
    identical reports apart from wall time.
    """
    t0 = time.perf_counter()
    rng = RandomSource(config.seed)
    state = initialize_swarm(config, objective, rng)

    # One row per trace column is appended as each iteration finishes.
    best = [state.best_fitness]
    mean = []
    vortex = [np.count_nonzero(state.is_vortex)]
    eliminated = [False]
    non_finite = [np.count_nonzero(np.isinf(state.fitness))]
    for _ in range(config.max_iterations):
        triggered, bad_evals = advance_iteration(state, config, objective, rng)
        # Marking in this iteration averaged the fitness the previous one left.
        mean.append(state.mean_fitness)
        best.append(state.best_fitness)
        vortex.append(np.count_nonzero(state.is_vortex))
        eliminated.append(triggered)
        non_finite.append(bad_evals)
        if config.target_fitness is not None and state.best_fitness <= config.target_fitness:
            break
    mean.append(state.fitness.mean())
    trace = RunTrace(best, mean, vortex, eliminated, non_finite)

    wall_ms = (time.perf_counter() - t0) * 1000.0
    return RunReport(
        function=objective.name,
        dimension=objective.dimension,
        seed=config.seed,
        best_fitness=state.best_fitness,
        best_position=state.best_position.copy(),
        evaluations=state.evaluations,
        iterations=len(trace) - 1,
        wall_time_ms=wall_ms,
        config=config,
        trace=trace,
    )
