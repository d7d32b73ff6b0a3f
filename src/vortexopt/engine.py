"""The vortex optimization loop.

One run proceeds as: random initialization with a one-time vorticity kick for
the initial best particle, then a fixed number of iterations each made of six
ordered stages:

1. mark every particle at or below the population mean fitness as a vortex,
2. pull every particle's vorticity toward the recorded best vorticity,
3. decay the vorticity of every vortex particle except the record holder,
4. move every particle except the record holder toward the holder's row,
5. re-evaluate all fitnesses and update the best-so-far record on strict
   improvement,
6. when few enough normal particles remain, respawn all of them uniformly.

Randomness is consumed in a fixed order (stage by stage, particle index
ascending, coordinate index ascending within a particle), so a run is a pure
function of (config, objective, seed). ``advance_iteration`` takes the pull,
decay and move draws of an iteration in one batch and slices it, since their
counts are known once marking is done. The j-th respawned particle takes the
next draws j*d to j*d + d - 1 whatever its index, so candidates for every
normal particle are peeked and evaluated with the moved swarm in one call;
a cull places a prefix of them and consumes only their draws. The stream
layout is the same as with one call per stage.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
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

# The pull divides by a particle's vorticity; this floor on its magnitude keeps the step finite.
_PULL_EPSILON = 1e-9


@dataclass(eq=False)
class RunTrace:
    """A run's trace, one array per field; the fields are the trace CSV's columns
    in order. Row 0 is the initialized swarm, row k the swarm after iteration k."""

    best_fitness_so_far: np.ndarray
    mean_fitness: np.ndarray
    vortex_count: np.ndarray
    eliminations_triggered: np.ndarray
    non_finite_evals: np.ndarray

    def __len__(self):
        return self.best_fitness_so_far.shape[0]

    @property
    def iteration(self) -> np.ndarray:
        """The row numbers: row k is the swarm after iteration k."""
        return np.arange(len(self))


@dataclass(eq=False)
class RunReport:
    """Everything a single run produced, plus the configuration that made it;
    the defaults describe a run that produced nothing, as a failed one."""

    function: str
    dimension: int
    seed: int
    best_fitness: float = np.nan
    best_position: np.ndarray = field(default_factory=lambda: np.empty(0))
    evaluations: int = 0
    iterations: int = 0
    wall_time_ms: float = 0.0
    config: Optional[VoaConfig] = None
    trace: Optional[RunTrace] = None
    error: Optional[str] = None


def vorticity_kick(v, r, v_min, v_max):
    """Upward vorticity nudge ``v + r*v``, clamped to the configured limits.

    Applied exactly once per run, to the initial best particle.
    """
    return np.clip(v + r * v, v_min, v_max)


def vorticity_pull(v, best_v, r, epsilon, v_min, v_max):
    """Vorticity step ``v + r * (best_v / v)``, guarded and clamped.

    ``v`` and ``r`` are (k,) arrays. The divisor is the particle's own
    vorticity; magnitudes below ``epsilon`` are replaced by ``epsilon``
    carrying the original sign (zero counts as positive), so the step stays
    finite. The result is clamped to [v_min, v_max].
    """
    size = np.abs(v)
    guarded = v
    # The minimum is NaN when v holds a NaN, which also takes the guarded branch.
    if not np.minimum.reduce(size) >= epsilon:
        guarded = np.where(size >= epsilon, v, np.where(v >= 0.0, epsilon, -epsilon))
    # Limits first: on a signed-zero tie this keeps the same zero that
    # ndarray.clip keeps with scalar limits.
    return np.minimum(v_max, np.maximum(v_min, v + r * (best_v / guarded)))


def vorticity_decay(v, r):
    """Contraction ``r*v`` with r in [0, 1); never leaves the clamp interval."""
    return r * v


def move_toward_best(positions, vorticity, best_position, r, lower, upper):
    """Move particles along ``r * v * (best - position)``, clamped to the box.

    ``positions`` is a (k, d) stack, ``vorticity`` (k,) and ``best_position``
    (d,). ``r`` holds one draw per coordinate, (k, d).
    """
    # positions + r * v * (best - positions), computed and clamped in place on one new array.
    moved = best_position - positions
    moved *= r * vorticity[:, None]
    moved += positions
    np.maximum(moved, lower, out=moved)
    np.minimum(moved, upper, out=moved)
    return moved


def initialize_swarm(config: VoaConfig, objective: Objective, rng: RandomSource) -> SwarmState:
    """Place the population uniformly in the box and seed the best record.

    All particles start at the configured initial vorticity with normal
    status; the fittest one receives the one-time vorticity kick, becomes a
    vortex, and holds the best-so-far record.
    """
    n = config.n_particles
    positions = objective.sample(rng, n)
    raw = objective.evaluate_rows(positions)
    # Non-finite objective values compare as +inf so they never win a record.
    fitness = np.where(np.isfinite(raw), raw, np.inf)
    vorticity = np.full(n, config.initial_vorticity, dtype=np.float64)
    best_index = int(fitness.argmin())
    r = float(rng.uniform_unit_batch(1)[0])
    vorticity[best_index] = float(
        vorticity_kick(vorticity[best_index], r, -config.max_vorticity, config.max_vorticity)
    )
    is_vortex = np.zeros(n, dtype=bool)
    is_vortex[best_index] = True
    return SwarmState(
        positions=positions,
        vorticity=vorticity,
        fitness=fitness,
        is_vortex=is_vortex,
        best_vorticity=float(vorticity[best_index]),
        best_index=best_index,
    )


def mark_vortices(state: SwarmState) -> float:
    """Classify particles: fitness at or below the population mean is a vortex.

    The best-so-far holder keeps vortex status regardless of the mean test.
    Returns the mean.
    """
    fitness = state.fitness
    # np.add.reduce / n is the sum and division that ndarray.mean performs.
    mean = np.add.reduce(fitness) / fitness.shape[0]
    state.is_vortex = fitness <= mean
    state.is_vortex[state.best_index] = True
    return mean


def refresh_fitness_and_best(state: SwarmState, objective: Objective,
                             candidates: np.ndarray) -> tuple:
    """Re-evaluate the swarm and the cull's (c, d) candidates in one call; update the record.

    The record is the holder's row, which did not move, so a pure objective
    re-evaluates it to the value it held. The iteration's best particle is
    marked vortex and takes the record only on strict improvement; ties keep
    the holder. Non-finite values are stored as +inf; returns their count among
    the n particles and the candidates' (c,) fitness.
    """
    n = state.n_particles
    raw = objective.evaluate_rows(np.concatenate((state.positions, candidates)))
    finite = np.isfinite(raw)
    values = np.where(finite, raw, np.inf)
    state.fitness = values[:n]
    it_best = int(state.fitness.argmin())
    state.is_vortex[it_best] = True
    if state.fitness[it_best] < state.fitness[state.best_index]:
        state.best_vorticity = float(state.vorticity[it_best])
        state.best_index = it_best
    return n - int(np.count_nonzero(finite[:n])), values[n:]


def eliminate_and_respawn(state: SwarmState, config: VoaConfig, objective: Objective,
                          rng: RandomSource, candidates: np.ndarray,
                          candidate_fitness: np.ndarray) -> bool:
    """Cull and replace the normal particles when few enough remain.

    Triggers when the normal count is at or below the elimination threshold;
    every normal particle is then replaced, index ascending, by the next
    candidate row at the initial vorticity, with its fitness, still with
    normal status, and the candidates' draws are consumed. Vortex particles,
    including the record holder, are untouched and the population size never
    changes. Returns whether the cull triggered.
    """
    count = state.n_particles - int(np.count_nonzero(state.is_vortex))
    if count > config.threshold:
        return False
    normal = (~state.is_vortex).nonzero()[0]
    rng.uniform_unit_batch(count * objective.dimension)
    state.positions[normal] = candidates[:count]
    state.vorticity[normal] = config.initial_vorticity
    state.fitness[normal] = candidate_fitness[:count]
    return True


def advance_iteration(state: SwarmState, config: VoaConfig, objective: Objective,
                      rng: RandomSource):
    """Run one full iteration in stage order; returns (mean, eliminated, non_finite)."""
    n = state.n_particles
    mean = mark_vortices(state)
    holder = state.best_index

    # The pull, decay and move draws are consecutive in the stream and their
    # counts are known once marking is done, so they come from one call.
    # Marking keeps the record holder a vortex, and the holder does not decay.
    k = int(np.count_nonzero(state.is_vortex)) - 1
    d = objective.dimension
    draws = rng.uniform_unit_batch(n + k + (n - 1) * d)

    # Vorticity pull toward the record, every particle including the holder.
    state.vorticity = vorticity_pull(state.vorticity, state.best_vorticity, draws[:n],
                                     _PULL_EPSILON, -config.max_vorticity, config.max_vorticity)

    # Decay for vortex particles other than the record holder.
    decaying = state.is_vortex.copy()
    decaying[holder] = False
    state.vorticity[decaying] = vorticity_decay(state.vorticity[decaying], draws[n:n + k])

    # Move the whole swarm toward the holder's row with a zero draw there, then restore that row.
    r = draws[n + k:]
    split = holder * d
    r = np.concatenate((r[:split], np.zeros(d), r[split:])).reshape(n, d)
    before = state.positions
    state.positions = move_toward_best(before, state.vorticity, before[holder], r,
                                       objective.lower, objective.upper)
    state.positions[holder] = before[holder]

    # Marking left n - 1 - k normals; a cull takes them all, or one fewer if refresh marks one.
    rows = n - 1 - k if n - 2 - k <= config.threshold else 0
    candidates = objective.to_box(rng.peek(rows * d).reshape(rows, d))
    non_finite, candidate_fitness = refresh_fitness_and_best(state, objective, candidates)
    eliminated = eliminate_and_respawn(state, config, objective, rng, candidates,
                                       candidate_fitness)
    return mean, eliminated, non_finite


def run(config: VoaConfig, objective: Objective, seed: int = 1) -> RunReport:
    """Execute a full optimization run from ``seed``'s random stream and report
    the best record found.

    The report carries the complete per-iteration trace (row 0 describes the
    initialized swarm), the total number of objective evaluations, and an
    echo of the configuration. Identical (config, objective, seed) triples
    produce identical reports apart from wall time.
    """
    t0 = time.perf_counter()
    rng = RandomSource(seed)
    state = initialize_swarm(config, objective, rng)

    rows = [(state.fitness[state.best_index], np.count_nonzero(state.is_vortex), False,
             np.count_nonzero(np.isinf(state.fitness)))]
    # Marking averages the fitness the previous iteration left, so the mean lags a row.
    means = []
    for _ in range(config.max_iterations):
        mean, eliminated, non_finite = advance_iteration(state, config, objective, rng)
        means.append(mean)
        best = state.fitness[state.best_index]
        rows.append((best, np.count_nonzero(state.is_vortex), eliminated, non_finite))
        if config.target_fitness is not None and best <= config.target_fitness:
            break
    means.append(state.fitness.mean())
    best, vortex, eliminated, non_finite = zip(*rows)
    trace = RunTrace(np.array(best), np.array(means), np.array(vortex, dtype=np.int64),
                     np.array(eliminated, dtype=bool), np.array(non_finite, dtype=np.int64))
    # Each row evaluated the swarm once, and a culled row its respawned normals too:
    # the cull leaves is_vortex as it was, so they number n - vortex_count.
    respawned = config.n_particles - trace.vortex_count[trace.eliminations_triggered]

    wall_ms = (time.perf_counter() - t0) * 1000.0
    return RunReport(
        function=objective.name,
        dimension=objective.dimension,
        seed=int(seed),
        best_fitness=float(state.fitness[state.best_index]),
        best_position=state.positions[state.best_index].copy(),
        evaluations=config.n_particles * len(trace) + int(respawned.sum()),
        iterations=len(trace) - 1,
        wall_time_ms=wall_ms,
        config=config,
        trace=trace,
    )
