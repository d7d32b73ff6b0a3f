"""Differential test: ``run`` against the straight-line ``oracles.reference_run``.

Hypothesis draws the whole configuration space the engine accepts, within
small sizes: swarm size, dimension, elimination threshold, an initial
vorticity that may lie outside the vorticity limit [-7, 7] or below the pull's
guard, an early-stop target and short run lengths, on registry objectives
and on a user objective with flat steps and non-finite regions. Every report
field and trace column must match bit for bit.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import rowwise
from oracles import reference_run
from vortexopt import Objective, VoaConfig, get_objective, run

FIXED_2D = ("booth", "beale", "goldstein_price", "mccormick", "three_hump_camel")


def _stepped(x):
    # Floored bowl, so ties are common; nan, +inf and -inf over parts of the box.
    if x[0] > 3.0:
        return math.nan
    if x[0] < -4.5:
        return math.inf
    if x[-1] < -4.0:
        return -math.inf
    return float(math.floor(sum(c * c for c in x) / 4.0))


def _objective(name, dimension):
    if name == "stepped":
        return Objective(name="stepped", bounds=((-5.0, 5.0),) * dimension,
                         evaluate=rowwise(_stepped))
    return get_objective(name, dimension)


@st.composite
def cases(draw):
    name = draw(st.sampled_from(FIXED_2D + ("sphere", "rosenbrock", "stepped")))
    if name in FIXED_2D:
        dimension = 2
    else:
        dimension = draw(st.integers(2 if name == "rosenbrock" else 1, 6))
    n = draw(st.integers(2, 60))
    config = VoaConfig(
        n_particles=n,
        max_iterations=draw(st.integers(0, 40)),
        # Magnitudes below the pull's divisor guard (1e-9) take its guarded branch.
        initial_vorticity=draw(st.floats(-12.0, 12.0) | st.sampled_from([0.0, 5e-10, -5e-10])),
        elimination_threshold=draw(st.integers(0, n)),
        target_fitness=draw(st.none() | st.sampled_from([0.0, 1e-6, 1.0, 4.0, 50.0])),
    )
    return config, _objective(name, dimension), draw(st.integers(0, 2**64 - 1))


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@settings(max_examples=300, deadline=None)
@given(case=cases())
# Above the limit, the initial vorticity makes the kick and the first pull clamp at 7.
@example(case=(VoaConfig(n_particles=10, max_iterations=3, initial_vorticity=9.0),
               get_objective("sphere", 2), 1))
def test_run_matches_reference_engine(case):
    config, objective, seed = case
    got = run(config, objective, seed)
    want = reference_run(config, objective, seed)
    assert _bits(got.best_fitness) == _bits(want["best_fitness"])
    assert _bits(got.best_position) == _bits(want["best_position"])
    assert got.evaluations == want["evaluations"]
    assert got.iterations == want["iterations"]
    trace = want["trace"]
    for column in ("iteration", "vortex_count", "eliminations_triggered", "non_finite_evals"):
        assert getattr(got.trace, column).tolist() == trace[column], column
    for column in ("best_fitness_so_far", "mean_fitness"):
        assert _bits(getattr(got.trace, column)) == _bits(trace[column]), column
