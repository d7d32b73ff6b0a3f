"""Exact metamorphic relations of ``run``: scaling by a power of two.

Multiplying by 2**k is exact in binary floating point, and every step of the
engine either compares values, adds and subtracts them, or multiplies them by
draws that do not depend on scale. So a run on a scaled problem is the
original run, scaled, bit for bit:

* *Value scaling:* with the objective's values times 2**k, ``best_fitness``
  and the fitness trace are the original's times 2**k, and the search path
  is the same.
* *Box scaling:* with the box times 2**k and the objective composed with
  x / 2**k, the fitness results are identical and ``best_position`` is the
  original's times 2**k.

The relations need no oracle, so they check the engine independently of
``tests/oracles.py`` (Chen et al., "Metamorphic Testing: A Review of
Challenges and Opportunities", ACM Computing Surveys 51(1), 2018).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexopt import Objective, VoaConfig, benchmark_names, get_objective, get_spec, run


@st.composite
def cases(draw):
    name = draw(st.sampled_from(benchmark_names()))
    spec = get_spec(name)
    if spec.fixed_dimension is not None:
        dimension = spec.fixed_dimension
    else:
        dimension = draw(st.integers(spec.min_dimension, 6))
    config = VoaConfig(n_particles=draw(st.integers(2, 50)),
                       max_iterations=draw(st.integers(0, 60)),
                       seed=draw(st.integers(0, 2**64 - 1)))
    return get_objective(name, dimension), config, draw(st.integers(-6, 7))


@settings(max_examples=40, deadline=None)
@given(cases())
def test_value_scaling_scales_the_fitness_exactly(case):
    objective, config, k = case
    batch = get_spec(objective.name).batch
    scaled = Objective(name=objective.name, bounds=objective.bounds,
                       evaluate=lambda X: 2.0**k * batch(X))
    base, got = run(config, objective), run(config, scaled)
    assert got.best_fitness == 2.0**k * base.best_fitness
    np.testing.assert_array_equal(got.trace.best_fitness_so_far,
                                  2.0**k * base.trace.best_fitness_so_far)
    np.testing.assert_array_equal(got.trace.mean_fitness, 2.0**k * base.trace.mean_fitness)
    np.testing.assert_array_equal(got.best_position, base.best_position)
    assert got.evaluations == base.evaluations
    np.testing.assert_array_equal(got.trace.vortex_count, base.trace.vortex_count)
    np.testing.assert_array_equal(got.trace.eliminations_triggered,
                                  base.trace.eliminations_triggered)


@settings(max_examples=40, deadline=None)
@given(cases())
def test_box_scaling_scales_the_best_position_exactly(case):
    objective, config, k = case
    batch = get_spec(objective.name).batch
    scaled = Objective(name=objective.name,
                       bounds=[(2.0**k * lo, 2.0**k * hi) for lo, hi in objective.bounds],
                       evaluate=lambda X: batch(X / 2.0**k))
    base, got = run(config, objective), run(config, scaled)
    assert got.best_fitness == base.best_fitness
    np.testing.assert_array_equal(got.best_position, 2.0**k * base.best_position)
    np.testing.assert_array_equal(got.trace.best_fitness_so_far, base.trace.best_fitness_so_far)
    np.testing.assert_array_equal(got.trace.mean_fitness, base.trace.mean_fitness)
    assert got.evaluations == base.evaluations
    np.testing.assert_array_equal(got.trace.vortex_count, base.trace.vortex_count)
    np.testing.assert_array_equal(got.trace.eliminations_triggered,
                                  base.trace.eliminations_triggered)
