"""Exact metamorphic relations of ``run``: scaling, truncation and target stop.

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

Stopping a run early changes nothing that came before the stop:

* *Truncation:* a run of k <= M iterations is the prefix of the run of M
  iterations: its trace is rows 0..k of the longer run's trace.
* *Target stop:* a run with ``target_fitness=t`` equals, bit for bit in every
  report field but wall time and config, the run of k iterations, where k is
  the first trace row >= 1 of the untargeted run whose best is <= t, or that
  run's M when no row reaches t.

The relations need no oracle, so they check the engine independently of
``tests/oracles.py`` (Chen et al., "Metamorphic Testing: A Review of
Challenges and Opportunities", ACM Computing Surveys 51(1), 2018).
"""

from dataclasses import fields, replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexopt import Objective, VoaConfig, benchmark_names, get_objective, get_spec, run


@st.composite
def problems(draw):
    name = draw(st.sampled_from(benchmark_names()))
    spec = get_spec(name)
    if spec.fixed_dimension is not None:
        dimension = spec.fixed_dimension
    else:
        dimension = draw(st.integers(spec.min_dimension, 6))
    config = VoaConfig(n_particles=draw(st.integers(2, 50)),
                       max_iterations=draw(st.integers(0, 60)))
    return get_objective(name, dimension), config, draw(st.integers(0, 2**64 - 1))


@st.composite
def cases(draw):
    return (*draw(problems()), draw(st.integers(-6, 7)))


def _columns(trace, rows=None):
    """Each trace column's bytes, over its first ``rows`` rows (all by default)."""
    return {f.name: getattr(trace, f.name)[:rows].tobytes() for f in fields(trace)}


def _outcome(report):
    """Every report field but wall time and config, floats and arrays as bytes."""
    values = {f.name: getattr(report, f.name) for f in fields(report)
              if f.name not in ("wall_time_ms", "config", "trace")}
    values["best_fitness"] = np.float64(report.best_fitness).tobytes()
    values["best_position"] = report.best_position.tobytes()
    return values, _columns(report.trace)


@settings(max_examples=40, deadline=None)
@given(cases())
def test_value_scaling_scales_the_fitness_exactly(case):
    objective, config, seed, k = case
    batch = get_spec(objective.name).batch
    scaled = Objective(name=objective.name, bounds=objective.bounds,
                       evaluate=lambda X: 2.0**k * batch(X))
    base, got = run(config, objective, seed), run(config, scaled, seed)
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
    objective, config, seed, k = case
    batch = get_spec(objective.name).batch
    scaled = Objective(name=objective.name,
                       bounds=[(2.0**k * lo, 2.0**k * hi) for lo, hi in objective.bounds],
                       evaluate=lambda X: batch(X / 2.0**k))
    base, got = run(config, objective, seed), run(config, scaled, seed)
    assert got.best_fitness == base.best_fitness
    np.testing.assert_array_equal(got.best_position, 2.0**k * base.best_position)
    np.testing.assert_array_equal(got.trace.best_fitness_so_far, base.trace.best_fitness_so_far)
    np.testing.assert_array_equal(got.trace.mean_fitness, base.trace.mean_fitness)
    assert got.evaluations == base.evaluations
    np.testing.assert_array_equal(got.trace.vortex_count, base.trace.vortex_count)
    np.testing.assert_array_equal(got.trace.eliminations_triggered,
                                  base.trace.eliminations_triggered)


@settings(max_examples=40, deadline=None)
@given(problems(), st.data())
def test_a_shorter_run_is_a_prefix_of_a_longer_one(problem, data):
    objective, config, seed = problem
    full = run(config, objective, seed)
    k = data.draw(st.integers(0, config.max_iterations), label="k")
    short = run(replace(config, max_iterations=k), objective, seed)
    assert short.iterations == k
    assert _columns(short.trace) == _columns(full.trace, k + 1)


@settings(max_examples=40, deadline=None)
@given(problems(), st.data())
def test_a_target_stop_is_the_truncation_at_the_first_row_that_reaches_it(problem, data):
    objective, config, seed = problem
    full = run(config, objective, seed)
    best = full.trace.best_fitness_so_far
    target = data.draw(st.sampled_from(best.tolist()) | st.sampled_from([1e-3, 1e-8, -1.0])
                       | st.floats(allow_nan=False), label="target")
    reached = np.flatnonzero(best[1:] <= target)
    k = int(reached[0]) + 1 if reached.size else config.max_iterations
    stopped = run(replace(config, target_fitness=target), objective, seed)
    truncated = run(replace(config, max_iterations=k), objective, seed)
    assert _outcome(stopped) == _outcome(truncated)
    assert _columns(truncated.trace) == _columns(full.trace, k + 1)
