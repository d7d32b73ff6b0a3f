"""Property-based checks of the update rules plus full-run invariant sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import run_with_invariant_checks
from vortexopt import Objective, VoaConfig, get_objective
from vortexopt.core import RandomSource, SwarmState
from vortexopt.engine import (
    mark_vortices,
    move_toward_best,
    vorticity_decay,
    vorticity_kick,
    vorticity_pull,
)

finite = st.floats(allow_nan=False, allow_infinity=False)
unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
vort = st.floats(min_value=-7.0, max_value=7.0)


class TestRuleProperties:
    @given(v=vort, r=unit)
    def test_decay_is_a_contraction(self, v, r):
        assert abs(vorticity_decay(v, r)) <= abs(v)

    @given(v=vort, r=unit)
    def test_kick_respects_limits(self, v, r):
        assert -7.0 <= vorticity_kick(v, r, -7.0, 7.0) <= 7.0

    @given(v=vort, best_v=vort, r=unit)
    def test_pull_is_finite_and_clamped(self, v, best_v, r):
        got = vorticity_pull(v, best_v, r, 1e-9, -7.0, 7.0)
        assert np.isfinite(got)
        assert -7.0 <= got <= 7.0

    @given(
        x=st.floats(min_value=-4.5, max_value=4.5),
        y=st.floats(min_value=-4.5, max_value=4.5),
        v=vort,
        r=unit,
    )
    def test_particle_at_best_is_a_fixed_point(self, x, y, v, r):
        best = np.array([x, y])
        got = move_toward_best(best[None, :].copy(), np.array([v]), best,
                               np.array([[r]]), np.array([-4.5, -4.5]), np.array([4.5, 4.5]))
        np.testing.assert_array_equal(got, [best])

    @given(
        pos=st.lists(st.floats(min_value=-4.5, max_value=4.5), min_size=2, max_size=2),
        best=st.lists(st.floats(min_value=-4.5, max_value=4.5), min_size=2, max_size=2),
        v=vort,
        r=unit,
    )
    def test_moves_stay_inside_the_box(self, pos, best, v, r):
        lower = np.array([-4.5, -4.5])
        upper = np.array([4.5, 4.5])
        got = move_toward_best(np.array([pos]), np.array([v]), np.array(best),
                               np.array([[r]]), lower, upper)
        assert np.all(got >= lower) and np.all(got <= upper)

    @given(
        lower=st.floats(min_value=-1e6, max_value=1e6),
        width=st.floats(min_value=1e-6, max_value=1e6),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_uniform_box_stays_in_interval(self, lower, width, seed):
        upper = lower + width
        box = Objective(name="interval", bounds=((lower, upper),), evaluate=lambda p: 0.0)
        got = box.sample(RandomSource(seed), 1)
        assert got.shape == (1, 1)
        assert lower <= got[0, 0] <= upper

    @given(seed=st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=25)
    def test_equal_seeds_draw_equal_sequences(self, seed):
        np.testing.assert_array_equal(
            RandomSource(seed).uniform_unit_batch(50),
            RandomSource(seed).uniform_unit_batch(50),
        )

    @given(
        fitness=st.lists(st.floats(min_value=-1e9, max_value=1e9),
                         min_size=2, max_size=20),
        best=st.integers(min_value=0, max_value=19),
    )
    def test_marking_rule_holds_for_any_fitness(self, fitness, best):
        n = len(fitness)
        best = best % n
        state = SwarmState(
            positions=np.zeros((n, 1)),
            vorticity=np.full(n, 0.5),
            fitness=np.asarray(fitness, dtype=np.float64),
            is_vortex=np.zeros(n, dtype=bool),
            best_vorticity=0.5,
            best_index=best,
        )
        mean = state.fitness.mean()
        assert mark_vortices(state) == mean
        for i in range(n):
            expected = fitness[i] <= mean or i == best
            assert state.is_vortex[i] == expected


class TestFullRunInvariants:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sphere_run_respects_all_invariants(self, seed):
        config = VoaConfig(max_iterations=120)
        objective = get_objective("sphere", 5)
        eliminations = run_with_invariant_checks(config, objective, seed)
        # default settings respawn every iteration
        assert eliminations == config.max_iterations

    def test_mccormick_asymmetric_box_containment(self):
        config = VoaConfig(max_iterations=80)
        run_with_invariant_checks(config, get_objective("mccormick", 2), 6)

    def test_small_elimination_threshold_invariants(self):
        config = VoaConfig(max_iterations=120, elimination_threshold=5)
        run_with_invariant_checks(config, get_objective("sphere", 2), 9)
