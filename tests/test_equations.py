"""Unit tests for the four scalar update rules, including clamp and guard paths."""

import numpy as np
import pytest

from vortexopt.engine import move_toward_best, vorticity_decay, vorticity_kick, vorticity_pull

V_MIN, V_MAX = -7.0, 7.0


class TestVorticityKick:
    def test_zero_draw_is_identity(self):
        assert vorticity_kick(0.5, 0.0, V_MIN, V_MAX) == pytest.approx(0.5, abs=1e-12)

    def test_plain_arithmetic(self):
        assert vorticity_kick(0.5, 0.2, V_MIN, V_MAX) == pytest.approx(0.6, abs=1e-12)

    def test_clamps_at_upper_limit(self):
        # raw value would be 6.0 + 0.9*6.0 = 11.4
        assert vorticity_kick(6.0, 0.9, V_MIN, V_MAX) == pytest.approx(7.0, abs=1e-12)

    def test_clamps_at_lower_limit(self):
        assert vorticity_kick(-6.0, 0.9, V_MIN, V_MAX) == pytest.approx(-7.0, abs=1e-12)


class TestVorticityPull:
    def test_zero_draw_is_identity(self):
        got = vorticity_pull(0.5, 0.6, 0.0, 1e-9, V_MIN, V_MAX)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_plain_arithmetic(self):
        got = vorticity_pull(0.5, 0.6, 0.5, 1e-9, V_MIN, V_MAX)
        assert got == pytest.approx(1.1, abs=1e-12)

    def test_zero_vorticity_is_guarded_and_clamped(self):
        # raw value would be 0 + 1.0 * (7.0 / 1e-9) = 7e9
        got = vorticity_pull(0.0, 7.0, 1.0, 1e-9, V_MIN, V_MAX)
        assert got == pytest.approx(7.0, abs=1e-12)
        assert np.isfinite(got)

    def test_zero_counts_as_positive_sign(self):
        up = vorticity_pull(0.0, 7.0, 0.5, 1e-9, V_MIN, V_MAX)
        assert up > 0.0

    def test_tiny_negative_vorticity_keeps_its_sign(self):
        got = vorticity_pull(-1e-12, 7.0, 1.0, 1e-9, V_MIN, V_MAX)
        assert got == pytest.approx(-7.0, abs=1e-12)

    def test_elementwise_over_arrays(self):
        v = np.array([0.5, 0.0, 6.5])
        r = np.array([0.5, 1.0, 1.0])
        got = vorticity_pull(v, 7.0, r, 1e-9, V_MIN, V_MAX)
        # raw values 7.5, 7e9 and 7.577 all clamp to the upper limit
        assert got[0] == pytest.approx(7.0, abs=1e-12)
        assert got[1] == pytest.approx(7.0, abs=1e-12)
        assert got[2] == pytest.approx(7.0, abs=1e-12)


class TestVorticityDecay:
    def test_zero_draw_annihilates(self):
        assert vorticity_decay(2.0, 0.0) == 0.0

    def test_plain_arithmetic(self):
        assert vorticity_decay(2.0, 0.25) == pytest.approx(0.5, abs=1e-12)

    def test_sign_preserved(self):
        assert vorticity_decay(-3.0, 0.5) == pytest.approx(-1.5, abs=1e-12)


class TestMoveTowardBest:
    """Positions are (k, d) stacks; draws are (k, 1), shared by a particle's
    coordinates, or (k, d), one per coordinate."""

    BOUNDS = (np.array([-4.5, -4.5]), np.array([4.5, 4.5]))

    def test_plain_arithmetic(self):
        got = move_toward_best(np.array([[1.0, 1.0]]), np.array([0.5]), np.array([3.0, 3.0]),
                               np.array([[1.0]]), *self.BOUNDS)
        np.testing.assert_allclose(got, [[2.0, 2.0]], atol=1e-12)

    def test_particle_at_best_never_moves(self):
        best = np.array([2.5, -1.5])
        for r in (0.0, 0.3, 0.999):
            got = move_toward_best(best[None, :].copy(), np.array([5.0]), best,
                                   np.array([[r]]), *self.BOUNDS)
            np.testing.assert_array_equal(got, [best])

    def test_overshoot_clamps_to_bounds(self):
        # raw coordinates would be 4 + 7*(-8) = -52
        got = move_toward_best(np.array([[4.0, 4.0]]), np.array([7.0]), np.array([-4.0, -4.0]),
                               np.array([[1.0]]), *self.BOUNDS)
        np.testing.assert_allclose(got, [[-4.5, -4.5]], atol=1e-12)

    def test_stacked_positions_with_per_particle_draws(self):
        pos = np.array([[1.0, 1.0], [0.0, 0.0]])
        got = move_toward_best(pos, np.array([0.5, 1.0]), np.array([3.0, 3.0]),
                               np.array([[1.0], [0.5]]), *self.BOUNDS)
        np.testing.assert_allclose(got, [[2.0, 2.0], [1.5, 1.5]], atol=1e-12)

    def test_per_coordinate_draws_move_coordinates_independently(self):
        pos = np.array([[1.0, 1.0]])
        r = np.array([[1.0, 0.0]])
        got = move_toward_best(pos, np.array([0.5]), np.array([3.0, 3.0]),
                               r, *self.BOUNDS)
        np.testing.assert_allclose(got, [[2.0, 1.0]], atol=1e-12)

    def test_shared_draw_equals_the_same_draw_per_coordinate(self):
        pos = np.array([[1.0, -2.0], [0.5, 4.0]])
        v = np.array([0.5, -1.5])
        best = np.array([3.0, 3.0])
        shared = move_toward_best(pos, v, best, np.array([[0.25], [0.75]]), *self.BOUNDS)
        repeated = move_toward_best(pos, v, best, np.array([[0.25, 0.25], [0.75, 0.75]]),
                                    *self.BOUNDS)
        assert shared.tobytes() == repeated.tobytes()


SPECIAL = (np.nan, np.inf, -np.inf, -0.0, 0.0)
ZERO_LIMITS = [(-7.0, 7.0), (0.0, 7.0), (-0.0, 7.0), (-7.0, 0.0), (-7.0, -0.0)]


class TestClampMatchesClip:
    """The stages clamp with np.maximum/np.minimum; the bits must be what
    ndarray.clip gives, on NaN, infinities, signed zeros and the limits."""

    @pytest.mark.parametrize("v_min,v_max", ZERO_LIMITS)
    def test_pull_clamps_like_clip(self, v_min, v_max):
        # With r = 0 and best_v = -1 the pre-clamp value is v + (-0.0) or
        # v + 0.0, which is v itself for every value below.
        v = np.array([*SPECIAL, v_min, v_max, 3.0, 9.0, -9.0] * 5)
        got = vorticity_pull(v, -1.0, 0.0, 1e-9, v_min, v_max)
        assert got.tobytes() == v.clip(v_min, v_max).tobytes()
        for x in v[:10]:
            got = vorticity_pull(float(x), -1.0, 0.0, 1e-9, v_min, v_max)
            assert np.float64(got).tobytes() == np.float64(x).clip(v_min, v_max).tobytes()

    @pytest.mark.parametrize("best", [-1.0, np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("per_coordinate", [False, True])
    def test_move_clamps_like_clip(self, best, per_coordinate):
        lower = np.array([0.0, -0.0, -2.0, -2.0, -2.0])
        upper = np.array([2.0, 2.0, 0.0, -0.0, 2.0])
        values = np.array([*SPECIAL, 2.0, -2.0, 1.0, 3.0, -3.0])
        pos = np.resize(values, (60, 5))
        v = np.resize([1.0, 0.5], 60)
        # r = 0 leaves each finite position as it is before the clamp (the
        # step is a signed zero); r = 1 carries an infinite or NaN best into it.
        r = np.resize([0.0, 1.0, 0.0], (60, 5 if per_coordinate else 1))
        best = np.full(5, best)
        with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf are NaN
            expected = ((best - pos) * (r * v[:, None]) + pos).clip(lower, upper)
            got = move_toward_best(pos, v, best, r, lower, upper)
        assert got.tobytes() == expected.tobytes()
