from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import rowwise
from oracles import splitmix64_units
from vortexopt import Objective, VoaConfig
from vortexopt.core import _BLOCK_DRAWS, RandomSource, as_real, as_seed


class TestRandomSource:
    def test_draws_lie_in_unit_interval(self):
        rng = RandomSource(42)
        draws = rng.uniform_unit_batch(10_000)
        assert np.all(draws >= 0.0)
        assert np.all(draws < 1.0)

    def test_same_seed_same_sequence(self):
        a = RandomSource(42)
        b = RandomSource(42)
        np.testing.assert_array_equal(a.uniform_unit_batch(1000), b.uniform_unit_batch(1000))

    def test_different_seeds_differ(self):
        a = RandomSource(1)
        b = RandomSource(2)
        assert not np.array_equal(a.uniform_unit_batch(100), b.uniform_unit_batch(100))

    def test_batching_matches_single_draws(self):
        batched = RandomSource(7).uniform_unit_batch(32)
        single = RandomSource(7)
        np.testing.assert_array_equal(
            batched, np.concatenate([single.uniform_unit_batch(1) for _ in range(32)]))

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**63 + 5])
    def test_matches_pure_python_reference(self, seed):
        rng = RandomSource(seed)
        np.testing.assert_array_equal(rng.uniform_unit_batch(64), splitmix64_units(seed, 64))

    @pytest.mark.parametrize("sizes", [
        (0, 1, _BLOCK_DRAWS - 1, _BLOCK_DRAWS, _BLOCK_DRAWS + 904, 3),
        (_BLOCK_DRAWS - 1, 2, 0, _BLOCK_DRAWS),
        (1, 2 * _BLOCK_DRAWS + 1, 1),
        (_BLOCK_DRAWS, _BLOCK_DRAWS, 1),
    ])
    def test_mixed_batches_across_blocks_match_reference(self, sizes):
        rng = RandomSource(2**63 + 5)
        draws = np.concatenate([rng.uniform_unit_batch(n) for n in sizes])
        np.testing.assert_array_equal(draws, splitmix64_units(2**63 + 5, sum(sizes)))

    def test_returned_draws_unchanged_by_later_draws(self):
        rng = RandomSource(9)
        first = rng.uniform_unit_batch(10)
        kept = first.copy()
        for n in (_BLOCK_DRAWS - 10, 1, 2 * _BLOCK_DRAWS, 5):
            rng.uniform_unit_batch(n)
        np.testing.assert_array_equal(first, kept)

    def test_refills_hash_each_draw_once(self, monkeypatch):
        # Each generated run of draws is located in the reference stream by
        # value; the runs must tile the stream from draw 1 with no overlap.
        seed = 2**63 + 5
        sizes = (5, _BLOCK_DRAWS - 3, 10, 2 * _BLOCK_DRAWS + 7, 1, _BLOCK_DRAWS, 300, 2)
        reference = splitmix64_units(seed, sum(sizes) + 2 * _BLOCK_DRAWS)
        index_of = {value: i for i, value in enumerate(reference, start=1)}
        generated = []
        real = RandomSource._generate

        def spy(self, *args):
            out = real(self, *args)
            first = index_of[out[0]]
            np.testing.assert_array_equal(out, reference[first - 1:first - 1 + len(out)])
            generated.append((first, first + len(out) - 1))
            return out

        monkeypatch.setattr(RandomSource, "_generate", spy)
        rng = RandomSource(seed)
        draws = np.concatenate([rng.uniform_unit_batch(n) for n in sizes])
        np.testing.assert_array_equal(draws, reference[:sum(sizes)])
        starts = [first for first, _ in generated]
        assert starts == [1] + [last + 1 for _, last in generated[:-1]]

    def test_empirical_mean_is_uniform(self):
        draws = RandomSource(42).uniform_unit_batch(1_000_000)
        assert 0.495 <= draws.mean() <= 0.505

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(-1)

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, np.True_, "3", None])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="^seed must be an integer"):
            RandomSource(seed)

    @pytest.mark.parametrize("seed", [2**64, 5 + 2**64])
    def test_seed_beyond_64_bits_rejected(self, seed):
        with pytest.raises(ValueError):
            RandomSource(seed)

    def test_uniform_box_stays_inside(self):
        box = Objective(name="box", bounds=((-1.5, 4.0), (-3.0, 4.0)), evaluate=lambda p: 0.0)
        points = box.sample(RandomSource(3), 500)
        assert points.shape == (500, 2)
        assert np.all(points >= box.lower) and np.all(points < box.upper)


class TestUniformIn:
    """Uniform draws in a box: ``Objective.sample``."""

    @staticmethod
    def interval(rng, lower, upper, count=1):
        box = Objective(name="interval", bounds=((lower, upper),), evaluate=lambda p: 0.0)
        return box.sample(rng, count)[:, 0]

    def test_unit_interval_passthrough(self):
        np.testing.assert_array_equal(self.interval(RandomSource(42), 0.0, 1.0, 5),
                                      splitmix64_units(42, 5))

    def test_symmetric_interval(self):
        draws = self.interval(RandomSource(11), -10.0, 10.0, 100)
        assert np.all(draws >= -10.0) and np.all(draws < 10.0)

    def test_draws_are_the_affine_map_of_the_reference_stream(self):
        expected = [-4.5 + u * 9.0 for u in splitmix64_units(2**63 + 5, 16)]
        np.testing.assert_array_equal(self.interval(RandomSource(2**63 + 5), -4.5, 4.5, 16),
                                      expected)

    @given(
        bounds=st.lists(st.builds(lambda lo, width: (lo, lo + width),
                                  st.floats(-1e6, 1e6), st.floats(1e-3, 1e6)),
                        min_size=1, max_size=6),
        counts=st.tuples(st.integers(0, 5), st.integers(0, 5)),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=50)
    def test_sample_takes_the_stream_point_major(self, bounds, counts, seed):
        box = Objective(name="box", bounds=bounds, evaluate=lambda p: 0.0)
        d = len(bounds)
        units = splitmix64_units(seed, sum(counts) * d)
        rng = RandomSource(seed)
        start = 0
        for count in counts:  # the second call continues the stream
            expected = np.array([lo + units[start + i * d + j] * (hi - lo)
                                 for i in range(count) for j, (lo, hi) in enumerate(bounds)])
            np.testing.assert_array_equal(box.sample(rng, count), expected.reshape(count, d))
            start += count * d


class TestIntegerChecks:
    def test_seed_range_named_in_error(self):
        with pytest.raises(ValueError, match=r"^base_seed must lie in \[0, 2\*\*64 - 1\]"):
            as_seed("base_seed", 2**64)
        assert as_seed("seed", np.uint64(2**64 - 1)) == 2**64 - 1

    def test_config_and_random_source_share_the_check(self):
        for bad in (1.5, True, -1, 2**64):
            with pytest.raises(ValueError) as from_config:
                VoaConfig(seed=bad)
            with pytest.raises(ValueError) as from_rng:
                RandomSource(bad)
            assert str(from_config.value) == str(from_rng.value)

    @pytest.mark.parametrize("value", [True, np.False_, "0.5", None, 1j])
    def test_as_real_rejects_bools_and_non_reals_by_name(self, value):
        with pytest.raises(ValueError, match="^pull_epsilon must be a real number"):
            as_real("pull_epsilon", value)

    def test_as_real_returns_a_float(self):
        for value in (2, np.int64(2), np.float32(2.0), 2.0):
            assert type(as_real("x", value)) is float and as_real("x", value) == 2.0


class TestVoaConfig:
    def test_defaults(self):
        config = VoaConfig()
        assert config.n_particles == 50
        assert config.max_iterations == 5000
        assert config.initial_vorticity == 0.5
        assert config.max_vorticity == 7.0
        assert config.min_vorticity == -7.0
        assert config.elimination_threshold == 50

    def test_min_vorticity_defaults_to_negated_max(self):
        assert VoaConfig(max_vorticity=3.0).min_vorticity == -3.0

    @pytest.mark.parametrize("n", [2, 30, 50, 80])
    def test_elimination_threshold_defaults_to_population_size(self, n):
        assert VoaConfig(n_particles=n).elimination_threshold == n
        assert VoaConfig(n_particles=n, elimination_threshold=1).elimination_threshold == 1

    def test_min_vorticity_overridable(self):
        assert VoaConfig(max_vorticity=3.0, min_vorticity=-1.0).min_vorticity == -1.0

    @pytest.mark.parametrize("kwargs", [
        {"n_particles": 1},
        {"max_iterations": -1},
        {"elimination_threshold": -1},
        {"n_particles": 10, "elimination_threshold": 11},
        {"min_vorticity": 1.0},
        {"max_vorticity": -2.0},
        {"pull_epsilon": 0.0},
        {"pull_epsilon": -1e-9},
        {"seed": -3},
        {"seed": 2**64},
        {"initial_vorticity": float("nan")},
        {"initial_vorticity": float("inf")},
        {"max_vorticity": float("inf")},
        {"min_vorticity": float("-inf")},
        {"pull_epsilon": float("inf")},
        {"seed": 1.5},
        {"seed": "3"},
        {"seed": True},
        {"max_iterations": 2.5},
        {"n_particles": 50.0},
        {"elimination_threshold": False},
        {"n_particles": np.True_},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            VoaConfig(**kwargs)

    @pytest.mark.parametrize("field,value", [
        ("seed", 1.5), ("seed", "3"), ("seed", True), ("n_particles", 50.0),
        ("max_iterations", 2.5), ("elimination_threshold", 2.5),
    ])
    def test_non_integer_field_named_in_error(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            VoaConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("initial_vorticity", "0.5"), ("max_vorticity", True), ("min_vorticity", "-1"),
        ("pull_epsilon", None), ("target_fitness", "1e-8"), ("target_fitness", False),
    ])
    def test_non_real_field_named_in_error(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a real number"):
            VoaConfig(**{field: value})

    def test_nan_target_fitness_rejected(self):
        with pytest.raises(ValueError, match="^target_fitness must not be NaN"):
            VoaConfig(target_fitness=float("nan"))

    def test_real_fields_stored_as_float(self):
        config = VoaConfig(initial_vorticity=1, max_vorticity=np.int64(3),
                           pull_epsilon=np.float32(0.5), target_fitness=0)
        assert (config.initial_vorticity, config.max_vorticity, config.min_vorticity,
                config.pull_epsilon, config.target_fitness) == (1.0, 3.0, -3.0, 0.5, 0.0)
        for name in ("initial_vorticity", "max_vorticity", "min_vorticity", "pull_epsilon",
                     "target_fitness"):
            assert type(getattr(config, name)) is float, name
        assert VoaConfig(target_fitness=float("-inf")).target_fitness == float("-inf")

    def test_per_coordinate_draws_is_a_fixed_field(self):
        assert VoaConfig().per_coordinate_draws is True
        assert asdict(VoaConfig())["per_coordinate_draws"] is True
        with pytest.raises(TypeError, match="per_coordinate_draws"):
            VoaConfig(per_coordinate_draws=True)

    def test_numpy_integers_accepted_as_int(self):
        config = VoaConfig(seed=np.int64(3), n_particles=np.int32(20),
                           elimination_threshold=np.uint8(5))
        assert (config.seed, config.n_particles, config.elimination_threshold) == (3, 20, 5)
        assert type(config.seed) is int and type(config.n_particles) is int

    def test_initial_vorticity_outside_clamp_accepted(self):
        assert VoaConfig(initial_vorticity=100.0).initial_vorticity == 100.0

    def test_zero_iterations_allowed(self):
        assert VoaConfig(max_iterations=0).max_iterations == 0


class TestObjective:
    def _quadratic(self):
        return Objective(
            name="quadratic",
            bounds=((-1.0, 1.0), (-2.0, 2.0)),
            evaluate=lambda X: X[..., 0] ** 2 + X[..., 1] ** 2,
        )

    def test_bounds_must_be_ordered(self):
        with pytest.raises(ValueError):
            Objective(name="bad", bounds=((2.0, 1.0),), evaluate=lambda p: 0.0)

    @pytest.mark.parametrize("pair", [
        (-np.inf, np.inf), (0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0), (0.0, np.nan),
    ])
    def test_non_finite_bounds_rejected_by_index(self, pair):
        with pytest.raises(ValueError, match=r"^bounds\[1\] must be finite"):
            Objective(name="q", bounds=((-1.0, 1.0), pair),
                      evaluate=lambda p: float(p @ p))

    @pytest.mark.parametrize("pair", [(False, True), ("a", 1.0), (0.0, None)])
    def test_non_real_bounds_rejected_by_index(self, pair):
        with pytest.raises(ValueError, match=r"^bounds\[0\] must be a real number"):
            Objective(name="q", bounds=(pair,), evaluate=lambda p: 0.0)

    def test_integer_bounds_stored_as_float(self):
        obj = Objective(name="q", bounds=((np.int64(-1), 2),), evaluate=lambda p: 0.0)
        assert obj.bounds == ((-1.0, 2.0),)
        assert all(type(b) is float for b in obj.bounds[0])

    def test_dimension_is_the_number_of_bound_pairs(self):
        obj = Objective(name="q", bounds=((-1.0, 1.0),) * 3, evaluate=lambda p: 0.0)
        assert type(obj.dimension) is int and obj.dimension == 3 == len(obj.bounds)
        with pytest.raises(TypeError):
            Objective(name="q", dimension=2, bounds=((-1.0, 1.0),) * 2, evaluate=lambda p: 0.0)
        with pytest.raises(ValueError, match="^bounds must hold"):
            Objective(name="q", bounds=(), evaluate=lambda p: 0.0)

    @pytest.mark.parametrize("dimension", [2.0, True, "2"])
    def test_non_integer_dimension_rejected(self, dimension):
        # dimension is not a constructor argument: it is the number of bound pairs.
        with pytest.raises(TypeError, match="dimension"):
            Objective(name="bad", dimension=dimension, bounds=((-1.0, 1.0),) * 2,
                      evaluate=lambda p: 0.0)

    @pytest.mark.parametrize("evaluate", [None, 1.0, "sphere"])
    def test_non_callable_evaluate_rejected_naming_the_objective(self, evaluate):
        with pytest.raises(ValueError, match=r"^objective 'q': evaluate must be callable"):
            Objective(name="q", bounds=((-1.0, 1.0),), evaluate=evaluate)

    def test_evaluation_is_bit_stable(self):
        obj = self._quadratic()
        point = np.array([0.3333333333333333, -1.7777777777777])
        assert obj.evaluate(point) == obj.evaluate(point)

    def test_evaluate_rows_falls_back_to_row_loop(self):
        # A function of one vector runs through the test-side row-loop lift.
        obj = Objective(name="quadratic", bounds=((-1.0, 1.0), (-2.0, 2.0)),
                        evaluate=rowwise(lambda p: float(p[0] ** 2 + p[1] ** 2)))
        rows = np.array([[0.5, 0.5], [1.0, -2.0]])
        np.testing.assert_array_equal(obj.evaluate_rows(rows), [0.5, 5.0])

    def test_bounds_arrays_fixed_and_read_only(self):
        obj = self._quadratic()
        lower, upper = obj.lower, obj.upper
        for _ in range(3):
            np.testing.assert_array_equal(obj.lower, [-1.0, -2.0])
            np.testing.assert_array_equal(obj.upper, [1.0, 2.0])
        assert obj.lower is lower and obj.upper is upper
        with pytest.raises(ValueError):
            obj.lower[0] = 0.0
        with pytest.raises(ValueError):
            obj.upper[1] = 0.0

    @pytest.mark.parametrize("evaluate", [
        lambda X: float(X.sum()),
        lambda X: X.sum(axis=1, keepdims=True),
        lambda X: np.zeros(X.shape[0] + 1),
        lambda X: X,
    ], ids=["scalar", "column", "extra_row", "matrix"])
    def test_evaluate_shape_checked(self, evaluate):
        obj = Objective(name="misshapen", bounds=((-1.0, 1.0),) * 2, evaluate=evaluate)
        with pytest.raises(ValueError, match=r"'misshapen'.*\(3,\)"):
            obj.evaluate_rows(np.zeros((3, 2)))
