from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import rowwise
from oracles import splitmix64_units
from vortexopt import Objective, VoaConfig, get_objective, run
from vortexopt.core import _BLOCK_DRAWS, RandomSource, as_real, as_seed


def peek_then_take(rng, i, n):
    """The next ``n`` draws. Every odd ``i`` first peeks past them, which may
    start a new block; the peek must show the draws taken and consume none."""
    if i % 2:
        ahead = rng.peek(n + 7).copy()
        draws = rng.uniform_unit_batch(n)
        np.testing.assert_array_equal(draws, ahead[:n])
        np.testing.assert_array_equal(rng.peek(7), ahead[n:])
        return draws
    return rng.uniform_unit_batch(n)


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
        draws = np.concatenate([peek_then_take(rng, i, n) for i, n in enumerate(sizes)])
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
        draws = np.concatenate([peek_then_take(rng, i, n) for i, n in enumerate(sizes)])
        np.testing.assert_array_equal(draws, reference[:sum(sizes)])
        starts = [first for first, _ in generated]
        assert starts == [1] + [last + 1 for _, last in generated[:-1]]

    def test_empirical_mean_is_uniform(self):
        draws = RandomSource(42).uniform_unit_batch(1_000_000)
        assert 0.495 <= draws.mean() <= 0.505

    @pytest.mark.parametrize("take", ["peek", "uniform_unit_batch"])
    def test_negative_batch_rejected_consuming_nothing(self, take):
        rng = RandomSource(42)
        with pytest.raises(ValueError, match="^batch size must be non-negative, got -1$"):
            getattr(rng, take)(-1)
        np.testing.assert_array_equal(rng.uniform_unit_batch(3),
                                      RandomSource(42).uniform_unit_batch(3))

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

    def test_run_and_random_source_share_the_check(self):
        objective = Objective(name="box", bounds=((0.0, 1.0),), evaluate=lambda X: X[..., 0])
        for bad in (1.5, True, -1, 2**64):
            with pytest.raises(ValueError) as from_run:
                run(VoaConfig(), objective, bad)
            with pytest.raises(ValueError) as from_rng:
                RandomSource(bad)
            assert str(from_run.value) == str(from_rng.value)

    @pytest.mark.parametrize("seed", [-3, 2**64, 1.5, "3", True])
    def test_run_rejects_a_bad_seed_before_any_evaluation(self, seed):
        calls = []
        objective = Objective(name="box", bounds=((0.0, 1.0),),
                              evaluate=lambda X: calls.append(X) or X[..., 0])
        with pytest.raises(ValueError, match="^seed must"):
            run(VoaConfig(max_iterations=1), objective, seed=seed)
        assert calls == []

    def test_a_seed_is_not_configuration(self):
        with pytest.raises(TypeError, match="seed"):
            VoaConfig(seed=1)

    @pytest.mark.parametrize("name,value", [("min_vorticity", -1.0), ("pull_epsilon", 1e-6)])
    def test_a_fixed_engine_constant_is_not_configuration(self, name, value):
        with pytest.raises(TypeError, match=name):
            VoaConfig(**{name: value})

    @pytest.mark.parametrize("value", [True, np.False_, "0.5", None, 1j])
    def test_as_real_rejects_bools_and_non_reals_by_name(self, value):
        with pytest.raises(ValueError, match="^max_vorticity must be a real number"):
            as_real("max_vorticity", value)

    def test_as_real_returns_a_float(self):
        for value in (2, np.int64(2), np.float32(2.0), 2.0):
            assert type(as_real("x", value)) is float and as_real("x", value) == 2.0


# Settable VoaConfig fields, each given or omitted; a threshold above the
# population size is invalid, so some drawn dicts do not build a config.
_GIVEN = st.fixed_dictionaries({}, optional={
    "n_particles": st.integers(2, 100),
    "max_iterations": st.integers(0, 10),
    "initial_vorticity": st.floats(-9.0, 9.0),
    "max_vorticity": st.floats(0.25, 9.0),
    "elimination_threshold": st.integers(0, 60),
    "target_fitness": st.floats(allow_nan=False),
})


class TestVoaConfig:
    def test_defaults(self):
        config = VoaConfig()
        assert config.n_particles == 50
        assert config.max_iterations == 5000
        assert config.initial_vorticity == 0.5
        assert config.max_vorticity == 7.0
        assert config.elimination_threshold is None and config.threshold == 50

    @pytest.mark.parametrize("n", [2, 30, 50, 80])
    def test_elimination_threshold_defaults_to_population_size(self, n):
        config = VoaConfig(n_particles=n)
        assert config.elimination_threshold is None and config.threshold == n
        config = VoaConfig(n_particles=n, elimination_threshold=1)
        assert config.elimination_threshold == config.threshold == 1

    def test_equality_compares_the_given_fields(self):
        assert VoaConfig(elimination_threshold=50) != VoaConfig()
        assert VoaConfig(elimination_threshold=50).resolved() == VoaConfig().resolved()

    def test_resolved_is_asdict_with_the_derived_values(self):
        config = VoaConfig(n_particles=30, max_vorticity=3.0)
        resolved = config.resolved()
        assert list(resolved) == list(asdict(config))
        assert resolved == {**asdict(config), "elimination_threshold": 30}
        given = VoaConfig(n_particles=30, elimination_threshold=4)
        assert given.resolved() == asdict(given)

    def test_replace_derives_a_smaller_threshold_again(self):
        config = replace(VoaConfig(), n_particles=30)
        assert config == VoaConfig(n_particles=30)
        assert config.elimination_threshold is None and config.threshold == 30

    def test_replace_derives_a_larger_threshold_again(self):
        config = replace(VoaConfig(), n_particles=80)
        assert config.elimination_threshold is None and config.threshold == 80

    def test_replace_keeps_given_values(self):
        config = VoaConfig(elimination_threshold=10)
        assert replace(config, n_particles=80, max_vorticity=3.0) == VoaConfig(
            n_particles=80, max_vorticity=3.0, elimination_threshold=10)
        changed = replace(VoaConfig(), elimination_threshold=20)
        assert replace(changed, n_particles=30, max_vorticity=3.0) == VoaConfig(
            n_particles=30, max_vorticity=3.0, elimination_threshold=20)
        assert replace(replace(VoaConfig(), n_particles=30), n_particles=40) == VoaConfig(
            n_particles=40)

    @settings(max_examples=100)
    @given(a=_GIVEN, b=_GIVEN)
    @example(a={}, b={"n_particles": 100, "elimination_threshold": 50})
    @example(a={}, b={"n_particles": 30})
    @example(a={}, b={"n_particles": 80})
    @example(a={"elimination_threshold": 30}, b={"n_particles": 20})
    def test_replace_is_construction_from_the_merged_values(self, a, b):
        try:
            source = VoaConfig(**a)
        except ValueError:
            assume(False)
        merged = {**a, **b}
        try:
            expected = VoaConfig(**merged)
        except ValueError:
            with pytest.raises(ValueError):
                replace(source, **b)
            return
        replaced = replace(source, **b)
        assert replaced == expected
        assert replaced.resolved() == expected.resolved()
        assert replaced.threshold == merged.get("elimination_threshold",
                                                merged.get("n_particles", 50))

    @pytest.mark.parametrize("kwargs", [
        {"n_particles": 1},
        {"max_iterations": -1},
        {"elimination_threshold": -1},
        {"n_particles": 10, "elimination_threshold": 11},
        {"max_vorticity": -0.0},
        {"max_vorticity": -2.0},
        {"max_vorticity": -1e-300},
        {"target_fitness": float("nan")},
        {"elimination_threshold": 51},
        {"max_vorticity": 0.0},
        {"initial_vorticity": float("nan")},
        {"initial_vorticity": float("inf")},
        {"max_vorticity": float("inf")},
        {"max_vorticity": float("-inf")},
        {"max_vorticity": float("nan")},
        {"initial_vorticity": float("-inf")},
        {"max_iterations": "10"},
        {"max_iterations": None},
        {"max_iterations": 2.5},
        {"n_particles": 50.0},
        {"elimination_threshold": False},
        {"n_particles": np.True_},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            VoaConfig(**kwargs)

    @pytest.mark.parametrize("field,value", [
        ("n_particles", 50.0),
        ("max_iterations", 2.5), ("elimination_threshold", 2.5),
    ])
    def test_non_integer_field_named_in_error(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            VoaConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("initial_vorticity", "0.5"), ("max_vorticity", True), ("max_vorticity", None),
        ("initial_vorticity", None), ("target_fitness", "1e-8"), ("target_fitness", False),
    ])
    def test_non_real_field_named_in_error(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a real number"):
            VoaConfig(**{field: value})

    @pytest.mark.parametrize("value", [-2.0, 0.0, -0.0, -1e-300])
    def test_max_vorticity_must_be_positive(self, value):
        with pytest.raises(ValueError, match=f"^max_vorticity must be > 0, got {value}$"):
            VoaConfig(max_vorticity=value)

    def test_nan_target_fitness_rejected(self):
        with pytest.raises(ValueError, match="^target_fitness must not be NaN"):
            VoaConfig(target_fitness=float("nan"))

    def test_real_fields_stored_as_float(self):
        config = VoaConfig(initial_vorticity=np.float32(0.5), max_vorticity=np.int64(3),
                           target_fitness=0)
        assert (config.initial_vorticity, config.max_vorticity,
                config.target_fitness) == (0.5, 3.0, 0.0)
        for name in ("initial_vorticity", "max_vorticity", "target_fitness"):
            assert type(getattr(config, name)) is float, name
        assert VoaConfig(target_fitness=float("-inf")).target_fitness == float("-inf")

    def test_per_coordinate_draws_is_a_fixed_field(self):
        assert VoaConfig().per_coordinate_draws is True
        assert asdict(VoaConfig())["per_coordinate_draws"] is True
        with pytest.raises(TypeError, match="per_coordinate_draws"):
            VoaConfig(per_coordinate_draws=True)

    def test_numpy_integers_accepted_as_int(self):
        config = VoaConfig(n_particles=np.int32(20), elimination_threshold=np.uint8(5),
                           max_iterations=np.int64(0))
        assert (config.n_particles, config.elimination_threshold) == (20, 5)
        assert type(config.n_particles) is int and type(config.max_iterations) is int
        report = run(config, get_objective("booth", 2), np.int64(3))
        assert report.seed == 3 and type(report.seed) is int

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

    # The last pair has finite limits, but upper - lower overflows to inf, so
    # sample() would place every point at an infinite coordinate.
    @pytest.mark.parametrize("pair", [
        (-np.inf, np.inf), (0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0), (0.0, np.nan),
        (-1e308, 1e308),
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

    @pytest.mark.parametrize("bounds", [5, [5], np.float64(1.0), [(1, 2, 3)], [(1,)], "ab"])
    def test_bounds_that_are_not_pairs_rejected_naming_bounds(self, bounds):
        with pytest.raises(ValueError, match="^bounds must hold one or more "
                           r"\(lower, upper\) pairs, got "):
            Objective(name="x", bounds=bounds, evaluate=lambda X: X[..., 0])

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

    @pytest.mark.parametrize("n,d,threshold", [(3, 3, 0), (2, 2, None), (2, 3, None)])
    def test_a_vector_function_fails_at_the_first_evaluation(self, n, d, threshold):
        # With as many particles as coordinates, X[i] of an (n, d) stack is a
        # row, so a function of one vector returns per-column values of the
        # right shape; with fewer, X[i] raises IndexError. Either way the run
        # must fail at the first evaluation, naming the objective.
        obj = Objective(name="vector", bounds=((-1.0, 1.0),) * d,
                        evaluate=lambda X: sum(X[i] ** 2 for i in range(d)))
        config = VoaConfig(n_particles=n, elimination_threshold=threshold, max_iterations=3)
        with pytest.raises(ValueError, match=r"^objective 'vector': evaluate raised IndexError"):
            run(config, obj)
        with pytest.raises(ValueError, match=r"^objective 'vector'"):
            obj.evaluate_rows(np.zeros((d, d)))
