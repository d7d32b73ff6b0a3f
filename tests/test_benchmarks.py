import math

import numpy as np
import pytest

import oracles
from helpers import rowwise
from vortexopt import benchmark_names, get_objective, get_spec, make_plan
from vortexopt.benchmarks import (
    beale,
    booth,
    goldstein_price,
    mccormick,
    rosenbrock,
    sphere,
    three_hump_camel,
)

ALL_CELLS = make_plan().cells()


class TestHandValues:
    @pytest.mark.parametrize("point,expected", [
        ((1.0, 3.0), 0.0),
        ((0.0, 0.0), 74.0),
        ((7.0, 0.0), 81.0),
    ])
    def test_booth(self, point, expected):
        assert booth(*point) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("point,expected", [
        ((3.0, 0.5), 0.0),
        ((0.0, 0.0), 14.203125),
    ])
    def test_beale(self, point, expected):
        assert beale(*point) == pytest.approx(expected, abs=1e-12)

    def test_beale_minimum_is_strict_nearby(self):
        for h in (1e-3, -1e-3):
            assert beale(3.0, 0.5 + h) > 0.0
            assert beale(3.0 + h, 0.5) > 0.0

    @pytest.mark.parametrize("point,expected", [
        ((0.0, -1.0), 3.0),
        ((0.0, 0.0), 600.0),
        ((1.8, 0.2), 84.0),
    ])
    def test_goldstein_price(self, point, expected):
        assert goldstein_price(*point) == pytest.approx(expected, abs=1e-9)

    def test_mccormick(self):
        assert mccormick(0.0, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert mccormick(1.0, 1.0) == pytest.approx(math.sin(2.0) + 2.0, abs=1e-12)
        assert mccormick(-0.54719, -1.54719) == pytest.approx(-1.9133, abs=1e-4)

    def test_three_hump_camel(self):
        assert three_hump_camel(0.0, 0.0) == 0.0
        assert three_hump_camel(1.0, 0.0) == pytest.approx(2.0 - 1.05 + 1.0 / 6.0, abs=1e-12)
        for y in (-3.0, -0.5, 0.25, 4.0):
            assert three_hump_camel(0.0, y) == pytest.approx(y * y, abs=1e-12)

    def test_sphere(self):
        assert sphere(np.zeros(7)) == 0.0
        assert sphere(np.array([3.0, 4.0])) == 25.0
        assert sphere(np.ones(30)) == 30.0

    def test_rosenbrock(self):
        for d in (2, 5, 30):
            assert rosenbrock(np.ones(d)) == 0.0
        assert rosenbrock(np.array([0.0, 0.0])) == 1.0
        assert rosenbrock(np.array([1.0, 2.0])) == 100.0

    def test_rosenbrock_rejects_one_coordinate(self):
        with pytest.raises(ValueError):
            rosenbrock(np.array([1.0]))


class TestOracleAgreement:
    @pytest.mark.parametrize("name,dimension", ALL_CELLS)
    def test_matches_straight_line_oracle(self, name, dimension):
        obj = get_objective(name, dimension)
        points = np.random.default_rng(2024).uniform(
            obj.lower, obj.upper, size=(1000, dimension))
        if name in oracles.PAIR_ORACLES:
            oracle = oracles.PAIR_ORACLES[name]
            expected = [oracle(float(p[0]), float(p[1])) for p in points]
        else:
            oracle = oracles.VECTOR_ORACLES[name]
            expected = [oracle([float(c) for c in p]) for p in points]
        got = obj.evaluate_rows(points)
        for g, e in zip(got, expected):
            assert abs(g - e) <= 1e-12 * max(1.0, abs(e))

    @pytest.mark.parametrize("name,dimension", ALL_CELLS)
    def test_batch_agrees_with_scalar_evaluate(self, name, dimension):
        # The batch function on one row at a time, lifted, equals its value in the stack.
        obj = get_objective(name, dimension)
        points = np.random.default_rng(7).uniform(
            obj.lower, obj.upper, size=(50, dimension))
        batch = obj.evaluate_rows(points)
        np.testing.assert_array_equal(batch, rowwise(obj.evaluate)(points))

    @pytest.mark.parametrize("name,dimension", ALL_CELLS)
    def test_batch_maps_leading_axes(self, name, dimension):
        obj = get_objective(name, dimension)
        stack = np.random.default_rng(11).uniform(
            obj.lower, obj.upper, size=(3, 4, dimension))
        got = obj.evaluate_rows(stack)
        assert got.shape == (3, 4)
        np.testing.assert_array_equal(got, rowwise(obj.evaluate)(stack))


class TestKnownMinima:
    """The registry's optima, at every grid dimension of each function."""

    @pytest.mark.parametrize("name", benchmark_names())
    def test_minimizer_reproduces_minimum(self, name):
        spec = get_spec(name)
        for _, d in make_plan(functions=[name]).cells():
            minimizer = spec.minimizer(d)
            assert minimizer.shape == (d,)
            value = get_objective(name, d).evaluate(minimizer)
            assert value == pytest.approx(spec.known_minimum_value, abs=1e-4)

    @pytest.mark.parametrize("name", benchmark_names())
    def test_minimizer_lies_inside_bounds(self, name):
        spec = get_spec(name)
        for _, d in make_plan(functions=[name]).cells():
            obj = get_objective(name, d)
            minimizer = spec.minimizer(d)
            assert np.all(minimizer >= obj.lower)
            assert np.all(minimizer <= obj.upper)

    @pytest.mark.parametrize("name", benchmark_names())
    def test_local_minimality_ring(self, name):
        obj = get_objective(name, 2)
        center = get_spec(name).minimizer(2)
        base = obj.evaluate(center)
        for k in range(8):
            angle = 2.0 * math.pi * k / 8.0
            probe = center + 1e-3 * np.array([math.cos(angle), math.sin(angle)])
            probe = np.clip(probe, obj.lower, obj.upper)
            assert base <= obj.evaluate(probe)


class TestSymmetries:
    def test_sphere_is_even(self):
        points = np.random.default_rng(5).uniform(-100, 100, size=(200, 6))
        np.testing.assert_array_equal(sphere(points), sphere(-points))

    def test_sphere_permutation_invariant(self):
        rng = np.random.default_rng(6)
        points = rng.uniform(-100, 100, size=(200, 6))
        shuffled = points[:, rng.permutation(6)]
        np.testing.assert_allclose(sphere(points), sphere(shuffled), rtol=1e-15)


class TestRegistry:
    @pytest.mark.parametrize("dimension", [2.0, True, "2"])
    def test_non_integer_dimension_rejected(self, dimension):
        with pytest.raises(ValueError, match="^dimension must be an integer"):
            get_objective("sphere", dimension)

    def test_names_in_reporting_order(self):
        assert benchmark_names() == [
            "booth", "beale", "goldstein_price", "mccormick",
            "three_hump_camel", "sphere", "rosenbrock",
        ]

    def test_sphere_any_dimension(self):
        obj = get_objective("sphere", 30)
        assert obj.dimension == 30
        assert np.all(obj.lower == -100.0) and np.all(obj.upper == 100.0)
        assert get_objective("sphere", 1).dimension == 1

    def test_rosenbrock_bounds(self):
        obj = get_objective("rosenbrock", 20)
        assert np.all(obj.lower == -80.0) and np.all(obj.upper == 80.0)

    def test_mccormick_asymmetric_bounds(self):
        obj = get_objective("mccormick", 2)
        assert obj.bounds == ((-1.5, 4.0), (-3.0, 4.0))

    def test_fixed_dimension_rejects_others(self):
        with pytest.raises(ValueError, match="booth"):
            get_objective("booth", 5)
        with pytest.raises(ValueError):
            get_objective("rosenbrock", 1)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            get_objective("unknown_fn", 2)
