"""Benchmark objectives with their search domains and known minima.

Seven classic single-objective test functions: five fixed two-dimensional
problems (Booth, Beale, Goldstein-Price, McCormick, three-hump camel) and two
scalable ones (sphere, Rosenbrock). Each registry entry carries its batch
function, the exact box bounds and the known optimum; an ``Objective`` built
from it holds only what the engine needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Objective, as_integer

__all__ = [
    "booth",
    "beale",
    "goldstein_price",
    "mccormick",
    "three_hump_camel",
    "sphere",
    "rosenbrock",
    "BenchmarkSpec",
    "REGISTRY",
    "benchmark_names",
    "get_spec",
    "get_objective",
]

# Powers are spelled as explicit products so scalar and array evaluation are
# bit-identical (numpy's array `**` and scalar `pow` round differently).


def booth(x, y):
    """(x + 2y - 7)^2 + (2x + y - 5)^2, minimum 0 at (1, 3)."""
    t1 = x + 2.0 * y - 7.0
    t2 = 2.0 * x + y - 5.0
    return t1 * t1 + t2 * t2


def beale(x, y):
    """Three-term Beale function, minimum 0 at (3, 0.5)."""
    y2 = y * y
    t1 = 1.5 - x + x * y
    t2 = 2.25 - x + x * y2
    t3 = 2.625 - x + x * y2 * y
    return t1 * t1 + t2 * t2 + t3 * t3


def goldstein_price(x, y):
    """Goldstein-Price function, minimum 3 at (0, -1)."""
    s1 = x + y + 1.0
    s2 = 2.0 * x - 3.0 * y
    a = 1.0 + s1 * s1 * (
        19.0 - 14.0 * x + 3.0 * x * x - 14.0 * y + 6.0 * x * y + 3.0 * y * y
    )
    b = 30.0 + s2 * s2 * (
        18.0 - 32.0 * x + 12.0 * x * x + 48.0 * y - 36.0 * x * y + 27.0 * y * y
    )
    return a * b


def mccormick(x, y):
    """sin(x + y) + (x - y)^2 - 1.5x + 2.5y + 1, minimum near (-0.547, -1.547)."""
    d = x - y
    return np.sin(x + y) + d * d - 1.5 * x + 2.5 * y + 1.0


def three_hump_camel(x, y):
    """2x^2 - 1.05x^4 + x^6/6 + xy + y^2, minimum 0 at (0, 0)."""
    x2 = x * x
    x4 = x2 * x2
    x6 = x4 * x2
    return 2.0 * x2 - 1.05 * x4 + x6 / 6.0 + x * y + y * y


def sphere(x):
    """Sum of squared coordinates; accepts a vector or a stack of rows."""
    x = np.asarray(x, dtype=np.float64)
    # np.add.reduce is the reduction np.sum performs, without its Python wrapper.
    return np.add.reduce(x * x, axis=-1)


def rosenbrock(x):
    """Sum of 100(x_{i+1} - x_i^2)^2 + (x_i - 1)^2; vector or stack of rows."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] < 2:
        raise ValueError("rosenbrock needs at least 2 coordinates")
    head = x[..., :-1]
    valley = x[..., 1:] - head * head
    offset = head - 1.0
    return np.add.reduce(100.0 * valley * valley + offset * offset, axis=-1)


@dataclass(frozen=True)
class BenchmarkSpec:
    """Registry entry: batch function, domain, optimum and supported dimensions.

    ``batch`` maps a stack of rows (any leading axes) to one value per row.
    ``fixed_dimension`` pins the problem size; scalable entries leave it None
    and accept any dimension >= ``min_dimension``.
    """

    name: str
    batch: Callable
    bounds_per_dim: tuple
    known_minimum_value: float
    minimizer_fill: object
    fixed_dimension: Optional[int] = 2
    min_dimension: int = 2

    def supports(self, dimension: int) -> bool:
        if self.fixed_dimension is not None:
            return dimension == self.fixed_dimension
        return dimension >= self.min_dimension

    def check_dimension(self, dimension) -> int:
        """``dimension`` as an ``int``; raise ValueError, naming what is
        supported, unless it is an integer that this entry ``supports``."""
        dimension = as_integer("dimension", dimension)
        if self.supports(dimension):
            return dimension
        if self.fixed_dimension is not None:
            detail = f"only dimension {self.fixed_dimension}"
        else:
            detail = f"any dimension >= {self.min_dimension}"
        raise ValueError(f"benchmark {self.name!r} supports {detail}, got {dimension}")

    def bounds(self, dimension: int) -> tuple:
        if len(self.bounds_per_dim) == dimension:
            return self.bounds_per_dim
        return tuple(self.bounds_per_dim[0] for _ in range(dimension))

    def minimizer(self, dimension: int) -> np.ndarray:
        if isinstance(self.minimizer_fill, tuple):
            return np.array(self.minimizer_fill, dtype=np.float64)
        return np.full(dimension, float(self.minimizer_fill))


def _pair_batch(fn):
    return lambda X: fn(X[..., 0], X[..., 1])


_SPECS = (
    BenchmarkSpec(
        name="booth",
        batch=_pair_batch(booth),
        bounds_per_dim=((-10.0, 10.0), (-10.0, 10.0)),
        known_minimum_value=0.0,
        minimizer_fill=(1.0, 3.0),
    ),
    BenchmarkSpec(
        name="beale",
        batch=_pair_batch(beale),
        bounds_per_dim=((-4.5, 4.5), (-4.5, 4.5)),
        known_minimum_value=0.0,
        minimizer_fill=(3.0, 0.5),
    ),
    BenchmarkSpec(
        name="goldstein_price",
        batch=_pair_batch(goldstein_price),
        bounds_per_dim=((-2.0, 2.0), (-2.0, 2.0)),
        known_minimum_value=3.0,
        minimizer_fill=(0.0, -1.0),
    ),
    BenchmarkSpec(
        name="mccormick",
        batch=_pair_batch(mccormick),
        bounds_per_dim=((-1.5, 4.0), (-3.0, 4.0)),
        known_minimum_value=-1.9133,
        minimizer_fill=(-0.54719, -1.54719),
    ),
    BenchmarkSpec(
        name="three_hump_camel",
        batch=_pair_batch(three_hump_camel),
        bounds_per_dim=((-5.0, 5.0), (-5.0, 5.0)),
        known_minimum_value=0.0,
        minimizer_fill=(0.0, 0.0),
    ),
    BenchmarkSpec(
        name="sphere",
        batch=sphere,
        bounds_per_dim=((-100.0, 100.0),),
        known_minimum_value=0.0,
        minimizer_fill=0.0,
        fixed_dimension=None,
        min_dimension=1,
    ),
    BenchmarkSpec(
        name="rosenbrock",
        batch=rosenbrock,
        bounds_per_dim=((-80.0, 80.0),),
        known_minimum_value=0.0,
        minimizer_fill=1.0,
        fixed_dimension=None,
        min_dimension=2,
    ),
)

REGISTRY = {spec.name: spec for spec in _SPECS}


def benchmark_names() -> list:
    """Registry names in the canonical reporting order."""
    return [spec.name for spec in _SPECS]


def get_spec(name: str) -> BenchmarkSpec:
    spec = REGISTRY.get(name) if isinstance(name, str) else None
    if spec is None:
        raise ValueError(
            f"unknown benchmark {name!r}; known: {', '.join(benchmark_names())}"
        )
    return spec


def get_objective(name: str, dimension: int) -> Objective:
    """Build the objective for a registry entry.

    Raises ValueError for unknown names, for dimensions that are not integers
    and for dimensions the entry does not support (the five fixed problems
    exist only at dimension 2).
    """
    spec = get_spec(name)
    dimension = spec.check_dimension(dimension)
    return Objective(
        name=name,
        bounds=spec.bounds(dimension),
        evaluate=spec.batch,
    )
