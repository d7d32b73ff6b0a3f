"""Core domain types shared by the optimizer, the benchmark suite, and the harness.

Defines the columnar swarm state, the run configuration, the
objective-function contract, and the seeded deterministic random source that
every stochastic operation draws from.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "VoaConfig",
    "Objective",
    "SwarmState",
    "RandomSource",
    "as_integer",
    "as_seed",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_UNIT_SCALE = 1.0 / (1 << 53)
# Draws generated per refill of a RandomSource block (more if one request is larger).
_BLOCK_DRAWS = 4096


def as_integer(name: str, value) -> int:
    """``value`` as an ``int``; a bool or a non-integer raises ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_seed(name: str, value) -> int:
    """``value`` as a SplitMix64 seed: ``as_integer``, then within [0, 2**64 - 1]."""
    seed = as_integer(name, value)
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"{name} must lie in [0, 2**64 - 1], got {seed}")
    return seed


class RandomSource:
    """Deterministic uniform random source (SplitMix64).

    The generator is the SplitMix64 sequence: the i-th raw output is
    ``mix64(seed + i * 0x9E3779B97F4A7C15)`` over wrapping 64-bit arithmetic,
    where ``mix64`` is the xor-shift/multiply finalizer
    (``0xBF58476D1CE4E5B9`` / ``0x94D049BB133111EB``). Uniform doubles take
    the top 53 bits, giving values in ``[0, 1)``. Because outputs are a pure
    function of ``(seed, draw index)``, sequences are identical across
    platforms and library versions, and batch generation consumes exactly the
    same stream as repeated single draws.

    Draws are generated ahead in blocks of ``_BLOCK_DRAWS`` (or of the
    request, when it is larger) and served in order; a request that does not
    fit in the rest of the block starts a new block at the next unconsumed
    index. Every block is a new array, so an array already returned never
    changes.
    """

    def __init__(self, seed: int):
        self._seed = as_seed("seed", seed)
        self._count = 0
        self._block = np.empty(0, dtype=np.float64)
        self._pos = 0

    def _generate(self, size: int) -> np.ndarray:
        """Draws ``self._count + 1`` to ``self._count + size`` of the stream."""
        idx = np.arange(self._count + 1, self._count + size + 1, dtype=np.uint64)
        z = np.uint64(self._seed) + idx * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        z = z ^ (z >> np.uint64(31))
        return (z >> np.uint64(11)).astype(np.float64) * _UNIT_SCALE

    def uniform_unit_batch(self, n: int) -> np.ndarray:
        """Return the next ``n`` uniform draws in [0, 1) as a float64 array."""
        if n < 0:
            raise ValueError(f"batch size must be non-negative, got {n}")
        start = self._pos
        if start + n > self._block.shape[0]:
            self._block = self._generate(max(_BLOCK_DRAWS, n))
            start = 0
        self._pos = start + n
        self._count += n
        return self._block[start:start + n]

    def uniform_unit(self) -> float:
        """Return the next uniform draw in [0, 1)."""
        return float(self.uniform_unit_batch(1)[0])

    def uniform_box(self, lower: np.ndarray, upper: np.ndarray, count: int) -> np.ndarray:
        """Sample ``count`` points uniformly in the box spanned by lower/upper.

        Draws are consumed point-major, coordinate index ascending within each
        point, so the stream layout is independent of how callers batch.
        """
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        if (lower >= upper).any():
            raise ValueError("invalid box: every lower bound must be < its upper bound")
        return self._box_points(lower, upper, count)

    def _box_points(self, lower: np.ndarray, upper: np.ndarray, count: int) -> np.ndarray:
        """``uniform_box`` without its checks: the bounds must already be
        float64 arrays with every lower bound below its upper bound, as
        ``Objective.lower``/``upper`` are."""
        d = lower.shape[0]
        u = self.uniform_unit_batch(count * d).reshape(count, d)
        return lower + u * (upper - lower)


@dataclass(frozen=True)
class VoaConfig:
    """Run configuration.

    Defaults follow the standard benchmark setup: 50 particles, 5000
    iterations, initial vorticity 0.5 clamped to [-7, 7], and an elimination
    threshold equal to the population size (so every below-average particle is
    respawned each iteration).

    ``per_coordinate_draws`` selects how the position update consumes
    randomness: one independent draw per coordinate (default), or a single
    draw shared by all coordinates of a particle, which restricts each move to
    the line through the global best.

    ``seed``, ``n_particles``, ``max_iterations`` and ``elimination_threshold``
    must be integers (Python or numpy, stored as ``int``); floats, strings and
    bools are rejected.

    ``initial_vorticity`` may lie outside ``[min_vorticity, max_vorticity]``:
    the one-time kick clamps the initial best particle's value, and the first
    vorticity pull a particle goes through (respawned particles included)
    clamps its value.
    """

    n_particles: int = 50
    max_iterations: int = 5000
    initial_vorticity: float = 0.5
    max_vorticity: float = 7.0
    min_vorticity: Optional[float] = None
    elimination_threshold: int = 50
    seed: int = 1
    pull_epsilon: float = 1e-9
    per_coordinate_draws: bool = True
    target_fitness: Optional[float] = None

    def __post_init__(self):
        for name in ("n_particles", "max_iterations", "elimination_threshold"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        object.__setattr__(self, "seed", as_seed("seed", self.seed))
        if self.min_vorticity is None:
            object.__setattr__(self, "min_vorticity", -float(self.max_vorticity))
        for name in ("initial_vorticity", "max_vorticity", "min_vorticity", "pull_epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.n_particles < 2:
            raise ValueError(f"n_particles must be >= 2, got {self.n_particles}")
        if self.max_iterations < 0:
            raise ValueError(f"max_iterations must be >= 0, got {self.max_iterations}")
        if not (self.min_vorticity < 0.0 < self.max_vorticity):
            raise ValueError(
                "vorticity limits must straddle zero: "
                f"got min={self.min_vorticity}, max={self.max_vorticity}"
            )
        if not 0 <= self.elimination_threshold <= self.n_particles:
            raise ValueError(
                "elimination_threshold must lie in [0, n_particles], got "
                f"{self.elimination_threshold} with n_particles={self.n_particles}"
            )
        if not self.pull_epsilon > 0.0:
            raise ValueError(f"pull_epsilon must be > 0, got {self.pull_epsilon}")


@dataclass(frozen=True)
class Objective:
    """A box-constrained minimization target.

    ``evaluate`` maps a position vector to a scalar fitness and must be pure:
    deterministic, side-effect free, and safe to call from concurrent runs.
    ``evaluate_batch``, when given, must agree with ``evaluate`` row by row
    and exists only as a vectorization shortcut for the engine.
    """

    name: str
    dimension: int
    bounds: tuple
    evaluate: Callable
    evaluate_batch: Optional[Callable] = None
    known_minimum_value: Optional[float] = None
    known_minimizer: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        object.__setattr__(self, "bounds", bounds)
        if len(bounds) != self.dimension:
            raise ValueError(
                f"bounds must list one (lower, upper) pair per dimension: "
                f"got {len(bounds)} pairs for dimension {self.dimension}"
            )
        for i, (lo, hi) in enumerate(bounds):
            if not lo < hi:
                raise ValueError(f"bounds[{i}]: lower {lo} must be < upper {hi}")
        for attr, column in (("_lower", 0), ("_upper", 1)):
            limits = np.array([b[column] for b in bounds], dtype=np.float64)
            limits.flags.writeable = False
            object.__setattr__(self, attr, limits)
        if self.known_minimizer is not None:
            minimizer = np.asarray(self.known_minimizer, dtype=np.float64)
            object.__setattr__(self, "known_minimizer", minimizer)
            if minimizer.shape != (self.dimension,):
                raise ValueError(
                    f"known_minimizer has shape {minimizer.shape}, "
                    f"expected ({self.dimension},)"
                )
            lo, hi = self.lower, self.upper
            if np.any(minimizer < lo) or np.any(minimizer > hi):
                raise ValueError("known_minimizer lies outside the search bounds")
            if self.known_minimum_value is not None:
                got = float(self.evaluate(minimizer))
                if abs(got - self.known_minimum_value) > 1e-4:
                    raise ValueError(
                        f"objective {self.name!r}: evaluate(known_minimizer) = {got}, "
                        f"expected {self.known_minimum_value} within 1e-4"
                    )

    @property
    def lower(self) -> np.ndarray:
        """Read-only array of the lower bounds, one per dimension."""
        return self._lower

    @property
    def upper(self) -> np.ndarray:
        """Read-only array of the upper bounds, one per dimension."""
        return self._upper

    def evaluate_rows(self, positions: np.ndarray) -> np.ndarray:
        """Evaluate a (k, dimension) stack of positions, one fitness per row."""
        positions = np.asarray(positions, dtype=np.float64)
        if self.evaluate_batch is not None:
            values = np.asarray(self.evaluate_batch(positions), dtype=np.float64)
            if values.shape != positions.shape[:1]:
                raise ValueError(
                    f"objective {self.name!r}: evaluate_batch returned shape "
                    f"{values.shape} for positions of shape {positions.shape}, "
                    f"expected {positions.shape[:1]}"
                )
            return values
        return np.array([self.evaluate(row) for row in positions], dtype=np.float64)


@dataclass(eq=False)
class SwarmState:
    """Mutable population state owned by a single optimizer run.

    Columnar layout: row i of ``positions`` plus element i of ``vorticity``,
    ``fitness`` and ``is_vortex`` describe particle i. ``best_*`` is the
    best-so-far record; ``best_index`` is the particle that holds it.
    Fitness values are stored with non-finite evaluations replaced by ``+inf``
    so every comparison (marking, record updates) is well defined.
    ``mean_fitness`` is the population mean that the latest marking pass
    computed (NaN before the first one).
    """

    positions: np.ndarray
    vorticity: np.ndarray
    fitness: np.ndarray
    is_vortex: np.ndarray
    best_position: np.ndarray
    best_fitness: float
    best_vorticity: float
    best_index: int
    iteration: int = 0
    evaluations: int = 0
    mean_fitness: float = math.nan

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]
