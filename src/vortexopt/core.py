"""Core domain types shared by the optimizer, the benchmark suite, and the harness.

Defines the columnar swarm state, the run configuration, the
objective-function contract, and the seeded deterministic random source that
every stochastic operation draws from.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

__all__ = [
    "VoaConfig",
    "Objective",
    "SwarmState",
    "RandomSource",
    "as_integer",
    "as_real",
    "as_seed",
    "as_distinct",
]

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_UNIT_SCALE = 1.0 / (1 << 53)
# Draws per RandomSource block (more if one request is larger). Generated in
# place, 16384 cost 5.6 ns per draw against 7.1 at 4096 and 8.9 at 32768.
_BLOCK_DRAWS = 16384


def as_integer(name: str, value, minimum=None) -> int:
    """``value`` as an ``int``; a bool, a non-integer or a value below ``minimum`` (when
    given) raises ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def as_real(name: str, value) -> float:
    """``value`` as a ``float``; a bool or a non-real raises ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def as_seed(name: str, value) -> int:
    """``value`` as a SplitMix64 seed: ``as_integer``, then within [0, 2**64 - 1]."""
    seed = as_integer(name, value)
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"{name} must lie in [0, 2**64 - 1], got {seed}")
    return seed


def as_distinct(name: str, values, convert) -> tuple:
    """``values`` as a tuple of ``convert(f"{name}[i]", item)`` per item; ValueError naming
    ``name`` unless it is a non-empty list (not a string or a 0-d array, which is Iterable
    but cannot be iterated) with no converted item repeated."""
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable) \
            or getattr(values, "ndim", None) == 0:
        raise ValueError(f"{name} must be a list, got {values!r}")
    items = tuple(convert(f"{name}[{i}]", value) for i, value in enumerate(values))
    if not items:
        raise ValueError(f"{name} must not be empty")
    if len(set(items)) != len(items):
        raise ValueError(f"{name} must be pairwise distinct")
    return items


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
    request, when it is larger) and served in order. A request that does not
    fit in the rest of the block starts a new block: the unconsumed tail of
    the old one is copied to its front and only the draws after the tail are
    generated, so every draw is hashed once. Every block is a new array, so
    an array already returned never changes. ``peek(n)`` returns the draws
    the next ``uniform_unit_batch(n)`` will, without consuming them.
    """

    def __init__(self, seed: int):
        self._seed = as_seed("seed", seed)
        self._count = 0
        self._block = np.empty(0, dtype=np.float64)
        self._pos = 0

    def _generate(self, first: int, out: np.ndarray) -> np.ndarray:
        """Write draws ``first`` to ``first + len(out) - 1`` of the stream
        (the first draw is number 1) into ``out`` and return it."""
        z = np.arange(first, first + out.shape[0], dtype=np.uint64)
        t = np.empty_like(z)
        np.multiply(z, _GAMMA, out=z)
        np.add(z, self._seed, out=z)
        for shift, mix in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(z, shift, out=t)
            np.bitwise_xor(z, t, out=z)
            np.multiply(z, mix, out=z)
        np.right_shift(z, 31, out=t)
        np.bitwise_xor(z, t, out=z)
        np.right_shift(z, 11, out=z)
        return np.multiply(z, _UNIT_SCALE, out=out)

    def peek(self, n: int) -> np.ndarray:
        """Return the next ``n`` uniform draws in [0, 1) without consuming them."""
        if n < 0:
            raise ValueError(f"batch size must be non-negative, got {n}")
        block, start = self._block, self._pos
        if start + n > block.shape[0]:
            tail = block.shape[0] - start
            fresh = np.empty(max(_BLOCK_DRAWS, n), dtype=np.float64)
            fresh[:tail] = block[start:]
            self._generate(self._count + tail + 1, fresh[tail:])
            self._block = block = fresh
            self._pos = start = 0
        return block[start:start + n]

    def uniform_unit_batch(self, n: int) -> np.ndarray:
        """Return the next ``n`` uniform draws in [0, 1) as a float64 array."""
        draws = self.peek(n)
        self._pos += n
        self._count += n
        return draws


@dataclass(frozen=True)
class VoaConfig:
    """Run configuration.

    Holds only the settings a caller varies. Defaults follow the standard
    benchmark setup: 50 particles, 5000 iterations, initial vorticity 0.5, and
    an elimination threshold equal to the population size (so every
    below-average particle is respawned each iteration). The vorticity limit
    is no setting: the engine clamps vorticity to [-7, 7].

    ``per_coordinate_draws`` records, for ``summary.json`` and the benchmark's
    tracer, that the position update takes one draw per coordinate; it is
    always True and cannot be set.

    ``n_particles``, ``max_iterations`` and ``elimination_threshold`` must be
    integers (Python or numpy, stored as ``int``); floats, strings and
    bools are rejected. The other numeric fields are reals, stored as ``float``.

    ``elimination_threshold`` keeps what the caller gave, None meaning
    "derive", so ``replace`` keeps it and equality compares it; ``threshold``
    and ``resolved()`` read the value a run uses.

    ``initial_vorticity`` may lie outside [-7, 7]: the one-time kick clamps
    the initial best particle's value, and the first vorticity pull a particle
    goes through (respawned particles included) clamps its value.
    """

    n_particles: int = 50
    max_iterations: int = 5000
    initial_vorticity: float = 0.5
    elimination_threshold: Optional[int] = None
    per_coordinate_draws: bool = field(default=True, init=False)
    target_fitness: Optional[float] = None

    def __post_init__(self):
        for name, convert in (("n_particles", lambda n, v: as_integer(n, v, minimum=2)),
                              ("max_iterations", lambda n, v: as_integer(n, v, minimum=0)),
                              ("elimination_threshold", as_integer),
                              ("initial_vorticity", as_real), ("target_fitness", as_real)):
            value = getattr(self, name)
            if value is None and name in ("elimination_threshold", "target_fitness"):
                continue
            value = convert(name, value)
            if name == "initial_vorticity" and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if self.target_fitness is not None and math.isnan(self.target_fitness):
            raise ValueError("target_fitness must not be NaN")
        if not 0 <= self.threshold <= self.n_particles:
            raise ValueError("elimination_threshold must lie in [0, n_particles], got "
                             f"{self.threshold} with n_particles={self.n_particles}")

    @property
    def threshold(self) -> int:
        """The elimination threshold: ``elimination_threshold``, else ``n_particles``."""
        threshold = self.elimination_threshold
        return self.n_particles if threshold is None else threshold

    def resolved(self) -> dict:
        """``asdict`` with ``threshold`` as ``elimination_threshold``."""
        return {**asdict(self), "elimination_threshold": self.threshold}


@dataclass(frozen=True)
class Objective:
    """A box-constrained minimization target.

    ``bounds`` gives one ``(lower, upper)`` pair per coordinate, and
    ``dimension`` is their number. ``evaluate`` maps an ``(..., dimension)``
    array of positions to the ``(...)`` array of their fitness values, one per
    row, and must be pure: deterministic, side-effect free, and safe to call
    from concurrent runs. A function of one position vector is lifted by a
    loop over ``X.reshape(-1, dimension)``. A registry function's known
    optimum is kept in its ``benchmarks.BenchmarkSpec``.
    """

    name: str
    dimension: int = field(init=False)
    bounds: tuple
    evaluate: Callable

    def __post_init__(self):
        if not callable(self.evaluate):
            raise ValueError(f"objective {self.name!r}: evaluate must be callable, "
                             f"got {self.evaluate!r}")
        try:  # a non-iterable, or an item that is not a pair, holds no pairs
            pairs = [(lo, hi) for lo, hi in self.bounds]
        except (TypeError, ValueError):
            pairs = []
        if not pairs:
            raise ValueError(f"bounds must hold one or more (lower, upper) pairs, got "
                             f"{self.bounds!r}")
        bounds = tuple((as_real(f"bounds[{i}]", lo), as_real(f"bounds[{i}]", hi))
                       for i, (lo, hi) in enumerate(pairs))
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "dimension", len(bounds))
        for i, (lo, hi) in enumerate(bounds):
            # A finite width implies finite limits; a box wider than a float
            # holds would map every draw to an infinite coordinate.
            if not (lo < hi and math.isfinite(hi - lo)):
                raise ValueError(f"bounds[{i}] must be finite with lower < upper and a finite "
                                 f"width upper - lower, got ({lo}, {hi})")
        for attr, column in (("_lower", 0), ("_upper", 1)):
            limits = np.array([b[column] for b in bounds], dtype=np.float64)
            limits.flags.writeable = False
            object.__setattr__(self, attr, limits)
        object.__setattr__(self, "_width", self._upper - self._lower)

    @property
    def lower(self) -> np.ndarray:
        """Read-only array of the lower bounds, one per dimension."""
        return self._lower

    @property
    def upper(self) -> np.ndarray:
        """Read-only array of the upper bounds, one per dimension."""
        return self._upper

    def to_box(self, u: np.ndarray) -> np.ndarray:
        """Map an (..., dimension) stack of unit draws into the box."""
        return self._lower + u * self._width

    def sample(self, rng: RandomSource, count: int) -> np.ndarray:
        """Draw ``count`` points uniformly in the box as a (count, dimension)
        array, taking draws point-major, coordinate index ascending."""
        return self.to_box(rng.uniform_unit_batch(count * self.dimension)
                           .reshape(count, self.dimension))

    def evaluate_rows(self, positions: np.ndarray) -> np.ndarray:
        """Evaluate an (..., dimension) stack of positions, one fitness per row;
        a result of any other shape than ``positions.shape[:-1]`` raises.

        A function written for one vector indexes coordinates on axis 0, so its
        values can pass the shape check only when the first axis is as long as
        the last. Such a stack goes to ``evaluate`` behind a leading unit axis,
        where that indexing fails. Other stacks go as they are: numpy's ufuncs
        cost more on the strided views of a 3-D stack (booth on 50 rows: 12.1
        against 8.7 us a call, 2-vCPU VM, numpy 2.4.6)."""
        positions = np.asarray(positions, dtype=np.float64)
        shape = positions.shape
        square = shape[0] == shape[-1]
        stack = positions[None] if square else positions
        try:
            values = np.asarray(self.evaluate(stack), dtype=np.float64)
        except IndexError as exc:
            raise ValueError(f"objective {self.name!r}: evaluate raised IndexError on "
                             f"positions of shape {stack.shape}: {exc}") from None
        if values.shape != stack.shape[:-1]:
            raise ValueError(
                f"objective {self.name!r}: evaluate returned shape {values.shape} "
                f"for positions of shape {stack.shape}, expected {stack.shape[:-1]}"
            )
        return values[0] if square else values


@dataclass(eq=False)
class SwarmState:
    """Mutable population state owned by a single optimizer run.

    Columnar layout: row i of ``positions`` plus element i of ``vorticity``,
    ``fitness`` and ``is_vortex`` describe particle i. The best-so-far record
    is particle ``best_index``'s row: the move restores it and the cull never
    touches a vortex. ``best_vorticity`` is kept apart because the pull
    changes the holder's own vorticity every iteration.
    Fitness values are stored with non-finite evaluations replaced by ``+inf``
    so every comparison (marking, record updates) is well defined.
    """

    positions: np.ndarray
    vorticity: np.ndarray
    fitness: np.ndarray
    is_vortex: np.ndarray
    best_vorticity: float
    best_index: int

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]
