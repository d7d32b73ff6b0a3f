"""Independent straight-line oracles used to cross-check the package.

Everything here is written against the standard library only (math module,
pure-Python integers and floats) so the checks cannot share a code path, or a
bug, with the numpy-based implementations under test. ``reference_run`` makes
two exceptions: it evaluates through ``Objective.evaluate_rows``, because the
objective is not what it checks, and it sums fitness with ``np.add.reduce``,
because numpy's pairwise sum rounds differently from a sequential one.
"""

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def booth(x, y):
    return (x + 2.0 * y - 7.0) ** 2 + (2.0 * x + y - 5.0) ** 2


def beale(x, y):
    t1 = 1.5 - x + x * y
    t2 = 2.25 - x + x * y * y
    t3 = 2.625 - x + x * y * y * y
    return t1 * t1 + t2 * t2 + t3 * t3


def goldstein_price(x, y):
    a = 1.0 + (x + y + 1.0) ** 2 * (
        19.0 - 14.0 * x + 3.0 * x * x - 14.0 * y + 6.0 * x * y + 3.0 * y * y
    )
    b = 30.0 + (2.0 * x - 3.0 * y) ** 2 * (
        18.0 - 32.0 * x + 12.0 * x * x + 48.0 * y - 36.0 * x * y + 27.0 * y * y
    )
    return a * b


def mccormick(x, y):
    return math.sin(x + y) + (x - y) ** 2 - 1.5 * x + 2.5 * y + 1.0


def three_hump_camel(x, y):
    return 2.0 * x * x - 1.05 * x**4 + x**6 / 6.0 + x * y + y * y


def sphere(coords):
    total = 0.0
    for c in coords:
        total += c * c
    return total


def rosenbrock(coords):
    total = 0.0
    for i in range(len(coords) - 1):
        total += 100.0 * (coords[i + 1] - coords[i] ** 2) ** 2 + (coords[i] - 1.0) ** 2
    return total


PAIR_ORACLES = {
    "booth": booth,
    "beale": beale,
    "goldstein_price": goldstein_price,
    "mccormick": mccormick,
    "three_hump_camel": three_hump_camel,
}
VECTOR_ORACLES = {"sphere": sphere, "rosenbrock": rosenbrock}


def _mix64(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def splitmix64_units(seed, n):
    """First n uniform [0,1) draws of the SplitMix64 sequence, pure Python."""
    state = seed & _MASK
    out = []
    for _ in range(n):
        state = (state + _GAMMA) & _MASK
        out.append((_mix64(state) >> 11) * 2.0**-53)
    return out


class _Stream:
    """The SplitMix64 stream of one seed, read front to back."""

    def __init__(self, seed):
        self.seed = seed
        self.used = 0

    def take(self, k):
        # Draw i + 1 of seed s is draw 1 of seed s + i * gamma.
        start = (self.seed + self.used * _GAMMA) & _MASK
        self.used += k
        return splitmix64_units(start, k)


def _clamp(x, lo, hi):
    return x if x != x else min(max(x, lo), hi)


def _argmin(values):
    # First index of the smallest value, as numpy's argmin picks it.
    best = 0
    for i, value in enumerate(values):
        if value < values[best]:
            best = i
    return best


def _mean(values):
    return float(np.add.reduce(np.array(values, dtype=np.float64))) / len(values)


def reference_run(config, objective, seed):
    """One VOA run from ``seed``, a particle and a coordinate at a time.

    Written from the engine's stage list and the frozen stream layout: stages
    in order, particles ascending, coordinates ascending. Returns a dict with
    the report fields (``best_fitness``, ``best_position``, ``evaluations``,
    ``iterations``) and the six trace columns as lists.
    """
    n, d = config.n_particles, objective.dimension
    lower, upper = [float(b[0]) for b in objective.bounds], [float(b[1]) for b in objective.bounds]
    v_min, v_max = -7.0, 7.0  # the engine's vorticity limit, written out
    stream = _Stream(seed)

    def box_points(count):
        u = stream.take(count * d)
        return [[lower[j] + u[i * d + j] * (upper[j] - lower[j]) for j in range(d)]
                for i in range(count)]

    def evaluate(rows):
        raw = objective.evaluate_rows(np.array(rows, dtype=np.float64).reshape(len(rows), d))
        values = [float(x) for x in raw]
        return [x if math.isfinite(x) else math.inf for x in values], \
            sum(not math.isfinite(x) for x in values)

    # Initialization and the one-time kick of the initial best particle.
    pos = box_points(n)
    fit, bad = evaluate(pos)
    vort = [config.initial_vorticity] * n
    holder = _argmin(fit)
    r = stream.take(1)[0]
    vort[holder] = _clamp(vort[holder] + r * vort[holder], v_min, v_max)
    vortex = [i == holder for i in range(n)]
    best_pos, best_fit, best_v = list(pos[holder]), fit[holder], vort[holder]
    evaluations = n
    trace = {"iteration": [0], "best_fitness_so_far": [best_fit], "mean_fitness": [],
             "vortex_count": [1], "eliminations_triggered": [False], "non_finite_evals": [bad]}

    executed = 0
    for it in range(1, config.max_iterations + 1):
        # 1. Mark: at or below the mean fitness, and the record holder.
        mean = _mean(fit)
        trace["mean_fitness"].append(mean)
        vortex = [fit[i] <= mean or i == holder for i in range(n)]

        # 2. Pull every vorticity toward the record's.
        eps = 1e-9  # the engine's divisor guard, written out
        for i, r in enumerate(stream.take(n)):
            v = vort[i]
            guarded = v if abs(v) >= eps else (eps if v >= 0.0 else -eps)
            vort[i] = _clamp(v + r * (best_v / guarded), v_min, v_max)

        # 3. Decay every vortex but the holder.
        decaying = [i for i in range(n) if vortex[i] and i != holder]
        for i, r in zip(decaying, stream.take(len(decaying))):
            vort[i] = r * vort[i]

        # 4. Move everyone but the holder toward the recorded best position.
        for i in range(n):
            if i == holder:
                continue
            rs = stream.take(d)
            for j in range(d):
                step = rs[j] * vort[i]
                pos[i][j] = _clamp(pos[i][j] + step * (best_pos[j] - pos[i][j]),
                                   lower[j], upper[j])

        # 5. Re-evaluate; the iteration's best becomes a vortex, and the
        # record moves only on strict improvement.
        fit, bad = evaluate(pos)
        evaluations += n
        top = _argmin(fit)
        vortex[top] = True
        if fit[top] < best_fit:
            best_fit, best_pos, best_v, holder = fit[top], list(pos[top]), vort[top], top

        # 6. Respawn every normal particle when few enough remain.
        normal = [i for i in range(n) if not vortex[i]]
        culled = len(normal) <= config.threshold
        if culled and normal:
            fresh = box_points(len(normal))
            fresh_fit, _ = evaluate(fresh)
            for i, p, f in zip(normal, fresh, fresh_fit):
                pos[i], fit[i], vort[i] = p, f, config.initial_vorticity
            evaluations += len(normal)

        executed = it
        trace["iteration"].append(it)
        trace["best_fitness_so_far"].append(best_fit)
        trace["vortex_count"].append(sum(vortex))
        trace["eliminations_triggered"].append(culled)
        trace["non_finite_evals"].append(bad)
        if config.target_fitness is not None and best_fit <= config.target_fitness:
            break
    trace["mean_fitness"].append(_mean(fit))

    return {"best_fitness": best_fit, "best_position": best_pos,
            "evaluations": evaluations, "iterations": executed, "trace": trace}
