"""Time two revisions of vortexopt against each other in one interpreter.

    python tools/abpair.py REV_A REV_B [--pairs 60] [--iterations 400] [--out FILE]

Each revision's ``src/vortexopt`` comes from ``git archive`` and is imported
under a module name of its own. On booth d=2, sphere d=30 and rosenbrock d=30
each pair runs both sides once on the pair's seed, alternating which goes
first; REV_A also runs against a second copy of itself, interleaved, as the
A/A control. Each cell reports the median B/A time ratio with a bootstrap 95%
interval, the A/A interval, and whether both sides gave identical
``best_fitness`` and ``evaluations`` (exit 1 if not); a ratio whose interval
overlaps the A/A one shows no change. ``--out`` adds the comparison, the
Python, numpy and CPU details and every per-pair time to a JSON file.
"""

import argparse
import dataclasses
import importlib.util
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import gittree

CELLS = (("booth", 2), ("sphere", 30), ("rosenbrock", 30))


def load(commit: str, name: str, work: Path):
    """Import ``commit``'s package from a ``git archive`` copy as module ``name``."""
    package = gittree.extract(commit, work / name, "src/vortexopt") / "src" / "vortexopt"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def runner(pkg, iterations: int):
    """``(function, dim, seed) -> (seconds, best_fitness, evaluations)`` for one package."""
    # Older revisions take the seed as VoaConfig.seed, newer ones as run's third argument.
    seed_in_config = "seed" in {f.name for f in dataclasses.fields(pkg.VoaConfig)}

    def timed(function, dim, seed):
        objective = pkg.get_objective(function, dim)
        if seed_in_config:
            config, args = pkg.VoaConfig(max_iterations=iterations, seed=seed), ()
        else:
            config, args = pkg.VoaConfig(max_iterations=iterations), (seed,)
        start = time.perf_counter()
        report = pkg.run(config, objective, *args)
        return time.perf_counter() - start, float(report.best_fitness), int(report.evaluations)
    return timed


def pair(first, second, cell, index: int) -> tuple:
    """One timed run of each side on the pair's seed; odd pairs run ``second`` first."""
    order = (first, second) if index % 2 == 0 else (second, first)
    results = {side: side(*cell, index + 1) for side in order}
    return results[first], results[second]


def interval(ratios, rng) -> list:
    """Bootstrap 95% interval of the median ratio."""
    medians = np.median(rng.choice(ratios, (2000, len(ratios))), axis=1)
    return [round(float(x), 4) for x in np.percentile(medians, [2.5, 97.5])]


def compare(a, b, a_again, pairs: int) -> list:
    rng = np.random.default_rng(0)
    cells = []
    for cell in CELLS:
        for side in (a, b, a_again):  # warm caches and lazy set-up before timing
            side(*cell, 1)
        ab, aa = [], []
        for i in range(pairs):
            ab.append(pair(a, b, cell, i))
            aa.append(pair(a, a_again, cell, i))
        ratio = np.array([y[0] / x[0] for x, y in ab])
        aa_ratio = np.array([y[0] / x[0] for x, y in aa])
        ci, aa_ci = interval(ratio, rng), interval(aa_ratio, rng)
        cells.append({
            "cell": f"{cell[0]} d={cell[1]}",
            "ratio": round(float(np.median(ratio)), 4), "interval": ci,
            "aa_ratio": round(float(np.median(aa_ratio)), 4), "aa_interval": aa_ci,
            "verdict": ("faster" if ci[1] < aa_ci[0] else "slower" if ci[0] > aa_ci[1]
                        else "within A/A"),
            "identical": all(x[1:] == y[1:] for x, y in ab + aa),
            "ab_s": [[round(x[0], 6), round(y[0], 6)] for x, y in ab],
            "aa_s": [[round(x[0], 6), round(y[0], 6)] for x, y in aa],
        })
    return cells


def environment() -> dict:
    with open("/proc/cpuinfo", encoding="utf-8") as info:
        cpu = next((line.split(":", 1)[1].strip() for line in info
                    if line.startswith("model name")), platform.processor())
    return {"python": platform.python_version(), "numpy": np.__version__, "cpu": cpu,
            "usable_cpus": len(os.sched_getaffinity(0)),
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("revs", nargs=2, metavar="REV", help="REV_A and REV_B, any git revision")
    parser.add_argument("--pairs", type=int, default=60, help="pairs per cell (default 60)")
    parser.add_argument("--iterations", type=int, default=400, help="iterations per run")
    parser.add_argument("--out", type=Path, help="JSON file to add the comparison to")
    ns = parser.parse_args(argv)
    for flag, value in (("--pairs", ns.pairs), ("--iterations", ns.iterations)):
        if value < 1:
            parser.error(f"{flag} must be at least 1, got {value}")
    a, b = gittree.commits(ns.revs)
    env = environment()
    with tempfile.TemporaryDirectory() as work:
        sides = [runner(load(commit, name, Path(work)), ns.iterations)
                 for commit, name in ((a, "abpair_a"), (b, "abpair_b"), (a, "abpair_a_again"))]
        cells = compare(*sides, ns.pairs)
    print(f"B/A time ratio, {ns.pairs} pairs of {ns.iterations}-iteration runs; "
          f"A={ns.revs[0]} ({a[:7]}), B={ns.revs[1]} ({b[:7]})")
    for c in cells:
        print(f"{c['cell']:<16} {c['ratio']:.4f} {c['interval']}  A/A {c['aa_ratio']:.4f} "
              f"{c['aa_interval']}  {c['verdict']}, "
              f"{'identical' if c['identical'] else 'DIFFERENT'} results")
    if ns.out is not None:
        gittree.add_comparison(ns.out, {
            "a": a, "b": b, "a_rev": ns.revs[0], "b_rev": ns.revs[1], "pairs": ns.pairs,
            "iterations": ns.iterations, "environment": env, "cells": cells}, key=("a", "b"))
    return 0 if all(c["identical"] for c in cells) else 1


if __name__ == "__main__":
    sys.exit(main())
