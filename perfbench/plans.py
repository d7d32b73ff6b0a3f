"""Workload definitions, plan construction and the runs.csv output check.

A workload is a fixed list of (function, dimension) cells plus the
`vortexopt run` flags it needs. Each repetition runs a block of consecutive
seeds through the same calls `vortexopt run` makes: `cli.parse_plan`, then
`harness.execute_plan`, `harness.summarize` and `harness.write_reports`
(plus `harness.evaluate_checks`, as `vortexopt check` would).

The benchmark's `--seed` picks one of `WINDOWS` disjoint seed windows; a
repetition uses the next block of the window, cycling. The pool's VOA seeds
are dealt into windows and blocks by the work each seed did when
`reference.json` was recorded (`work.json`), so that every window and every
block holds about the same work: a run's figures then differ from seed to
seed by the machine, not by how many long runs its seeds happen to contain.
Every seed a window can use has a recorded digest in `reference.json`, so
outputs are checked for any `--seed`.

Importing this module puts the checkout's `src` first on `sys.path` but does
not import vortexopt: the runner stays free of the package, and the child
process pays for the import inside its timed set-up.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_PATH = HERE / "reference.json"
WORK_PATH = HERE / "work.json"
sys.path.insert(0, str(SRC))

WINDOWS = 10
DEFAULT_SEED = 1
HELD_OUT_SEED = 7

# runs.csv columns that define a run's result; wall_time_ms is left out, and
# columns added later are ignored so that only a changed value counts.
RESULT_COLUMNS = ("function", "dimension", "seed", "best_fitness", "evaluations",
                  "iterations", "best_position")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple
    flags: tuple
    seeds_per_rep: int
    blocks: int
    trace_seeds: int

    @property
    def functions(self) -> tuple:
        return tuple(dict.fromkeys(f for f, _ in self.cells))

    def block_seeds(self, seed: int, rep: int) -> tuple:
        """VOA seeds of repetition ``rep`` for benchmark seed ``seed``."""
        return _layout(self.name)[seed % WINDOWS][rep % self.blocks]

    @property
    def pool_size(self) -> int:
        """Number of consecutive VOA seeds, from 1, that any run can use."""
        return WINDOWS * self.blocks * self.seeds_per_rep


def _deal(items: list, piles: int) -> list:
    """Deal ``items`` into ``piles`` lists in snake order (0..k-1, then k-1..0, ...)."""
    out = [[] for _ in range(piles)]
    for i, item in enumerate(items):
        turn, j = divmod(i, piles)
        out[j if turn % 2 == 0 else piles - 1 - j].append(item)
    return out


@functools.lru_cache(maxsize=None)
def _layout(name: str) -> list:
    """Windows of blocks of VOA seeds, balanced by each seed's recorded work.

    Seeds sorted from most to least evaluations are dealt into the windows,
    then each window's seeds into its blocks, so every window and block
    takes one seed from each stratum of similar work.
    """
    workload = WORKLOADS[name]
    work = json.loads(WORK_PATH.read_text(encoding="utf-8"))[name]
    pool = sorted(range(1, workload.pool_size + 1), key=lambda s: (-work[str(s)], s))
    return [[tuple(sorted(block)) for block in _deal(window, workload.blocks)]
            for window in _deal(pool, WINDOWS)]


_ZERO_MINIMUM = (("booth", 2), ("beale", 2), ("three_hump_camel", 2), ("rosenbrock", 2),
                 ("sphere", 2), ("sphere", 5), ("sphere", 10), ("sphere", 20), ("sphere", 30))

WORKLOADS = {w.name: w for w in (
    Workload(
        name="plan-2d",
        cells=(("booth", 2), ("beale", 2), ("goldstein_price", 2), ("mccormick", 2),
               ("three_hump_camel", 2), ("sphere", 2), ("rosenbrock", 2)),
        flags=(),
        seeds_per_rep=2,
        blocks=2,
        trace_seeds=1,
    ),
    Workload(
        name="early-stop",
        cells=_ZERO_MINIMUM,
        flags=("--target-fitness", "1e-8"),
        seeds_per_rep=8,
        blocks=8,
        trace_seeds=4,
    ),
)}


def build_plan(workload: Workload, seeds: tuple, out_dir: Path, jobs: int):
    """Return (plan, jobs) for the VOA ``seeds``, built by the CLI parser."""
    from vortexopt import cli

    argv = ["--seeds", str(len(seeds)), "--out", str(out_dir), "--jobs", str(jobs)]
    argv += workload.flags
    for name in workload.functions:
        argv += ["--function", name]
    plan, jobs = cli.parse_plan(argv)
    # `--dim` applies to every function and `--seeds` counts up from
    # `--base-seed`, so the cell list and the seeds are set afterwards;
    # replace() validates the plan again.
    dims = {}
    for name, dim in workload.cells:
        dims.setdefault(name, []).append(dim)
    plan = dataclasses.replace(plan, dimensions={f: tuple(d) for f, d in dims.items()},
                               seeds=tuple(seeds))
    return plan, jobs


def run_pipeline(plan, jobs: int) -> list:
    """Run a plan the way `vortexopt run` does and return its reports."""
    from vortexopt import harness

    reports = harness.execute_plan(plan, jobs=jobs)
    summaries = harness.summarize(reports)
    harness.evaluate_checks(summaries)
    harness.write_reports(reports, summaries, plan)
    return reports


def expected_keys(workload: Workload, seeds: tuple) -> list:
    return [f"{f},{d},{s}" for f, d in workload.cells for s in seeds]


def read_digests(runs_csv: Path) -> dict:
    """Map "function,dimension,seed" to a digest of the row's result columns."""
    digests = {}
    with Path(runs_csv).open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            key = f"{row['function']},{row['dimension']},{row['seed']}"
            text = ",".join(row[c] for c in RESULT_COLUMNS)
            digests[key] = hashlib.sha256(text.encode()).hexdigest()[:16]
    return digests


def evaluations(runs_csv: Path) -> int:
    return sum(seed_evaluations(runs_csv).values())


def seed_evaluations(runs_csv: Path) -> dict:
    """Map each seed (as a string) to its evaluations summed over the cells."""
    totals = {}
    with Path(runs_csv).open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            totals[row["seed"]] = totals.get(row["seed"], 0) + int(row["evaluations"])
    return totals


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def failed_keys(reference: dict, expected: list, runs_csv: Path, errors=()) -> set:
    """Runs that errored, are missing from runs.csv, or differ from the reference."""
    got = read_digests(runs_csv) if Path(runs_csv).is_file() else {}
    failed = {k for k in expected if k not in reference or got.get(k) != reference[k]}
    return failed | set(errors)
