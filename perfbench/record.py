"""Record reference.json and work.json for every seed a workload can use.

    python3 perfbench/record.py [WORKLOAD ...]

Runs each named workload (default: all) over its whole seed pool through
the same plan and pipeline as the benchmark, with one pool worker per usable
CPU. reference.json gets a digest of every runs.csv row with wall_time_ms
left out; work.json gets each seed's evaluations summed over the workload's
cells, from which plans.py deals the seeds into balanced blocks.
Only re-record when a change is meant to alter results, and say so.
"""

from __future__ import annotations

import json
import os
import sys

import plans

OUT = plans.HERE / ".work" / "record"


def record(workload, jobs) -> tuple:
    digests, work = {}, {}
    chunk = workload.seeds_per_rep * workload.blocks
    for first in range(1, workload.pool_size + 1, chunk):
        out = OUT / workload.name / f"seeds{first}"
        plan, jobs = plans.build_plan(workload, tuple(range(first, first + chunk)), out, jobs)
        reports = plans.run_pipeline(plan, jobs)
        errors = [f"{r.function},{r.dimension},{r.seed}: {r.error}" for r in reports if r.error]
        if errors:
            raise SystemExit(f"{workload.name}: runs failed: {errors}")
        digests.update(plans.read_digests(out / "runs.csv"))
        work.update(plans.seed_evaluations(out / "runs.csv"))
        print(f"{workload.name}: seeds {first}..{first + chunk - 1} recorded", file=sys.stderr)
    return dict(sorted(digests.items())), dict(sorted(work.items(), key=lambda kv: int(kv[0])))


def _load(path) -> dict:
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


def _save(path, data) -> None:
    path.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or sorted(plans.WORKLOADS)
    unknown = set(names) - set(plans.WORKLOADS)
    if unknown:
        raise SystemExit(f"unknown workload(s): {', '.join(sorted(unknown))}")
    reference, work = _load(plans.REFERENCE_PATH), _load(plans.WORK_PATH)
    jobs = len(os.sched_getaffinity(0))
    for name in names:
        reference[name], work[name] = record(plans.WORKLOADS[name], jobs)
        _save(plans.REFERENCE_PATH, reference)
        _save(plans.WORK_PATH, work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
