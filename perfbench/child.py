"""One measurement in a fresh interpreter; prints one JSON line.

Modes:
  probe  import vortexopt and build the plan, then exit (set-up time only).
  rep    build the plan and run it untraced at ``--jobs``; report wall time,
         CPU of this process and its pool workers, and peak RSS.
  trace  run the plan in-process (jobs=1) with every layer wrapped, then
         again unwrapped, and report per-layer figures.

`monotonic_ready` is the CLOCK_MONOTONIC time at which the plan was built;
the runner subtracts its own spawn time from it to get set-up time.
"""

from __future__ import annotations

import argparse
import json
import pickle
import resource
import sys
import time
from pathlib import Path

import plans


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _rep(workload, seeds, out, jobs):
    plan, jobs = plans.build_plan(workload, seeds, out, jobs)
    ready = time.monotonic()
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    reports = plans.run_pipeline(plan, jobs)
    wall = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "monotonic_ready": ready,
        "wall_s": wall,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        "worker_cpu_s": _cpu(kids1) - _cpu(kids0),
        "peak_rss_kb": max(self1.ru_maxrss, kids1.ru_maxrss),
        "errors": [f"{r.function},{r.dimension},{r.seed}" for r in reports if r.error],
    }


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _trace(workload, seeds, out):
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        t0 = time.perf_counter()
        plan, _ = plans.build_plan(workload, seeds, out / "traced", 1)
        reports = plans.run_pipeline(plan, 1)
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.restore()
    written = _tree_bytes(plan.out_dir)  # the trace directory lies inside it

    t0 = time.perf_counter()
    untraced_plan, _ = plans.build_plan(workload, seeds, out / "untraced", 1)
    plans.run_pipeline(untraced_plan, 1)
    untraced_wall = time.perf_counter() - t0

    spans = tracer.arrays()
    tracer.save(out / "spans.npz")
    stats = tracing.span_stats(spans)
    by = stats["by_name"]

    def self_s(name):
        return by[name]["self_s"] if name in by else 0.0

    iters = by["engine.advance"]["calls"]
    counts = tracer.counts
    rows_used = sum(len(r.trace) for r in reports if r.trace is not None)
    rows_alloc = sum(r.config.max_iterations + 1 for r in reports)
    metrics = {
        "core.rng.calls_per_iter": (by["core.rng"]["calls"] / iters, "calls/iter"),
        "core.rng.draws_per_iter": (counts["core.rng.draws"] / iters, "draws/iter"),
        "core.rng.self_s": (self_s("core.rng"), "s"),
        "core.bounds.calls_per_iter": (by["core.bounds"]["calls"] / iters, "calls/iter"),
        "core.bounds.self_s": (self_s("core.bounds"), "s"),
        "benchmarks.eval.rows": (counts["benchmarks.eval.rows"], "rows"),
        "benchmarks.eval.self_s": (self_s("benchmarks.eval"), "s"),
    }
    for stage in ("init", "mark", "pull", "decay", "move", "refresh", "eliminate",
                  "advance", "run"):
        metrics[f"engine.{stage}.self_s"] = (self_s(f"engine.{stage}"), "s")
    metrics.update({
        "engine.iter_us": (by["engine.advance"]["total_s"] / iters * 1e6, "us"),
        "engine.respawned_per_iter": (counts["engine.respawned"] / iters, "particles/iter"),
        "engine.trace_rows_used_frac": (rows_used / rows_alloc, "ratio"),
        "harness.execute.self_s": (self_s("harness.execute"), "s"),
        "harness.pool.result_bytes": (
            sum(len(pickle.dumps(r)) for r in reports) / len(reports), "bytes"),
        "harness.write_reports.self_s": (self_s("harness.write_reports"), "s"),
        "harness.write_reports.bytes": (written, "bytes"),
        "harness.summarize.self_s": (self_s("harness.summarize"), "s"),
        "harness.evaluate_checks.self_s": (self_s("harness.evaluate_checks"), "s"),
        "cli.parse_plan.self_s": (self_s("cli.parse_plan"), "s"),
        "trace.uncovered_s": (traced_wall - stats["root_s"], "s"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
    })
    return {
        "metrics": metrics,
        "spans": len(spans["name_id"]),
        "min_self_s": stats["min_self_s"],
        "draws": counts["core.rng.draws"],
        "expected_draws": counts["expected.draws"],
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "errors": [f"{r.function},{r.dimension},{r.seed}" for r in reports if r.error],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("probe", "rep", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(plans.WORKLOADS))
    parser.add_argument("--seeds", type=lambda text: tuple(map(int, text.split(","))),
                        required=True, help="comma-separated VOA seeds")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    workload = plans.WORKLOADS[args.workload]
    if args.mode == "probe":
        plans.build_plan(workload, args.seeds, args.out, args.jobs)
        result = {"monotonic_ready": time.monotonic()}
    elif args.mode == "rep":
        result = _rep(workload, args.seeds, args.out, args.jobs)
    else:
        result = _trace(workload, args.seeds, args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
