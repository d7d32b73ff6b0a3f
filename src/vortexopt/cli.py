"""Command-line harness: run experiment plans, check results, list benchmarks.

A ``run``'s settings are its flags over the defaults. Each engine flag stores
its value under the name of the ``VoaConfig`` field it sets.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .benchmarks import REGISTRY, benchmark_names
from .core import VoaConfig
from .harness import (
    DEFAULT_BASE_SEED,
    DEFAULT_OUT_DIR,
    DEFAULT_SEED_COUNT,
    REFERENCE_RESULTS,
    _sci,
    evaluate_checks,
    execute_plan,
    make_plan,
    read_plan,
    read_runs_csv,
    succeeded,
    summarize,
    summary_grid,
    write_reports,
)

_DEFAULT = VoaConfig()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexopt",
        description="Vortex optimization benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # An engine flag's dest is the VoaConfig field it sets, which plan_from_args reads.
    run_p = sub.add_parser("run", help="execute an experiment plan")
    run_p.add_argument("--function", action="append",
                       help="benchmark name (repeatable; default: all)")
    run_p.add_argument("--dim", action="append", type=int,
                       help="dimension (repeatable; each function runs the listed "
                       "dimensions it supports; default: each function's grid)")
    run_p.add_argument("--seeds", type=int,
                       help=f"number of consecutive seeds (default {DEFAULT_SEED_COUNT})")
    run_p.add_argument("--base-seed", type=int, help=f"first seed (default {DEFAULT_BASE_SEED})")
    run_p.add_argument("--particles", dest="n_particles", type=int,
                       help=f"population size (default {_DEFAULT.n_particles})")
    run_p.add_argument("--iterations", dest="max_iterations", type=int,
                       help=f"iteration budget (default {_DEFAULT.max_iterations})")
    run_p.add_argument("--init-vorticity", dest="initial_vorticity", type=float,
                       help=f"initial vorticity (default {_DEFAULT.initial_vorticity})")
    run_p.add_argument("--elimination", dest="elimination_threshold", type=int,
                       help="respawn all normal particles when their count is at or "
                       "below this (default: the population size)")
    run_p.add_argument("--target-fitness", type=float,
                       help="stop a run early once the best reaches this value")
    run_p.add_argument("--jobs", type=int, help="parallel runs, at least 1 (default: usable CPUs)")
    run_p.add_argument("--out", help=f"output directory (default: {DEFAULT_OUT_DIR})")
    run_p.add_argument("--trace-dir", help="also write per-run convergence traces here")

    check_p = sub.add_parser("check", help="judge the plan in summary.json by the reference table")
    check_p.add_argument("--out", default=DEFAULT_OUT_DIR, help="directory containing runs.csv "
                         f"and summary.json (default: {DEFAULT_OUT_DIR})")

    sub.add_parser("list", help="print the benchmark registry")
    return parser


def plan_from_args(ns) -> tuple:
    """Build (plan, jobs) from parsed run-subcommand arguments; the plan's ``VoaConfig``
    is built from the given flags only, so every other field keeps its default."""
    config = VoaConfig(**{f.name: v for f in fields(VoaConfig)
                          if f.init and (v := getattr(ns, f.name)) is not None})
    plan = make_plan(functions=ns.function, dims=ns.dim, seed_count=ns.seeds,
                     base_seed=ns.base_seed, config=config, out_dir=ns.out,
                     trace_dir=ns.trace_dir)
    return plan, ns.jobs


def parse_plan(argv) -> tuple:
    """Parse ``run`` subcommand arguments into (plan, jobs); raises on bad input."""
    return plan_from_args(build_parser().parse_args(["run", *argv]))


def _cmd_run(ns) -> int:
    plan, jobs = plan_from_args(ns)
    total = plan.n_runs
    done = [0]

    def progress(report):
        done[0] += 1
        status = f"best={report.best_fitness:.6e}" if report.error is None \
            else f"error={report.error}"
        print(f"[{done[0]}/{total}] {report.function} d={report.dimension} "
              f"seed={report.seed} {status}", file=sys.stderr)

    reports = execute_plan(plan, jobs=jobs, progress=progress)
    summaries = summarize(reports)
    paths = write_reports(reports, summaries, plan)
    print(f"median best over {len(plan.seeds)} seed(s):")
    # summary.csv's cells; 13 columns keep a space before a negative median.
    dims, grid = summary_grid(summaries)
    print(f"{'function':<18}" + "".join(f"{f'd={d}':>13}" for d in dims))
    for name, medians in grid:
        print(f"{name:<18}" + "".join(f"{'NA' if m is None else _sci(m):>13}" for m in medians))
    print(f"\nreports written to {paths['runs']} and {paths['summary']}")
    if plan.trace_dir is not None:
        print(f"traces written to {plan.trace_dir}")
    failures = [r for r in reports if r.error is not None]
    if failures:
        print(f"warning: {len(failures)} run(s) failed; see runs.csv", file=sys.stderr)
    return 0


def _cmd_check(ns) -> int:
    reports = read_runs_csv(Path(ns.out) / "runs.csv")
    plan = read_plan(Path(ns.out) / "summary.json")
    checks = {(row.function, row.dimension): (row, rule, passed)
              for row, rule, passed in evaluate_checks(summarize(reports))}
    runs = {}  # per cell, each seed's run: whether it succeeded
    for r in reports:
        runs.setdefault((r.function, r.dimension), {})[r.seed] = succeeded(r)
    # A planned table cell with no successful run, or no row, has no summary but is judged.
    cells = [c for c in plan.cells() if c in REFERENCE_RESULTS]
    if not cells:
        raise ValueError("no checkable cells in the plan")
    # The table holds results at the default configuration.
    differing = [f"{name}={value}" for name, value in plan.config.resolved().items()
                 if value != _DEFAULT.resolved()[name]]
    verdicts = []
    for function, dimension in cells:
        if (function, dimension) not in checks:
            print(f"FAIL {function} d={dimension} has no successful run")
            verdicts.append(False)
            continue
        row, rule, passed = checks[function, dimension]
        seeds = runs[function, dimension]
        # A median over other seeds than the plan's is not the table's statistic.
        failed = [s for s, ok in seeds.items() if not ok]
        missing = [s for s in plan.seeds if s not in seeds]
        unplanned = [s for s in seeds if s not in plan.seeds]
        note = "".join(f"; {kind} {', '.join(map(str, items))}" for kind, items in (
            ("failed seeds", failed), ("missing seeds", missing),
            ("unplanned seeds", unplanned), ("non-default config", differing)) if items)
        verdicts.append(passed and not note)
        print(f"{'PASS' if verdicts[-1] else 'FAIL'} {function} d={dimension} "
              f"median={row.median:.6e} reference={row.reference_value:.4f} "
              f"rule: {rule}{note}")
    for function, dimension in [c for c in runs if c not in plan.cells()]:
        print(f"FAIL {function} d={dimension} is not in the plan")
        verdicts.append(False)
    return 0 if all(verdicts) else 1


def _cmd_list(_ns) -> int:
    grid = make_plan().dimensions
    for name in benchmark_names():
        spec = REGISTRY[name]
        if spec.fixed_dimension is not None:
            dims = f"d={spec.fixed_dimension}"
        else:
            dims = f"d>={spec.min_dimension} (grid: {', '.join(map(str, grid[name]))})"
        bounds = spec.bounds_per_dim
        if len(bounds) == 1:
            domain = f"[{bounds[0][0]:g}, {bounds[0][1]:g}] per coordinate"
        else:
            domain = " x ".join(f"[{lo:g}, {hi:g}]" for lo, hi in bounds)
        print(f"{name:<18} {dims:<28} domain {domain:<34} minimum {spec.known_minimum_value:g}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.command == "run":
            return _cmd_run(ns)
        if ns.command == "check":
            return _cmd_check(ns)
        return _cmd_list(ns)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
