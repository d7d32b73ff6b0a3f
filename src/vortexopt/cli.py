"""Command-line harness: run experiment plans, check results, list benchmarks.

Settings merge with precedence CLI flag > config file > defaults. The config
file is flat ``key = value`` text whose keys are exactly the long flag names
(``function`` and ``dim`` accept comma-separated lists).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .benchmarks import REGISTRY, benchmark_names
from .harness import (
    evaluate_checks,
    execute_plan,
    make_plan,
    read_runs_csv,
    summarize,
    summary_grid,
    write_reports,
)

_LIST_KEYS = {"function", "dim"}
_INT_KEYS = {"seeds", "base-seed", "particles", "iterations", "elimination", "jobs"}
_FLOAT_KEYS = {"init-vorticity", "max-vorticity", "min-vorticity", "pull-epsilon",
               "target-fitness"}
_STR_KEYS = {"out", "trace-dir", "draw-mode"}
_CONFIG_KEYS = _LIST_KEYS | _INT_KEYS | _FLOAT_KEYS | _STR_KEYS


def load_config_file(path) -> dict:
    """Parse a flat key=value settings file; rejects unknown keys."""
    options = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if not value:
            raise ValueError(f"{path}:{lineno}: empty value for {key!r}")
        try:
            if key in _LIST_KEYS:
                parts = [p.strip() for p in value.split(",") if p.strip()]
                options[key] = [int(p) for p in parts] if key == "dim" else parts
            elif key in _INT_KEYS:
                options[key] = int(value)
            elif key in _FLOAT_KEYS:
                options[key] = float(value)
            else:
                options[key] = value
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    return options


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexopt",
        description="Vortex optimization benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment plan")
    run_p.add_argument("--function", action="append",
                       help="benchmark name (repeatable; default: all)")
    run_p.add_argument("--dim", action="append", type=int,
                       help="dimension (repeatable; default: each function's grid)")
    run_p.add_argument("--seeds", type=int, help="number of consecutive seeds (default 20)")
    run_p.add_argument("--base-seed", type=int, help="first seed (default 1)")
    run_p.add_argument("--particles", type=int, help="population size (default 50)")
    run_p.add_argument("--iterations", type=int, help="iteration budget (default 5000)")
    run_p.add_argument("--init-vorticity", type=float, help="starting vorticity (default 0.5)")
    run_p.add_argument("--max-vorticity", type=float, help="vorticity upper clamp (default 7.0)")
    run_p.add_argument("--min-vorticity", type=float,
                       help="vorticity lower clamp (default: negated upper clamp)")
    run_p.add_argument("--elimination", type=int,
                       help="respawn all normal particles when their count is at or "
                            "below this (default 50)")
    run_p.add_argument("--pull-epsilon", type=float,
                       help="divisor guard in the vorticity pull (default 1e-9)")
    run_p.add_argument("--draw-mode", choices=("coordinate", "shared"),
                       help="position-update randomness: per coordinate (default) or "
                            "one draw shared across coordinates")
    run_p.add_argument("--target-fitness", type=float,
                       help="stop a run early once the best reaches this value")
    run_p.add_argument("--jobs", type=int, help="parallel runs (default: usable CPUs)")
    run_p.add_argument("--out", help="output directory (default: results)")
    run_p.add_argument("--trace-dir", help="also write per-run convergence traces here")
    run_p.add_argument("--config", help="settings file merged below CLI flags")

    check_p = sub.add_parser("check", help="compare results against the reference table")
    check_p.add_argument("--out", default="results",
                         help="directory containing runs.csv (default: results)")

    sub.add_parser("list", help="print the benchmark registry")
    return parser


def _merged(cli_value, file_options, key, default=None):
    if cli_value is not None:
        return cli_value
    return file_options.get(key, default)


def plan_from_args(ns) -> tuple:
    """Build (plan, jobs) from parsed run-subcommand arguments."""
    file_options = load_config_file(ns.config) if ns.config else {}

    overrides = {}
    for flag, field in (
        ("particles", "n_particles"),
        ("iterations", "max_iterations"),
        ("init_vorticity", "initial_vorticity"),
        ("max_vorticity", "max_vorticity"),
        ("min_vorticity", "min_vorticity"),
        ("elimination", "elimination_threshold"),
        ("pull_epsilon", "pull_epsilon"),
        ("target_fitness", "target_fitness"),
    ):
        value = _merged(getattr(ns, flag), file_options, flag.replace("_", "-"))
        if value is not None:
            overrides[field] = value
    draw_mode = _merged(ns.draw_mode, file_options, "draw-mode")
    if draw_mode is not None:
        if draw_mode not in ("coordinate", "shared"):
            raise ValueError(f"draw-mode must be 'coordinate' or 'shared', got {draw_mode!r}")
        overrides["per_coordinate_draws"] = draw_mode == "coordinate"

    plan = make_plan(
        functions=_merged(ns.function, file_options, "function"),
        dims=_merged(ns.dim, file_options, "dim"),
        seed_count=_merged(ns.seeds, file_options, "seeds"),
        base_seed=_merged(ns.base_seed, file_options, "base-seed"),
        config_overrides=overrides,
        out_dir=_merged(ns.out, file_options, "out", "results"),
        trace_dir=_merged(ns.trace_dir, file_options, "trace-dir"),
    )
    jobs = _merged(ns.jobs, file_options, "jobs")
    return plan, jobs


def parse_plan(argv) -> tuple:
    """Parse ``run`` subcommand arguments into (plan, jobs); raises on bad input."""
    ns = build_parser().parse_args(["run", *argv])
    return plan_from_args(ns)


def _print_summary_table(summaries):
    dims, grid = summary_grid(summaries)
    print(f"{'function':<18}" + "".join(f"{f'd={d}':>12}" for d in dims))
    for name, medians in grid:
        print(f"{name:<18}" + "".join(f"{'NA':>12}" if m is None else f"{m:>12.4f}"
                                      for m in medians))


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
    _print_summary_table(summaries)
    print(f"\nreports written to {paths['runs']} and {paths['summary']}")
    if paths["traces"] is not None:
        print(f"traces written to {paths['traces']}")
    failures = [r for r in reports if r.error is not None]
    if failures:
        print(f"warning: {len(failures)} run(s) failed; see runs.csv", file=sys.stderr)
    return 0


def _cmd_check(ns) -> int:
    runs_path = Path(ns.out) / "runs.csv"
    if not runs_path.exists():
        print(f"error: {runs_path} not found; run `vortexopt run` first", file=sys.stderr)
        return 2
    reports = read_runs_csv(runs_path)
    results = evaluate_checks(summarize(reports))
    if not results:
        print("error: no checkable cells in the results", file=sys.stderr)
        return 2
    any_fail = False
    for res in results:
        verdict = "PASS" if res.passed else "FAIL"
        any_fail = any_fail or not res.passed
        ref = "" if res.reference_value is None else f" reference={res.reference_value:.4f}"
        print(f"{verdict} {res.function} d={res.dimension} "
              f"median={res.median:.6e}{ref} rule: {res.rule}")
    return 1 if any_fail else 0


def _cmd_list(_ns) -> int:
    for name in benchmark_names():
        spec = REGISTRY[name]
        if spec.fixed_dimension is not None:
            dims = f"d={spec.fixed_dimension}"
        else:
            dims = f"d>={spec.min_dimension} (grid: {', '.join(map(str, spec.grid_dimensions))})"
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
