"""Command-line harness: run experiment plans, check results, list benchmarks.

Settings merge with precedence CLI flag > config file > defaults. The config
file is flat ``key = value`` text whose keys are exactly the long flag names
(``function`` and ``dim`` accept comma-separated lists). ``RUN_SETTINGS``
declares each ``run`` setting once for the parser, the file and the plan.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional

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


class Setting(NamedTuple):
    """A ``run`` setting: its long flag, which is also its config-file key;
    the parser of one text value; the ``VoaConfig`` field it sets (None for a
    plan setting); its help, where ``{default}`` stands for that field's
    default; and whether it takes a list of values."""

    flag: str
    parse: Callable
    field: Optional[str]
    help: str
    repeat: bool = False


RUN_SETTINGS = {s.flag: s for s in (
    Setting("function", str, None, "benchmark name (repeatable; default: all)", repeat=True),
    Setting("dim", int, None, "dimension (repeatable; each function runs the listed "
            "dimensions it supports; default: each function's grid)", repeat=True),
    Setting("seeds", int, None, f"number of consecutive seeds (default {DEFAULT_SEED_COUNT})"),
    Setting("base-seed", int, None, f"first seed (default {DEFAULT_BASE_SEED})"),
    Setting("particles", int, "n_particles", "population size (default {default})"),
    Setting("iterations", int, "max_iterations", "iteration budget (default {default})"),
    Setting("init-vorticity", float, "initial_vorticity", "initial vorticity (default {default})"),
    Setting("max-vorticity", float, "max_vorticity",
            "vorticity limit v; vorticity is clamped to [-v, v] (default {default})"),
    Setting("elimination", int, "elimination_threshold", "respawn all normal particles when "
            "their count is at or below this (default: the population size)"),
    Setting("target-fitness", float, "target_fitness",
            "stop a run early once the best reaches this value"),
    Setting("jobs", int, None, "parallel runs, at least 1 (default: usable CPUs)"),
    Setting("out", str, None, f"output directory (default: {DEFAULT_OUT_DIR})"),
    Setting("trace-dir", str, None, "also write per-run convergence traces here"),
)}


def load_config_file(path) -> dict:
    """Parse a flat key=value settings file into ``{flag: value}``; rejects a file that
    is not UTF-8, naming it, and unknown or repeated keys and bad values, naming the line."""
    options, seen = {}, {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in RUN_SETTINGS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"{path}:{lineno}: repeated key {key!r} (first on line {seen[key]})")
        seen[key] = lineno
        setting = RUN_SETTINGS[key]
        parts = value.split(",") if setting.repeat else [value]
        parts = [p.strip() for p in parts if p.strip()]
        if not parts:
            raise ValueError(f"{path}:{lineno}: empty value for {key!r}")
        try:
            values = [setting.parse(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
        options[key] = values if setting.repeat else values[0]
    return options


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexopt",
        description="Vortex optimization benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment plan")
    for s in RUN_SETTINGS.values():
        default = getattr(_DEFAULT, s.field) if s.field else None
        run_p.add_argument(f"--{s.flag}", action="append" if s.repeat else "store",
                           type=s.parse, help=s.help.format(default=default))
    run_p.add_argument("--config", help="settings file merged below CLI flags")

    check_p = sub.add_parser("check", help="judge the plan in summary.json by the reference table")
    check_p.add_argument("--out", default=DEFAULT_OUT_DIR, help="directory containing runs.csv "
                         f"and summary.json (default: {DEFAULT_OUT_DIR})")

    sub.add_parser("list", help="print the benchmark registry")
    return parser


def plan_from_args(ns) -> tuple:
    """Build (plan, jobs) from parsed run-subcommand arguments."""
    file_options = load_config_file(ns.config) if ns.config else {}
    values = {}
    for flag in RUN_SETTINGS:
        value = getattr(ns, flag.replace("-", "_"))
        values[flag] = file_options.get(flag) if value is None else value
    overrides = {s.field: values[s.flag] for s in RUN_SETTINGS.values()
                 if s.field is not None and values[s.flag] is not None}
    plan = make_plan(
        functions=values["function"],
        dims=values["dim"],
        seed_count=values["seeds"],
        base_seed=values["base-seed"],
        config_overrides=overrides,
        out_dir=values["out"],
        trace_dir=values["trace-dir"],
    )
    return plan, values["jobs"]


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
