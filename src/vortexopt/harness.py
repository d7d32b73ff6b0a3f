"""Experiment harness: plans, parallel execution, summaries, and CSV reports.

A plan is a (function, dimension, seed) grid plus one shared configuration.
Execution runs every cell, in parallel across runs when asked to, and always
yields the same reports in the same order regardless of scheduling. Reports
are written as CSV with fixed numeric formatting so identical plans produce
byte-identical files (wall time aside).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

import numpy as np

from .benchmarks import benchmark_names, get_objective, get_spec
from .core import VoaConfig, as_distinct, as_integer, as_seed
from .engine import RunReport, RunTrace, run

__all__ = [
    "ExperimentPlan",
    "SummaryRow",
    "REFERENCE_RESULTS",
    "make_plan",
    "execute_plan",
    "succeeded",
    "summarize",
    "summary_grid",
    "write_reports",
    "write_trace",
    "read_runs_csv",
    "read_plan",
    "evaluate_checks",
    "RUNS_HEADER",
    "TRACE_HEADER",
]


def _sci(value) -> str:
    return format(float(value), ".5e")


# runs.csv, declared once: each column in order is the RunReport field of its
# name, with the function that writes the field and the one that parses it back.
_RUNS_COLUMNS = {
    "function": (str, str),
    "dimension": (str, int),
    "seed": (str, int),
    "best_fitness": (_sci, float),
    "evaluations": (str, int),
    "iterations": (str, int),
    "wall_time_ms": ("{:.3f}".format, float),
    "best_position": (lambda p: ";".join(repr(float(x)) for x in np.asarray(p).ravel()),
                      lambda text: np.array([float(x) for x in text.split(";")] if text else [])),
}
RUNS_HEADER = ",".join(_RUNS_COLUMNS)
TRACE_HEADER = ",".join(["iteration", *(f.name for f in fields(RunTrace))])

DEFAULT_SEED_COUNT = 20
DEFAULT_BASE_SEED = 1
DEFAULT_OUT_DIR = "results"

# Published single-number results, keyed by (function, dimension), with the
# tolerance rule `check` applies to each: (reference value, rule, tolerance).
# "max" passes when the median best is at or below the tolerance; "near"
# passes when it lies within the tolerance of the reference value. The keys
# are the reported grid: the default plan's cells, in order; their dimensions,
# in table order, are the summary's first columns.
REFERENCE_RESULTS = {
    ("booth", 2): (0.0, "max", 1e-4),
    ("beale", 2): (0.0, "max", 1e-4),
    ("goldstein_price", 2): (3.0, "near", 1e-3),
    ("mccormick", 2): (-1.9133, "near", 1e-3),
    ("three_hump_camel", 2): (0.0, "max", 1e-4),
    ("sphere", 2): (0.0, "max", 1e-4),
    ("sphere", 5): (0.0, "max", 1e-4),
    ("sphere", 10): (0.0, "max", 1e-4),
    ("sphere", 20): (0.0, "max", 1e-4),
    ("sphere", 30): (0.0, "max", 1e-4),
    ("rosenbrock", 2): (0.0, "max", 1e-3),
    ("rosenbrock", 5): (0.0, "max", 1e-3),
    ("rosenbrock", 10): (0.0002, "max", 1e-2),
    ("rosenbrock", 20): (0.0027, "max", 5e-2),
    ("rosenbrock", 30): (0.0023, "max", 5e-2),
}
GRID_DIMENSIONS = tuple(dict.fromkeys(d for _, d in REFERENCE_RESULTS))
_SETTABLE = tuple(f.name for f in fields(VoaConfig) if f.init)  # what a plan's config may set


@dataclass(frozen=True)
class ExperimentPlan:
    """A grid of runs plus the configuration they share, checked and normalized however
    it is built (directly, by ``make_plan`` or by ``replace``): a bad field raises ValueError
    naming it. ``as_distinct`` reads ``seeds`` and each function's dimensions into tuples of
    ``int``, held in plan order by a read-only ``dimensions``; the paths become ``Path``s.
    """

    dimensions: Mapping
    seeds: tuple
    config: VoaConfig
    out_dir: Path
    trace_dir: Optional[Path] = None

    def __post_init__(self):
        if not isinstance(self.dimensions, Mapping) or not self.dimensions:
            raise ValueError("plan selects no benchmark functions: dimensions must be a "
                             f"non-empty mapping, got {self.dimensions!r}")
        if not isinstance(self.config, VoaConfig):
            raise ValueError(f"config must be a VoaConfig, got {self.config!r}")
        object.__setattr__(self, "seeds", as_distinct("seeds", self.seeds, as_seed))
        object.__setattr__(self, "dimensions", MappingProxyType({
            name: as_distinct(f"dimensions of {name!r}", dims,
                              lambda _, d: get_spec(name).check_dimension(d))
            for name, dims in self.dimensions.items()}))
        for name, path in (("out_dir", self.out_dir), ("trace_dir", self.trace_dir)):
            if path is not None or name == "out_dir":
                if not isinstance(path, (str, os.PathLike)) or not os.fspath(path):
                    raise ValueError(f"{name} must be a non-empty path, got {path!r}")
                object.__setattr__(self, name, Path(path))

    def cells(self) -> list:
        return [(f, d) for f, dims in self.dimensions.items() for d in dims]

    @property
    def n_runs(self) -> int:
        return len(self.cells()) * len(self.seeds)


def make_plan(functions=None, dims=None, seed_count=None, base_seed=None,
              config_overrides=None, out_dir=None, trace_dir=None) -> ExperimentPlan:
    """Assemble a plan, filling anything unspecified with the defaults.

    With no arguments this is the full reporting grid: every registry function
    at its ``REFERENCE_RESULTS`` cells in table order, 20 consecutive seeds
    starting at 1, standard configuration, reports in ``DEFAULT_OUT_DIR``.
    ``functions`` and ``dims`` are read by ``as_distinct``; ``dims`` is shared out:
    each function runs the listed dimensions it supports. A function that supports
    none of them, or a listed dimension that none supports, raises the registry's
    ``check_dimension`` error. ``ExperimentPlan`` checks the rest.
    """
    specs = as_distinct("functions", benchmark_names() if functions is None else functions,
                        lambda _, name: get_spec(name))
    if dims is not None:
        dims = as_distinct("dims", dims, as_integer)
        dimensions = {s.name: tuple(d for d in dims if s.supports(d)) for s in specs}
        for spec in specs:
            if not dimensions[spec.name]:
                spec.check_dimension(dims[0])
        for d in dims:
            if not any(spec.supports(d) for spec in specs):
                specs[0].check_dimension(d)
    else:
        dimensions = {s.name: tuple(d for f, d in REFERENCE_RESULTS if f == s.name) for s in specs}
    base = as_integer("base_seed", DEFAULT_BASE_SEED if base_seed is None else base_seed)
    count = as_integer("seed_count", DEFAULT_SEED_COUNT if seed_count is None else seed_count)
    overrides = {} if config_overrides is None else config_overrides
    if not isinstance(overrides, Mapping):
        raise ValueError(f"config_overrides must be a mapping, got {overrides!r}")
    unknown = ", ".join(str(key) for key in overrides if key not in _SETTABLE)
    if unknown:
        raise ValueError(f"config_overrides cannot set {unknown}: no such VoaConfig field")
    return ExperimentPlan(
        dimensions=dimensions,
        seeds=tuple(range(base, base + count)),
        config=VoaConfig(**overrides),
        out_dir=DEFAULT_OUT_DIR if out_dir is None else out_dir,
        trace_dir=trace_dir,
    )


def _run_cell(task) -> RunReport:
    """Run one cell; write its trace file when ``trace_dir`` is set, and
    return the report without its trace, so no trace crosses the pool."""
    name, dimension, seed, config, trace_dir = task
    try:
        report = run(config, get_objective(name, dimension), seed)
    except Exception as exc:  # a broken run must not abort its siblings
        return RunReport(function=name, dimension=dimension, seed=seed, config=config,
                         error=f"{type(exc).__name__}: {exc}")
    # Outside the try: a failed write is an I/O fault, not a failed run.
    if trace_dir is not None:
        write_trace(report, trace_dir)
    return replace(report, trace=None)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity set), else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def execute_plan(plan: ExperimentPlan, jobs=None, progress=None) -> list:
    """Run every (function, dimension, seed) cell of the plan.

    ``jobs`` (default: the usable CPU count) caps the worker processes; the
    plan gets ``min(jobs, runs)`` of them, so no worker sits idle. One worker
    runs the plan in this process. Each run owns its full state and random
    stream, so results and their order do not depend on scheduling. ``jobs``
    below 1 or not an integer raises ValueError before any run starts.
    ``progress`` is called with each finished report in plan order.

    The plan's output directory, and its trace directory when set, are
    created before the first run, so a path that cannot be a directory
    fails (OSError) before any run starts. The reports carry no trace:
    each run's trace file is written by the process that ran it, as the
    run ends, and a failed write propagates rather than failing the run.
    """
    jobs = _usable_cpus() if jobs is None else as_integer("jobs", jobs, minimum=1)
    for directory in (plan.out_dir, plan.trace_dir):
        if directory is not None:
            directory.mkdir(parents=True, exist_ok=True)
    tasks = [(name, dim, seed, plan.config, plan.trace_dir)
             for name, dim in plan.cells() for seed in plan.seeds]
    workers = min(jobs, len(tasks))
    pool = contextlib.nullcontext() if workers == 1 else ProcessPoolExecutor(max_workers=workers)
    reports = []
    with pool:
        for report in (map if workers == 1 else pool.map)(_run_cell, tasks):
            if progress is not None:
                progress(report)
            reports.append(report)
    return reports


@dataclass(frozen=True)
class SummaryRow:
    """Per (function, dimension) statistics over the seeds that ran."""

    function: str
    dimension: int
    n_seeds: int
    best: float
    median: float
    mean: float
    stddev: float
    reference_value: Optional[float] = None


def succeeded(report: RunReport) -> bool:
    """Whether a run counts in its cell's statistics: no error and a finite best."""
    return report.error is None and bool(np.isfinite(report.best_fitness))


def summarize(reports: Iterable[RunReport]) -> list:
    """Group reports by cell and reduce the per-seed bests to statistics.

    Error reports are excluded from the statistics; a cell with no successful
    runs is dropped entirely.
    """
    groups = {}
    for report in reports:
        bests = groups.setdefault((report.function, report.dimension), [])
        if succeeded(report):
            bests.append(report.best_fitness)
    rows = []
    for key, bests in groups.items():
        if not bests:
            continue
        arr = np.asarray(bests, dtype=np.float64)
        rows.append(SummaryRow(
            function=key[0],
            dimension=key[1],
            n_seeds=len(bests),
            best=float(arr.min()),
            median=float(np.median(arr)),
            mean=float(arr.mean()),
            stddev=float(arr.std()),
            reference_value=REFERENCE_RESULTS[key][0] if key in REFERENCE_RESULTS else None,
        ))
    return rows


def summary_grid(summaries) -> tuple:
    """The rows and columns of the summary grid, for every renderer of it.

    Returns ``(dimensions, rows)``: one column per dimension, the grid's
    first, then every other dimension among the summaries in ascending order;
    and one ``(function, medians)`` row per registry function in registry
    order, where a median is None for a cell that is not applicable to the
    function or was not part of the plan.
    """
    medians = {(s.function, s.dimension): s.median for s in summaries}
    dims = GRID_DIMENSIONS + tuple(sorted({d for _, d in medians} - set(GRID_DIMENSIONS)))
    rows = [(name, [medians.get((name, d)) for d in dims]) for name in benchmark_names()]
    return dims, rows


def _write_csv(path: Path, header: str, rows) -> Path:
    """Write ``header``, then each row through ``csv.writer``, one line each; a row
    holding a CR, which the writer does not quote before an LF terminator, is quoted whole."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        minimal = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        for row in rows:
            (quoted if "\r" in "".join(row) else minimal).writerow(row)
    return path


def write_reports(reports, summaries, plan: ExperimentPlan) -> dict:
    """Write runs.csv, the summary grid and a JSON summary.

    runs.csv's cells are written by ``_RUNS_COLUMNS``, the summary grid is
    ``summary_grid``'s with ``NA`` for its empty cells; fixed number formats
    make identical plans write identical bytes (wall time aside). Trace files
    are written not here but by ``execute_plan`` as each run ends.
    """
    out_dir = plan.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    runs_path = _write_csv(out_dir / "runs.csv", RUNS_HEADER, (
        [write(getattr(r, column)) for column, (write, _) in _RUNS_COLUMNS.items()]
        for r in reports))
    dims, grid = summary_grid(summaries)
    header = "function," + ",".join(f"d{d}" for d in dims)
    summary_path = _write_csv(out_dir / "summary.csv", header, (
        [name, *("NA" if m is None else _sci(m) for m in medians)] for name, medians in grid))

    payload = {  # the plan, as read_plan reads it; cells in a list keep plan order
        "cells": plan.cells(),
        "config": plan.config.resolved(),
        "seeds": list(plan.seeds),
        "rows": [asdict(s) for s in summaries],
    }
    json_path = out_dir / "summary.json"
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                         encoding="utf-8")

    return {
        "runs": runs_path,
        "summary": summary_path,
        "summary_json": json_path,
    }


def read_plan(path) -> ExperimentPlan:
    """Rebuild the plan ``write_reports`` recorded in ``summary.json`` through ``VoaConfig``
    and ``ExperimentPlan``, with the file's directory as ``out_dir``. A missing file,
    invalid JSON, a missing or bad entry, a config other than the one ``write_reports``
    writes for the plan, or cells in an order no plan holds raises one ValueError
    naming the file."""
    path = Path(path)
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
        cells = record["cells"] if isinstance(record, dict) else None
        if not (isinstance(cells, list) and isinstance(record["config"], dict) and all(
                isinstance(c, list) and len(c) == 2 and isinstance(c[0], str) for c in cells)):
            raise ValueError("needs a config object and cells, a list of [function, dimension]")
        dimensions = {f: [d for g, d in cells if g == f] for f, _ in cells}
        plan = ExperimentPlan(dimensions, record["seeds"], out_dir=path.parent, config=VoaConfig(
            **{name: record["config"][name] for name in _SETTABLE}))
        # As JSON text, so 7 and 7.0, or 1 and true, differ as the bytes run writes do.
        got, want = ({key: json.dumps(value) for key, value in config.items()}
                     for config in (record["config"], plan.config.resolved()))
        if wrong := [f"{key}={got.get(key, 'missing')}" for key in {**got, **want}
                     if got.get(key) != want.get(key)]:
            raise ValueError(f"config {', '.join(wrong)} is not what run writes")
        if plan.cells() != [tuple(c) for c in cells]:  # grouping by function reordered them
            raise ValueError("cells must list each function's dimensions together, as run "
                             "writes them")
        return plan
    except FileNotFoundError:
        raise ValueError(f"{path} not found; run `vortexopt run` first") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    except KeyError as exc:
        raise ValueError(f"{path}: no {exc} entry") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_trace(report: RunReport, trace_dir) -> Path:
    """Write the report's trace to ``<function>_d<dim>_s<seed>.csv`` in
    ``trace_dir``, which must exist, and return the file's path.

    One ``TRACE_HEADER`` row, then one row per trace row: the iteration,
    then each ``RunTrace`` field, reals in fixed scientific notation.
    """
    trace = report.trace
    columns = [trace.iteration, *(getattr(trace, f.name) for f in fields(trace))]
    rows = zip(*(map(_sci, col.tolist()) if col.dtype.kind == "f"
                 else map(str, col.astype(np.int64).tolist()) for col in columns))
    path = Path(trace_dir) / f"{report.function}_d{report.dimension}_s{report.seed}.csv"
    return _write_csv(path, TRACE_HEADER, rows)


def read_runs_csv(path) -> list:
    """Load per-run reports back from runs.csv through ``_RUNS_COLUMNS`` (config and
    trace omitted); bad input (no such file, not UTF-8, a missing or repeated column,
    a row whose cell count differs from the header's, a cell that does not parse, a
    csv error, a repeated (function, dimension, seed) run) fails naming the file."""
    path = Path(path)
    try:  # not read_text: its newline translation would turn a quoted CR into LF
        text = path.read_bytes().decode("utf-8")
    except FileNotFoundError:
        raise ValueError(f"{path} not found; run `vortexopt run` first") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    # A best_position cell grows with the dimension, past the csv module's default
    # field limit; no cell is longer than the file. The limit is restored after.
    limit = csv.field_size_limit(max(len(text), csv.field_size_limit()))
    try:
        lines = [(reader.line_num, cells) for cells in reader]
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    finally:
        csv.field_size_limit(limit)
    header = lines[0][1] if lines else []
    missing = [c for c in _RUNS_COLUMNS if c not in header]
    if missing:
        raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
    repeated = [c for c in dict.fromkeys(header) if header.count(c) > 1]
    if repeated:
        raise ValueError(f"{path}: repeated column(s) {', '.join(repeated)}")
    reports, first = [], {}
    for line, cells in lines[1:]:
        if not cells:  # a blank line
            continue
        if len(cells) != len(header):
            raise ValueError(f"{path}:{line}: {len(cells)} cells, but the header "
                             f"has {len(header)}")
        row = dict(zip(header, cells))
        values = {}
        for column, (_, parse) in _RUNS_COLUMNS.items():
            try:
                values[column] = parse(row[column])
            except ValueError:
                raise ValueError(f"{path}:{line}: column {column}: cannot "
                                 f"read {row[column]!r}") from None
        key = (values["function"], values["dimension"], values["seed"])
        if key in first:
            raise ValueError(f"{path}:{line}: repeated run {key[0]} d={key[1]} "
                             f"seed={key[2]} (first on line {first[key]})")
        first[key] = line
        reports.append(RunReport(**values))
    return reports


def evaluate_checks(summaries) -> list:
    """Compare cell medians against the reference table tolerances: one
    ``(row, rule, passed)`` per summary row that has a table cell, in order."""
    results = []
    for s in summaries:
        entry = REFERENCE_RESULTS.get((s.function, s.dimension))
        if entry is None:
            continue
        reference, rule, tol = entry
        if rule == "max":
            results.append((s, f"median <= {tol:g}", s.median <= tol))
        else:
            results.append((s, f"|median - {reference:g}| <= {tol:g}",
                            abs(s.median - reference) <= tol))
    return results
