"""Vortex Optimization Algorithm (VOA): a swarm-based single-objective
minimizer, a seven-function benchmark suite, and a reproducible experiment
harness with a CLI.
"""

from .core import Objective, RandomSource, VoaConfig
from .engine import RunReport, RunTrace, run
from .benchmarks import benchmark_names, get_objective, get_spec
from .harness import (
    ExperimentPlan,
    SummaryRow,
    evaluate_checks,
    execute_plan,
    make_plan,
    summarize,
    write_reports,
)

__version__ = "0.1.0"

__all__ = [
    "Objective",
    "RandomSource",
    "VoaConfig",
    "RunReport",
    "RunTrace",
    "run",
    "benchmark_names",
    "get_objective",
    "get_spec",
    "ExperimentPlan",
    "SummaryRow",
    "evaluate_checks",
    "execute_plan",
    "make_plan",
    "summarize",
    "write_reports",
    "__version__",
]
