"""Vortex Optimization Algorithm (VOA): a swarm-based single-objective
minimizer, a seven-function benchmark suite, and a reproducible experiment
harness with a CLI.
"""

from .core import (
    Objective,
    RandomSource,
    SwarmState,
    VoaConfig,
)
from .engine import (
    RunReport,
    RunTrace,
    advance_iteration,
    eliminate_and_respawn,
    initialize_swarm,
    mark_vortices,
    move_toward_best,
    refresh_fitness_and_best,
    run,
    vorticity_decay,
    vorticity_kick,
    vorticity_pull,
)
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
    "SwarmState",
    "VoaConfig",
    "RunReport",
    "RunTrace",
    "advance_iteration",
    "eliminate_and_respawn",
    "initialize_swarm",
    "mark_vortices",
    "move_toward_best",
    "refresh_fitness_and_best",
    "run",
    "vorticity_decay",
    "vorticity_kick",
    "vorticity_pull",
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
