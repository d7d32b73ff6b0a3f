"""The benchmark's modules, loaded unedited from perfbench/, run on small
inputs: the tracer (tracing.py) on a short traced run, and the plan and
output check (plans.py) on a short pooled plan. A change to the package that
breaks the benchmark, or its `correct` gate, fails here first."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np

from vortexopt import VoaConfig, cli, core, engine, get_objective, harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
plans = _load("plans")

PATCHED = (engine, harness, cli, core.RandomSource, core.Objective)


def test_traced_run_counts_the_stream_layout_and_restores():
    config = VoaConfig(seed=3, max_iterations=5)
    objective = get_objective("booth", 2)
    before = [dict(vars(owner)) for owner in PATCHED]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced = engine.run(config, objective)
    finally:
        tracer.restore()

    assert tracer.counts["expected.draws"] > 0
    assert tracer.counts["core.rng.draws"] == tracer.counts["expected.draws"]
    calls = tracing.span_stats(tracer.arrays())["by_name"]
    assert calls["engine.advance"]["calls"] == calls["engine.move"]["calls"] == 5
    for owner, attrs in zip(PATCHED, before):
        after = vars(owner)
        assert after.keys() == attrs.keys()
        assert all(after[name] is value for name, value in attrs.items()), owner
    plain = engine.run(config, objective)
    assert traced.best_fitness == plain.best_fitness
    assert np.array_equal(traced.best_position, plain.best_position)


def test_pooled_plan_passes_the_benchmark_output_check(tmp_path):
    workload = dataclasses.replace(plans.WORKLOADS["plan-2d"], cells=(("booth", 2),))
    seeds = (1, 2)
    plan, jobs = plans.build_plan(workload, seeds, tmp_path / "out", 2)
    assert jobs == 2
    reports = plans.run_pipeline(plan, jobs)
    errors = [f"{r.function},{r.dimension},{r.seed}" for r in reports if r.error]
    assert plans.failed_keys(plans.load_reference()["plan-2d"],
                             plans.expected_keys(workload, seeds),
                             plan.out_dir / "runs.csv", errors) == set()
