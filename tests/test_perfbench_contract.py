"""The benchmark's tracer (perfbench/tracing.py) wraps the package from
outside; these tests run it on a short traced run, so a change to the
package that breaks the traced benchmark fails here first."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from vortexopt import VoaConfig, cli, core, engine, get_objective, harness

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

PATCHED = (engine, harness, cli, core.RandomSource, core.Objective)


@pytest.mark.parametrize("per_coordinate_draws", [True, False])
def test_traced_run_counts_the_stream_layout_and_restores(per_coordinate_draws):
    config = VoaConfig(seed=3, max_iterations=5, per_coordinate_draws=per_coordinate_draws)
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
