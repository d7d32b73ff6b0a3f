"""Span tracing of vortexopt from outside the package.

`Tracer.patch` replaces a module or class attribute with a wrapper that
records one span (name, start, end, parent) per call. Spans live in four
int64 arrays in memory and are written out once, at the end of the traced
run. A span's self time is its duration minus the durations of its direct
children; the calls are single-threaded, so children nest inside parents.

`install` wraps the public boundaries of each layer. The engine's stage
functions are module globals looked up by `advance_iteration` and `run` on
every call, and the harness calls `run` through its own global, so replacing
those attributes catches every call without touching the package.
"""

from __future__ import annotations

import collections
import functools
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts = collections.Counter()
        self._stack = [-1]
        self._saved = []

    def _wrap(self, name, fn, count):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def patch(self, owner, attr, name, count=None):
        """Wrap ``owner.attr`` (a function or a property) in span name ``name``.

        ``count(counts, args, result)``, if given, adds to the tracer's counters.
        """
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        if isinstance(original, property):
            setattr(owner, attr, property(self._wrap(name, original.fget, count)))
        else:
            setattr(owner, attr, self._wrap(name, original, count))

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def save(self, path):
        np.savez(path, **self.arrays())


def span_stats(spans: dict) -> dict:
    """Per span name: call count, total and self seconds; plus root-span seconds."""
    names, name_id, parent = spans["names"], spans["name_id"], spans["parent"]
    dur = (spans["end_ns"] - spans["start_ns"]).astype(np.float64)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    self_ns = dur - child
    k = len(names)
    calls = np.bincount(name_id, minlength=k)
    total = np.bincount(name_id, weights=dur, minlength=k)
    own = np.bincount(name_id, weights=self_ns, minlength=k)
    stats = {str(n): {"calls": int(calls[i]), "total_s": total[i] / 1e9, "self_s": own[i] / 1e9}
             for i, n in enumerate(names)}
    return {
        "by_name": stats,
        "root_s": float(dur[~nested].sum()) / 1e9,
        "min_self_s": float(self_ns.min()) / 1e9 if self_ns.size else 0.0,
    }


# Counters. "expected.draws" rebuilds the RNG draw count from the frozen
# stream layout, independently of the draws counted at the generator.


def _draws(counts, _args, result):
    counts["core.rng.draws"] += len(result)


def _rows(counts, _args, result):
    counts["benchmarks.eval.rows"] += len(result)


def _init_draws(counts, args, _result):
    config, objective = args[0], args[1]
    counts["expected.draws"] += config.n_particles * objective.dimension + 1


def _decay_draws(counts, args, _result):
    # After marking, the record holder is always a vortex and does not decay.
    counts["expected.draws"] += int(args[0].is_vortex.sum()) - 1


def _advance_draws(counts, args, _result):
    state, config, objective = args[0], args[1], args[2]
    n = state.n_particles
    per_move = objective.dimension if config.per_coordinate_draws else 1
    counts["expected.draws"] += n + (n - 1) * per_move


def _respawn_draws(counts, args, triggered):
    if triggered:
        state, objective = args[0], args[2]
        respawned = int((~state.is_vortex).sum())
        counts["engine.respawned"] += respawned
        counts["expected.draws"] += respawned * objective.dimension


def install(tracer: Tracer):
    """Wrap every layer boundary the benchmark reports on."""
    from vortexopt import cli, core, engine, harness

    tracer.patch(cli, "parse_plan", "cli.parse_plan")
    tracer.patch(harness, "execute_plan", "harness.execute")
    tracer.patch(harness, "summarize", "harness.summarize")
    tracer.patch(harness, "evaluate_checks", "harness.evaluate_checks")
    tracer.patch(harness, "write_reports", "harness.write_reports")
    tracer.patch(harness, "run", "engine.run")
    tracer.patch(engine, "initialize_swarm", "engine.init", _init_draws)
    tracer.patch(engine, "advance_iteration", "engine.advance", _advance_draws)
    tracer.patch(engine, "mark_vortices", "engine.mark", _decay_draws)
    tracer.patch(engine, "vorticity_pull", "engine.pull")
    tracer.patch(engine, "vorticity_decay", "engine.decay")
    tracer.patch(engine, "move_toward_best", "engine.move")
    tracer.patch(engine, "refresh_fitness_and_best", "engine.refresh")
    tracer.patch(engine, "eliminate_and_respawn", "engine.eliminate", _respawn_draws)
    tracer.patch(core.RandomSource, "uniform_unit_batch", "core.rng", _draws)
    tracer.patch(core.Objective, "lower", "core.bounds")
    tracer.patch(core.Objective, "upper", "core.bounds")
    tracer.patch(core.Objective, "evaluate_rows", "benchmarks.eval", _rows)
