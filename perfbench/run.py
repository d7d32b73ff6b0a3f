"""vortexopt benchmark runner.

    python3 perfbench/run.py --workload plan-2d --seed 1 --seconds 60 --trace 0

Runs one workload for about ``--seconds`` seconds and prints, as the last
line of standard output, one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it is the
provenance (commit, Python, numpy, CPU set and model, load average).

``--trace 0`` reports the end-to-end metrics. The plan is run repeatedly,
each repetition in a fresh interpreter with a process pool of one worker
per usable CPU, until the next repetition would overrun ``--seconds`` (at
least ``MIN_REPS``); each metric is the median over the repetitions.
Set-up time is the median of probes, fresh interpreters that import
vortexopt and build the plan: one before each repetition, at least
``SETUP_PROBES``.

``--trace 1`` reports the per-layer metrics: one traced in-process run
(jobs=1) with every layer wrapped, the same plan unwrapped for the tracing
overhead, and one untraced pooled repetition for the pool's busy fraction.

Every run's runs.csv row, wall time aside, must match the digest recorded in
reference.json; a run that errors, is missing or differs counts as failed
and the runner exits with status 1. Without the package source next to this
directory it exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import plans

CHILD = plans.HERE / "child.py"
WORK = plans.HERE / ".work"
SETUP_PROBES = 5
MIN_REPS = 3
CHILD_TIMEOUT_S = 170


def _spawn(args, deadline):
    """Run child.py with ``args``; return (spawn time, parsed JSON result).

    The child gets its own session so that, on a timeout, the whole group
    (its pool workers included) is killed and reaped.
    """
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(CHILD), *map(str, args)],
                            stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"child {args[0]} timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited with status {proc.returncode}")
    return started, json.loads(out.strip().splitlines()[-1])


def _csv(seeds) -> str:
    return ",".join(map(str, seeds))


def _commit():
    """HEAD's commit, read from .git without leaving the checkout; None outside git."""
    git = plans.ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text(encoding="utf-8").strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _provenance(jobs) -> dict:
    src = hashlib.sha256()
    for path in sorted((plans.SRC / "vortexopt").rglob("*.py")):
        src.update(path.relative_to(plans.SRC).as_posix().encode())
        src.update(path.read_bytes())
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "commit": _commit(),  # src_sha256 identifies the code outside git
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "cpu_set": sorted(os.sched_getaffinity(0)),
        "jobs": jobs,
        "cpu_model": model or platform.processor(),
        "loadavg": os.getloadavg(),
    }


class Check:
    """Accumulates attempted and failed runs against the recorded digests."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = plans.load_reference().get(workload.name, {})
        self.attempted = 0
        self.failed = []

    def runs(self, seeds, runs_csv, errors) -> None:
        expected = plans.expected_keys(self.workload, seeds)
        self.attempted += len(expected)
        self.failed += sorted(plans.failed_keys(self.reference, expected, runs_csv, errors))


def _end_to_end(workload, seed, seconds, jobs, check, deadline) -> dict:
    start = time.monotonic()
    setups, reps, lengths = [], [], []

    def probe(seeds):
        spawned, res = _spawn(["probe", "--workload", workload.name, "--seeds", _csv(seeds),
                               "--out", WORK / "probe", "--jobs", jobs], deadline)
        setups.append(res["monotonic_ready"] - spawned)

    # Set-up probes are spread over the run, one before each repetition, so
    # that their median is not taken from a single stretch of machine load.
    while True:
        rep_start = time.monotonic()
        seeds = workload.block_seeds(seed, len(reps))
        probe(seeds)
        out = WORK / f"rep{len(reps)}"
        _, res = _spawn(["rep", "--workload", workload.name, "--seeds", _csv(seeds),
                         "--out", out, "--jobs", jobs], deadline)
        check.runs(seeds, out / "runs.csv", res["errors"])
        res["evals_per_s"] = plans.evaluations(out / "runs.csv") / res["wall_s"]
        shutil.rmtree(out)
        reps.append(res)
        lengths.append(time.monotonic() - rep_start)
        print(f"rep {len(reps)}: seeds {_csv(seeds)} "
              f"wall {res['wall_s']:.3f}s cpu {res['cpu_s']:.3f}s", file=sys.stderr)
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed + statistics.median(lengths) > seconds:
            break
    while len(setups) < SETUP_PROBES:
        probe(workload.block_seeds(seed, len(setups)))

    def med(key):
        return statistics.median(r[key] for r in reps)

    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (med("wall_s"), "s"),
        "evals_per_s": (med("evals_per_s"), "evals/s"),
        "cpu_s": (med("cpu_s"), "s"),
        "peak_rss_mb": (med("peak_rss_kb") / 1024.0, "MB"),
    }


def _per_layer(workload, seed, jobs, check, deadline) -> tuple:
    seeds = workload.block_seeds(seed, 0)
    traced = seeds[:workload.trace_seeds]
    out = WORK / "trace"
    _, res = _spawn(["trace", "--workload", workload.name, "--seeds", _csv(traced),
                     "--out", out], deadline)
    check.runs(traced, out / "traced" / "runs.csv", res["errors"])
    check.runs(traced, out / "untraced" / "runs.csv", ())
    metrics = res.pop("metrics")

    pooled = WORK / "pooled"
    _, rep = _spawn(["rep", "--workload", workload.name, "--seeds", _csv(seeds),
                     "--out", pooled, "--jobs", jobs], deadline)
    check.runs(seeds, pooled / "runs.csv", rep["errors"])
    metrics["harness.pool.busy_frac"] = (rep["worker_cpu_s"] / (jobs * rep["wall_s"]),
                                         "ratio")

    problems = []
    if res["min_self_s"] < 0:
        problems.append(f"negative self time {res['min_self_s']} s")
    if res["draws"] != res["expected_draws"]:
        problems.append(f"RNG draws {res['draws']} != stream layout {res['expected_draws']}")
    print(f"trace: {res['spans']} spans, traced {res['traced_wall_s']:.3f}s, "
          f"untraced {res['untraced_wall_s']:.3f}s, spans in {out / 'spans.npz'}",
          file=sys.stderr)
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one vortexopt benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(plans.WORKLOADS))
    parser.add_argument("--seed", type=int, default=plans.DEFAULT_SEED,
                        help=f"input seed, >= 0 (default {plans.DEFAULT_SEED}; "
                             f"held out for confirming claims: {plans.HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=60.0,
                        help="measurement time for --trace 0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (plans.SRC / "vortexopt" / "__init__.py").is_file():
        print(f"error: package source not found under {plans.SRC}", file=sys.stderr)
        return 2

    workload = plans.WORKLOADS[args.workload]
    jobs = len(os.sched_getaffinity(0))
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    print(json.dumps({"provenance": _provenance(jobs)}))
    shutil.rmtree(WORK, ignore_errors=True)
    check = Check(workload)
    try:
        if args.trace:
            metrics, problems = _per_layer(workload, args.seed, jobs, check, deadline)
        else:
            metrics = _end_to_end(workload, args.seed, args.seconds, jobs, check, deadline)
            problems = []
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for key in check.failed:
        problems.append(f"run {key} errored, is missing or differs from the reference")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": check.attempted,
        "failed": len(check.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
