"""Self-test of the benchmark; exits non-zero on the first failed check.

    python3 perfbench/selftest.py

1. A one-run plan (booth d=2, seed 1) passes the runs.csv check, and the
   same file with one perturbed row makes the runner's failed fraction
   non-zero.
2. A short run of the cheapest workload, untraced and traced, emits every
   metric BENCHMARK.json names, with its unit, and no failed run.
3. Without the package source next to it, the runner exits non-zero and
   prints no result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import plans
import run

WORKLOAD = "early-stop"  # shortest repetition
SCRATCH = plans.HERE / ".work" / "selftest"


def check(ok, message):
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok: {message}")


def perturbed_row_fails():
    tiny = dataclasses.replace(plans.WORKLOADS["plan-2d"], cells=(("booth", 2),))
    out = SCRATCH / "tiny"
    plan, jobs = plans.build_plan(tiny, (1,), out, 1)
    plans.run_pipeline(plan, jobs)
    runs_csv = out / "runs.csv"

    clean = run.Check(tiny)
    clean.runs((1,), runs_csv, ())
    check(clean.attempted == 1 and not clean.failed, "unchanged runs.csv passes the check")

    header, row, *rest = runs_csv.read_text(encoding="utf-8").splitlines()
    fields = row.split(",")
    fields[3] = "9.99999e-01"  # best_fitness
    bad_csv = out / "perturbed.csv"
    bad_csv.write_text("\n".join([header, ",".join(fields), *rest]) + "\n", encoding="utf-8")
    bad = run.Check(tiny)
    bad.runs((1,), bad_csv, ())
    check(len(bad.failed) / bad.attempted > 0, "a perturbed runs.csv row makes failed_frac > 0")

    wall_only = row.split(",")
    wall_only[6] = "0.001"  # wall_time_ms is not part of the result
    wall_csv = out / "wall.csv"
    wall_csv.write_text("\n".join([header, ",".join(wall_only), *rest]) + "\n", encoding="utf-8")
    wall = run.Check(tiny)
    wall.runs((1,), wall_csv, ())
    check(not wall.failed, "a changed wall_time_ms alone does not fail the check")


def metrics_emitted(spec):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run([sys.executable, str(plans.HERE / "run.py"), "--workload", WORKLOAD,
                               "--seed", str(plans.HELD_OUT_SEED), "--seconds", "1",
                               "--trace", str(trace)],
                              cwd=plans.ROOT, capture_output=True, text=True, timeout=180)
        check(proc.returncode == 0, f"--trace {trace} exits 0 ({proc.stderr[-500:]!r})")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
              f"--trace {trace} result has exactly the four keys")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
              f"--trace {trace} has no failed run")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        check(got == want, f"--trace {trace} emits every {key} metric with its unit")
        check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
              f"--trace {trace} values are numbers")


def fails_without_package():
    bare = SCRATCH / "bare"
    bare.mkdir(parents=True)
    shutil.copy(plans.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(plans.HERE, bare / plans.HERE.name, ignore=shutil.ignore_patterns(".work"))
    proc = subprocess.run([sys.executable, f"{plans.HERE.name}/run.py", "--workload", WORKLOAD,
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the package source the runner exits non-zero with no result")


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    spec = json.loads((plans.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    perturbed_row_fails()
    fails_without_package()
    metrics_emitted(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
