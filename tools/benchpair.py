"""Run the benchmark on two revisions in alternating pairs.

    python tools/benchpair.py REV_A REV_B --workload plan-2d [--seed 1] [--pairs 10]
                              [--out FILE]

Each revision's tree comes from ``git archive`` into a directory of its own,
and ``perfbench/run.py --trace 0`` runs there in a fresh interpreter, as it
would in a clean checkout, for ``BENCHMARK.json``'s ``run_seconds``. Pair
``i`` (from 1) runs REV_A first when ``i`` is odd and REV_B first when it is
even. For every end-to-end metric in ``BENCHMARK.json`` it prints each side's
median, the distance between the quartiles of REV_A's runs, and how many
pairs REV_B won in the metric's better direction (ties count for neither).
``--out`` adds the comparison, with both sides' quartiles and every run's
provenance and result lines as printed, to a JSON file, replacing an earlier
one of the same commits, workload and seed. A run that exits non-zero (it
errored or was not correct) stops the tool with that run's revision, pair
and status, and nothing is written.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import gittree


def bench(tree: Path, workload: str, seed: int, seconds: float, where: str) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its provenance and result lines.

    Its standard error goes to the terminal; if it exits non-zero, so does
    this tool, naming ``where`` (the revision and pair) and the status."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"benchpair: perfbench/run.py exited with status {proc.returncode} "
                 f"on {where}; nothing was written")
    provenance, result = proc.stdout.strip().splitlines()[-2:]
    return {"provenance": provenance, "result": result}


def quartiles(values) -> list:
    """First quartile, median and third quartile, as perfbench's README takes them."""
    if len(values) == 1:
        return values * 3
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, statistics.median(values), q3]


def summarize(pairs, metrics) -> dict:
    """Per metric: each side's quartiles, REV_A's quartile distance and the
    pairs REV_B won."""
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = [[json.loads(run["result"])["metrics"][name]["value"] for run in pair]
                  for pair in pairs]
        a, b = [v[0] for v in values], [v[1] for v in values]
        qa = quartiles(a)
        out[name] = {"a": qa, "b": quartiles(b), "a_iqr": qa[2] - qa[0],
                     "b_wins": sum((y < x) if lower else (y > x) for x, y in zip(a, b))}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("revs", nargs=2, metavar="REV", help="REV_A and REV_B, any git revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1, help="perfbench input seed (default 1)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs (default 10)")
    parser.add_argument("--out", type=Path, help="JSON file to add the comparison to")
    ns = parser.parse_args(argv)
    if ns.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {ns.pairs}")
    benchmark = json.loads((gittree.ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    a, b = gittree.commits(ns.revs)
    pairs = []
    with tempfile.TemporaryDirectory() as work:
        # One tree per side, so that REV REV is an A/A control on two copies.
        trees = {side: gittree.extract(commit, Path(work) / side)
                 for side, commit in (("A", a), ("B", b))}
        names = {"A": f"REV_A {ns.revs[0]} ({a[:7]})", "B": f"REV_B {ns.revs[1]} ({b[:7]})"}
        for i in range(1, ns.pairs + 1):
            order = "AB" if i % 2 else "BA"
            runs = {side: bench(trees[side], ns.workload, ns.seed, seconds,
                                f"{names[side]} in pair {i}") for side in order}
            pairs.append([runs["A"], runs["B"]])
            print(f"pair {i} of {ns.pairs} done", file=sys.stderr)
    summary = summarize(pairs, benchmark["end_to_end"])
    print(f"{ns.workload} seed {ns.seed}, {ns.pairs} pairs of {seconds:g} s runs; "
          f"A={ns.revs[0]} ({a[:7]}), B={ns.revs[1]} ({b[:7]})")
    for name, s in summary.items():
        print(f"{name:<12} A {s['a'][1]:.4g} (IQR {s['a_iqr']:.3g})  "
              f"B {s['b'][1]:.4g}  B better in {s['b_wins']}/{ns.pairs}")
    if ns.out is not None:
        gittree.add_comparison(ns.out, {
            "a": a, "b": b, "a_rev": ns.revs[0], "b_rev": ns.revs[1],
            "workload": ns.workload, "seed": ns.seed, "seconds": seconds,
            "pairs": ns.pairs, "order": "A first in odd pairs", "summary": summary,
            "runs": pairs}, key=("a", "b", "workload", "seed"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
