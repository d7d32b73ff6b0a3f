"""The benchmark pairing tool (``tools/benchpair.py``) and the git helpers it
shares with ``tools/abpair.py`` (``tools/gittree.py``)."""

import json

import benchpair
import gittree
import pytest


def test_pairs_below_1_exit_2_before_any_git_call(monkeypatch, capsys):
    def git(*args):
        raise AssertionError(f"git {' '.join(args)} called")

    monkeypatch.setattr(gittree, "git", git)
    with pytest.raises(SystemExit) as excinfo:
        benchpair.main(["HEAD", "HEAD", "--workload", "plan-2d", "--pairs", "0"])
    assert excinfo.value.code == 2
    assert "--pairs must be at least 1, got 0" in capsys.readouterr().err


def test_run_length_is_the_benchmarks_and_not_an_option(monkeypatch, tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        benchpair.main(["HEAD", "HEAD", "--workload", "plan-2d", "--seconds", "8"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --seconds 8" in capsys.readouterr().err

    lengths = []

    def bench(tree, workload, seed, seconds, where):
        lengths.append(seconds)
        return _run(peak_rss_mb=36.0, setup_s=1.0, wall_s=2.0, evals_per_s=3.0, cpu_s=4.0)

    monkeypatch.setattr(gittree, "commits", lambda revs: ["a" * 40, "b" * 40])
    monkeypatch.setattr(gittree, "extract", lambda commit, dest, *paths: dest)
    monkeypatch.setattr(benchpair, "bench", bench)
    out = tmp_path / "bench.json"
    assert benchpair.main(["A", "B", "--workload", "plan-2d", "--pairs", "2",
                           "--out", str(out)]) == 0
    run_seconds = json.loads((gittree.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert lengths == [run_seconds] * 4
    assert json.loads(out.read_text())["comparisons"][0]["seconds"] == run_seconds


def test_a_failing_run_stops_the_tool_naming_revision_pair_and_status(tmp_path, capfd):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\nprint('{\"provenance\": {}}')\nprint('half a result')\n"
        "print('run.py failed here', file=sys.stderr)\nsys.exit(3)\n")
    with pytest.raises(SystemExit) as excinfo:
        benchpair.bench(tmp_path, "plan-2d", 1, 60, "REV_B HEAD (abc1234) in pair 2")
    message = str(excinfo.value.code)
    assert "status 3" in message and "REV_B HEAD (abc1234) in pair 2" in message
    assert "run.py failed here" in capfd.readouterr().err


def test_a_run_that_exits_0_gives_its_last_two_lines(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\nprint('noise')\nprint('{\"provenance\": 1}')\nprint(sys.argv[1:])\n")
    run = benchpair.bench(tmp_path, "early-stop", 7, 60, "REV_A")
    assert run["provenance"] == '{"provenance": 1}'
    assert run["result"] == str(["--workload", "early-stop", "--seed", "7", "--seconds", "60",
                                 "--trace", "0"])


def test_add_comparison_replaces_only_a_match_on_every_key_field(tmp_path):
    out = tmp_path / "record.json"
    first = {"a": "x", "b": "y", "workload": "plan-2d", "seed": 1, "n": 1}
    other_seed = dict(first, seed=7)
    gittree.add_comparison(out, first, key=("a", "b", "workload", "seed"))
    gittree.add_comparison(out, other_seed, key=("a", "b", "workload", "seed"))
    again = dict(first, n=2)
    gittree.add_comparison(out, again, key=("a", "b", "workload", "seed"))
    assert json.loads(out.read_text())["comparisons"] == [other_seed, again]
    assert out.read_text().count("\n") == 4  # one comparison a line


def _run(**values):
    return {"provenance": "{}", "result": json.dumps(
        {"metrics": {k: {"value": v} for k, v in values.items()}})}


def test_wins_follow_each_metrics_direction_and_ties_count_for_neither():
    metrics = [{"name": "peak_rss_mb", "better": "lower"},
               {"name": "evals_per_s", "better": "higher"}]
    pairs = [[_run(peak_rss_mb=a, evals_per_s=c), _run(peak_rss_mb=b, evals_per_s=d)]
             for a, b, c, d in ((36.4, 35.4, 10, 11), (36.5, 36.5, 10, 9),
                                (36.3, 35.5, 10, 10), (36.2, 36.6, 10, 12))]
    summary = benchpair.summarize(pairs, metrics)
    assert summary["peak_rss_mb"]["b_wins"] == 2
    assert summary["evals_per_s"]["b_wins"] == 2
    assert summary["peak_rss_mb"]["b"][1] == pytest.approx(36.0)
    a = summary["peak_rss_mb"]["a"]
    assert a[0] <= a[1] <= a[2] and summary["peak_rss_mb"]["a_iqr"] == a[2] - a[0]
