"""Golden report bytes: every file and stdout line a small CLI plan produces.

The plan is booth d=2 plus sphere d=2 and d=5, 2 seeds, 50 iterations, with
traces. Each output is pinned by its sha256: ``runs.csv`` without the
``wall_time_ms`` column, ``summary.csv``, ``summary.json``, one trace CSV
both whole and in its legacy view, the ``run`` stdout (summary grid
included) and the ``check`` stdout. The temporary directory that holds the outputs is replaced
by ``<out>`` in stdout before hashing.
"""

import contextlib
import hashlib
import io

import pytest

import vortexopt.cli as cli
from helpers import strip_wall_column

# booth exists only at d=2, so it runs d=2 alone and sphere runs both.
RUN_ARGS = ["--function", "booth", "--function", "sphere", "--dim", "2", "--dim", "5",
            "--seeds", "2", "--iterations", "50", "--jobs", "1"]

# Recorded before the particle views, trace rows, RNG wrappers, duplicate
# reference table and second grid renderer were removed.
GOLDEN = {
    "runs.csv": "af36c47c95483fc8d7cc5808c84374309e0c97f8fe02ba1aae29b1b65491c7e2",
    "summary.csv": "01380facc4455bb8b1182bef57118327a975dcea4083f5440800d91c85ce2337",
    # Recorded when min_vorticity and pull_epsilon left VoaConfig; their two config
    # lines are the only change.
    "summary.json": "0b14e0cbf3883f3159495a38dc4eb0178b7854c70c6c068de4cc75650b0c850f",
    "trace": "cd266f7a8d4ba9b7aad187a3cf7f3b0dfa10ee1008f3f121ad3bc3c7c6d99bee",
    # Recorded when the summary grid took summary.csv's number format.
    "run_stdout": "5b6e043dfa025dbad3d2104aa3c1707f91740f0447c1cce3d69f87a8573f4a43",
    # Recorded when check began failing cells run with a non-default config.
    "check_stdout": "98058b332d74881ea8c7cb4171aefc012506ff6d7c0bef25a7e6e766d57f7747",
    # Recorded when the trace CSV took RunTrace's field names and gained
    # non_finite_evals; its legacy view is still pinned by "trace" above.
    "trace_full": "1b9148bd41d1afcc6466b697be0178668be8ec853bd07e728c1fc26d81ba7716",
}


# The trace CSV's header before it took RunTrace's field names.
LEGACY_TRACE_HEADER = "iteration,best_fitness,mean_fitness,vortex_count,eliminated"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def legacy_trace_view(text: str) -> str:
    """A trace CSV in its original five-column layout: the legacy header,
    then the first five columns of each row."""
    rows = [",".join(line.split(",")[:5]) for line in text.splitlines()[1:]]
    return "\n".join([LEGACY_TRACE_HEADER, *rows]) + "\n"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden_reports")
    out, traces = root / "res", root / "traces"
    stdout = {}
    for name, argv, code in (
        ("run_stdout", ["run", *RUN_ARGS, "--out", str(out), "--trace-dir", str(traces)], 0),
        # 50 iterations is not the table's configuration, so every cell fails.
        ("check_stdout", ["check", "--out", str(out)], 1),
    ):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == code
        stdout[name] = buf.getvalue().replace(str(root), "<out>")
    return {
        "runs.csv": strip_wall_column((out / "runs.csv").read_text(encoding="utf-8")),
        "summary.csv": (out / "summary.csv").read_text(encoding="utf-8"),
        "summary.json": (out / "summary.json").read_text(encoding="utf-8"),
        "trace": legacy_trace_view((traces / "sphere_d5_s2.csv").read_text(encoding="utf-8")),
        "trace_full": (traces / "sphere_d5_s2.csv").read_text(encoding="utf-8"),
        **stdout,
    }


@pytest.mark.parametrize("name", list(GOLDEN))
def test_report_bytes_match_golden(outputs, name):
    assert _sha(outputs[name]) == GOLDEN[name]


def test_plan_covers_the_intended_cells(outputs):
    rows = outputs["runs.csv"].splitlines()[1:]
    assert [tuple(r.split(",")[:3]) for r in rows] == [
        ("booth", "2", "1"), ("booth", "2", "2"),
        ("sphere", "2", "1"), ("sphere", "2", "2"),
        ("sphere", "5", "1"), ("sphere", "5", "2"),
    ]
    assert len(outputs["trace"].splitlines()) == 1 + 51
