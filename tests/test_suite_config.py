"""The suite's own pytest settings, exercised on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_GIVEN = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10))
def test_fails(x):
    assert x < 5


def test_runs_after():
    pass
'''


def test_a_failing_hypothesis_test_fails_rather_than_crashing_the_session(tmp_path):
    # Reporting a failure makes the Hypothesis plugin import modules that may warn
    # on import; under filterwarnings = error that used to end the session with an
    # INTERNALERROR (exit 3) before the next test ran.
    (tmp_path / "test_seeded.py").write_text(FAILING_GIVEN)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_seeded.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
