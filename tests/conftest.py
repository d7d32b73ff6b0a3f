"""Subprocesses that the tests start import the package from this checkout.

``pythonpath`` in pyproject.toml puts ``src`` on the test process's import
path only; ``python -m vortexopt`` in a subprocess needs it in PYTHONPATH.
"""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True, scope="session")
def _src_on_subprocess_path():
    with pytest.MonkeyPatch.context() as mp:
        paths = [SRC, os.environ.get("PYTHONPATH")]
        mp.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))
        yield
