"""The A/B timing tool's argument checks (``tools/abpair.py``)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "abpair.py"
_SPEC = importlib.util.spec_from_file_location("abpair", _PATH)
abpair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(abpair)


@pytest.mark.parametrize("flag,value", [("--pairs", "0"), ("--iterations", "0"),
                                        ("--iterations", "-1")])
def test_a_count_below_1_exits_2_before_any_git_call(flag, value, monkeypatch, capsys):
    def git(*args):
        raise AssertionError(f"git {' '.join(args)} called")

    monkeypatch.setattr(abpair, "git", git)
    with pytest.raises(SystemExit) as excinfo:
        abpair.main(["HEAD", "HEAD", flag, value])
    assert excinfo.value.code == 2
    assert f"{flag} must be at least 1, got {value}" in capsys.readouterr().err
