"""The A/B timing tool's argument checks (``tools/abpair.py``)."""

import abpair
import gittree
import pytest


@pytest.mark.parametrize("flag,value", [("--pairs", "0"), ("--iterations", "0"),
                                        ("--iterations", "-1")])
def test_a_count_below_1_exits_2_before_any_git_call(flag, value, monkeypatch, capsys):
    def git(*args):
        raise AssertionError(f"git {' '.join(args)} called")

    monkeypatch.setattr(gittree, "git", git)
    with pytest.raises(SystemExit) as excinfo:
        abpair.main(["HEAD", "HEAD", flag, value])
    assert excinfo.value.code == 2
    assert f"{flag} must be at least 1, got {value}" in capsys.readouterr().err
