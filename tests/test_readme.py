"""The README's examples run as written.

The Library block is executed, every ``vortexopt run`` line of the ``sh``
blocks is parsed by the CLI's ``run`` parser, the documented runs.csv header
is the real one, and the documented engine parameters are the real ones.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

from test_cli import SAMPLES
from vortexopt import VoaConfig
from vortexopt.cli import parse_plan
from vortexopt.harness import RUNS_HEADER

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language: str) -> list:
    """The bodies of the README's fenced blocks tagged ``language``."""
    blocks, tag, body = [], None, []
    for line in README.read_text(encoding="utf-8").splitlines(keepends=True):
        if not line.startswith("```"):
            body.append(line)
        elif tag is None:
            tag, body = line[3:].strip(), []
        else:
            if tag == language:
                blocks.append("".join(body))
            tag = None
    return blocks


def test_library_example_runs():
    (code,) = _blocks("python")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue()


def test_config_example_parses():
    plans = {}
    for block in _blocks("sh"):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words[:2] == ["vortexopt", "run"]:
                plans[line] = parse_plan(words[2:])[0]
    (plan,) = [p for line, p in plans.items() if "--iterations 2000" in line]
    assert plan.cells() == [("booth", 2), ("sphere", 2), ("sphere", 5)]
    assert plan.seeds == tuple(range(1, 11))
    assert plan.config.max_iterations == 2000


def test_documented_runs_header_is_the_written_one():
    text = README.read_text(encoding="utf-8")
    (header,) = re.findall(r"`runs\.csv`, one row per \(function, dimension, seed\):\s*`([^`]*)`",
                           text)
    assert header == RUNS_HEADER


def test_documented_engine_parameters_are_the_config_settings():
    text = README.read_text(encoding="utf-8")
    (paragraph,) = re.findall(r"^Engine parameters:.*?\n\n", text, flags=re.MULTILINE | re.DOTALL)
    documented = re.findall(r"`--([a-z][a-z-]*)", paragraph)
    assert len(documented) == len(set(documented))
    assert set(documented) <= set(SAMPLES)
    # A documented flag changes the config; every other `run` flag leaves it at the defaults.
    for flag, values in SAMPLES.items():
        config = parse_plan([arg for value in values for arg in (f"--{flag}", str(value))])[0].config
        assert (config != VoaConfig()) == (flag in documented), flag
