"""Git helpers shared by ``abpair.py`` and ``benchpair.py``.

Both tools resolve two revisions to commits, extract each one's files from
``git archive`` into a directory of its own, and add their comparison to a
JSON file of the form ``{"comparisons": [...]}``, one comparison a line.
"""

import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          stdout=subprocess.PIPE).stdout


def commits(revs) -> list:
    """The full commit hash of each revision."""
    return [git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip() for rev in revs]


def extract(commit: str, dest: Path, *paths: str) -> Path:
    """Extract ``commit``'s files (only ``paths``, if given) into the new directory ``dest``."""
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], check=True,
                   input=git("archive", commit, *paths))
    return dest


def add_comparison(out: Path, comparison: dict, key: tuple) -> None:
    """Add ``comparison`` to ``out``, replacing any earlier one that has the
    same values at every field in ``key``."""
    record = json.loads(out.read_text()) if out.exists() else {"comparisons": []}
    kept = [c for c in record["comparisons"]
            if any(c.get(k) != comparison[k] for k in key)]
    lines = ",\n".join(json.dumps(c) for c in kept + [comparison])
    out.write_text('{"comparisons": [\n' + lines + "\n]}\n")
