"""Rewrite transcripts.json from commands.txt.

Each command runs in process through `partfun.cli.run`, from this directory
and without PARTFUN_BUDGET, and its stdout, stderr and exit status are
recorded.  tests/test_cli_golden.py replays the transcripts and demands the
same bytes, so regenerating them changes the CLI contract: do it only for a
deliberate change, and say what changed in CHANGES.md.

    PYTHONPATH=src python tests/golden_cli/regenerate.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
from pathlib import Path

HERE = Path(__file__).resolve().parent


def commands():
    for line in (HERE / "commands.txt").read_text().splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            yield shlex.split(line)


def transcript(argv):
    from partfun.cli import run

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def main():
    os.environ.pop("PARTFUN_BUDGET", None)
    os.chdir(HERE)
    records = [transcript(argv) for argv in commands()]
    with open("transcripts.json", "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    print(f"{len(records)} transcripts written")


if __name__ == "__main__":
    main()
