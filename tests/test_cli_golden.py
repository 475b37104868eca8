"""Golden CLI transcripts.

Every command of tests/golden_cli/transcripts.json is replayed through
`cli.run` from that directory; stdout, stderr and the exit status must
match the recorded bytes.  Regenerating the transcripts
(tests/golden_cli/regenerate.py) is a change of the CLI contract.
"""

import json
from pathlib import Path

from partfun.cli import run

CORPUS = Path(__file__).parent / "golden_cli"


def test_cli_transcripts_are_byte_identical(monkeypatch, capsys):
    records = json.loads((CORPUS / "transcripts.json").read_text(encoding="utf-8"))
    assert len(records) >= 120
    monkeypatch.chdir(CORPUS)
    monkeypatch.delenv("PARTFUN_BUDGET", raising=False)
    changed = []
    for record in records:
        code = run(record["argv"])
        out, err = capsys.readouterr()
        if {"argv": record["argv"], "stdout": out, "stderr": err, "exit": code} != record:
            changed.append((record["argv"], code, out, err))
    assert not changed, f"{len(changed)} of {len(records)} commands changed; first: {changed[0]}"
