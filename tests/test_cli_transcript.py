"""Golden CLI transcript: every recorded call still gives the same answer.

``tests/cli_transcript.jsonl`` holds one call per line (argv, exit code,
stdout, first line of stderr), covering every subcommand in both formats,
usage errors, budget refusals and a result past 4,300 digits.
Regenerate it with ``python tests/regen_cli_transcript.py``.  No record
may exit 4 (an internal error), and only a verdict command may exit 1
(DIFFERENT).
"""

import json

from regen_cli_transcript import ARGVS, breaches, load, record


def test_transcript_replays():
    records = load()
    assert len(records) == 2 * len(ARGVS)
    mismatches = []
    for want in records:
        got = record(want["argv"])
        if got != want:
            mismatches.append(json.dumps(got)[:200])
    assert mismatches == []


def test_transcript_keeps_the_exit_code_contract():
    assert breaches(load()) == []
