"""Regenerate the golden CLI transcript, ``tests/cli_transcript.jsonl``.

Usage: ``python tests/regen_cli_transcript.py``

Runs every argv below through ``weylwords.cli.run`` in-process, once per
output format, and writes one JSON line per call: the argv, the exit code,
stdout and the first line of stderr.  ``tests/test_cli_transcript.py``
replays the file.  The script prints each argv whose record changed; log
those, and why, whenever the transcript is regenerated.  A known defect
stays in the transcript as recorded output until its fix lands, but a
record that breaks the exit-code contract (:func:`breaches`) is refused:
the script names it and writes nothing.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TRANSCRIPT = HERE / "cli_transcript.jsonl"

_DEEP = "D" * 76 + "U" * 76  # rewriting chains about 80 rewrites deep

# Each is run as given and with ``--format=json`` in front.
ARGVS = [
    ["check", "DUUD", "UDDU"],
    ["check", "U", "D"],
    ["check", "duud", "udDU"],
    ["check", "UDUDDUUDDDUU", "DUUDUDDUDUDU"],
    ["check", "UX", "U"],
    ["check", "U"],
    ["check", "U", "U", "--frob"],
    ["check", "UX", "DY"],
    ["canon", "UDDU"],
    ["canon", ""],
    ["canon", "dudduudu"],
    ["class", "DUUD"],
    ["class", "DUUD", "--list"],
    ["class", "dudduuduud", "--list", "--moves=flip"],
    ["class", "DUDDUUDUUD", "--moves=irr"],
    ["class", "UDDUUDDU", "--cap=2"],
    ["class", "DUUD", "--moves=swap"],
    ["size", "DUUD"],
    ["size", "uudduddudduuudud"],
    ["size", "UUZ"],
    ["expand", "DDUU"],
    ["expand", "dudud"],
    ["expand", ""],
    ["rook", "UDDUDUUDUD"],
    ["rook", "UUU"],
    ["rookcheck", "DUUDU", "DDUU"],
    ["rookcheck", "ud", "du"],
    ["tensor", "DUUD,UDDU;UD,UD"],
    ["tensor", "u,u;u,d"],
    ["tensor", ""],
    ["tensor", "U,U,D"],
    ["count", "10"],
    ["count", "4", "2"],
    ["count", "10", "--c=2"],
    ["count", "10", "3", "--c=2"],
    ["count", "6", "--brute"],
    ["count", "6", "--c=2", "--brute"],
    ["count", "4", "2", "--c=1/2", "--brute"],
    ["count", "12", "--c=3/2", "--brute"],
    ["count", "4", "2", "--c=1/2"],
    ["count", "4", "9"],
    ["count", "10", "4", "--c=2"],
    ["count", "4", "9", "--brute"],
    ["count", "6", "--c=x", "--brute"],
    ["count", "10", "--c=-1"],
    ["count", "30", "--brute"],
    ["count", "20572"],
    ["table", "4"],
    ["table", "0"],
    ["table", "-1"],
    ["perc", "--order=6"],
    ["perc", "--order=5", "--wall"],
    ["perc", "--order=99"],
    ["perc"],
    ["perc-site", "2", "0", "--order=4"],
    ["perc-site", "3", "1", "--order=6", "--wall"],
    ["perc-site", "2", "1", "--order=4"],
    ["perc-site", "1000000", "0", "--order=3"],
    ["downup", "DDU", "--params=1,0,1"],
    ["downup", "dud", "--params=0,1/2,0"],
    ["downup", "DDUUD", "--params=1/2,1/2,3/2"],
    ["downup", "DDU", "--params=0,0,0"],
    ["downup", "DDUU", "--params=2,-1,0"],
    ["downup", "DDU", "--params=1,0"],
    ["downup", "DX", "--params=1,0"],
    ["downup-check", "DUUD", "UDDU", "--params=1/2,1/2,3/2"],
    ["downup-check", "DUU", "UUD", "--params=1,0,1"],
    ["downup-check", "DU", "UX", "--params=1,0"],
    ["downup-check", _DEEP + "DUUDUDUD", _DEEP + "UDDUUDUD", "--params=1,0,1"],
    ["downup", "D" * 18 + "U" * 18, "--params=1,1,1"],  # past the rewrite budget
    ["frobnicate"],
    [],
]


# The only commands whose exit 1 means DIFFERENT; anywhere else it is a bug.
VERDICTS = {"check", "rookcheck", "tensor", "downup-check"}


def breaches(records: list[dict]) -> list[dict]:
    """Records that exit 4 (an internal error), or exit 1 from a command
    that gives no verdict."""
    bad = []
    for r in records:
        command = next((a for a in r["argv"] if not a.startswith("-")), None)
        if r["exit"] == 4 or (r["exit"] == 1 and command not in VERDICTS):
            bad.append(r)
    return bad


def record(argv: list[str]) -> dict:
    from weylwords.cli import run

    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    first = err.getvalue().split("\n", 1)[0]
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": first}


def load() -> list[dict]:
    return [json.loads(line) for line in TRANSCRIPT.read_text().splitlines()]


def main() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    old = {json.dumps(r["argv"]): r for r in load()} if TRANSCRIPT.exists() else {}
    records = [record(fmt + argv) for argv in ARGVS for fmt in ([], ["--format=json"])]
    for r in records:
        if old.get(json.dumps(r["argv"])) != r:
            print("changed:", json.dumps(r["argv"])[:120])
    bad = breaches(records)
    for r in bad:
        print(f"exit {r['exit']}:", json.dumps(r["argv"])[:120], r["stderr"][:120])
    if bad:
        sys.exit(f"refused: {len(bad)} records break the exit-code contract; nothing written")
    TRANSCRIPT.write_text("".join(json.dumps(r) + "\n" for r in records))
    print(f"wrote {len(records)} records to {TRANSCRIPT.name}")


if __name__ == "__main__":
    main()
