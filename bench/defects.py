"""Probe ``defects``: the known defects, as ordinary jobs that fail today.

Not one of the benchmark's workloads (a workload must not fail); run it
by name to see whether the defects are still there.  Each job is right
by construction and fails on the library as it stands:

* ``du_normal_order`` on D^80 U^80 w raises RecursionError;
* ``downup-check`` on the same 160-letter words exits 1 ("DIFFERENT");
* ``table -1`` exits 0 with empty tables instead of rejecting the size.
"""

from __future__ import annotations

from weylwords import downup

import clicalls
from jobs import Job, commuted_partner, job_rng, random_word

NAME = "defects"
SLOTS = [("rewriter", None), ("cli-downup-check", None), ("cli-table", None)]
WEYL_POINT = ("1", "0", "1")


def _deep_pair(rng):
    """Equivalent 160-letter words whose rewriting nests about 80 calls deep."""
    tail = random_word(rng, 8)
    return "D" * 76 + "U" * 76 + tail, "D" * 76 + "U" * 76 + commuted_partner(rng, tail, moves=1)


def make_job(seed: int, cycle, slot: int, spec=None) -> Job:
    kind, _ = spec or SLOTS[slot]
    rng = job_rng(NAME, seed, cycle, slot)
    if kind == "rewriter":
        u, v = _deep_pair(rng)

        def call():
            return downup.du_normal_order(u, WEYL_POINT), downup.du_normal_order(v, WEYL_POINT)

        def check(result):
            return None if result[0] == result[1] else "equivalent words got different normal forms"

        return Job(f"{NAME}.{kind}", {"u": u, "v": v}, call, check)
    if kind == "cli-downup-check":
        u, v = _deep_pair(rng)
        argv = ["downup-check", u, v, "--params=" + ",".join(WEYL_POINT)]
        outcome = {"code": 0, "text": "EQUIVALENT\n"}
    else:
        argv = ["table", "-1"]
        outcome = {"code": 2, "stderr": "error:"}
    check = clicalls.expect(outcome)
    return Job(f"{NAME}.{kind}", {"argv": argv}, lambda: clicalls.spawn(argv), lambda r: check(*r))


def warmup_jobs(seed: int) -> list[Job]:
    return []
