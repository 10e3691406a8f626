"""Tests of the benchmark itself.

    python3 bench/selftest.py

Checks that one seed always builds byte-identical workloads, that the
checkers reject deliberately wrong answers, and that span arithmetic
gives the documented busy and self times.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import clicalls  # noqa: E402
import crossval  # noqa: E402
import stream  # noqa: E402
from spans import layer_metrics  # noqa: E402


def _cycle(module, seed, cycle=0):
    return [module.make_job(seed, cycle, slot) for slot in range(len(module.SLOTS))]


def inputs_digest(jobs) -> bytes:
    return json.dumps([[j.kind, j.inputs] for j in jobs], sort_keys=True).encode()


class SameSeedSameWorkload(unittest.TestCase):
    def test_inputs_repeat_byte_for_byte(self):
        for module in (stream, crossval, clicalls):
            with self.subTest(workload=module.NAME):
                first = inputs_digest(_cycle(module, 7))
                self.assertEqual(first, inputs_digest(_cycle(module, 7)))
                self.assertNotEqual(first, inputs_digest(_cycle(module, 8)))
                self.assertNotEqual(first, inputs_digest(_cycle(module, 7, cycle=1)))

    def test_warmup_inputs_differ_from_timed_inputs(self):
        for module in (stream, crossval, clicalls):
            timed = {repr(job.inputs) for job in _cycle(module, 7)}
            self.assertFalse(timed & {repr(job.inputs) for job in module.warmup_jobs(7)})


def _job(module, kind, seed=5):
    slot = next(i for i, (k, _) in enumerate(module.SLOTS) if k == kind)
    return module.make_job(seed, 0, slot)


class CheckersRejectWrongAnswers(unittest.TestCase):
    def assert_flags(self, job, result, wrong):
        self.assertIsNone(job.check(result))
        self.assertIsInstance(job.check(wrong), str)

    def test_stream(self):
        job = stream.make_job(5, 0, 0)
        result = job.call()
        self.assert_flags(job, result, result[:4] + (True,) + result[5:])  # near miss judged equal
        self.assert_flags(job, result, result[:5] + (result[5] + 1,))  # class size off by one

    def test_crossval(self):
        job = _job(crossval, "ranks")
        counts = job.call()
        self.assert_flags(job, counts, [counts[0] + 1, *counts[1:-1], counts[-1] - 1])
        job = _job(crossval, "perc")
        free, walled, site = job.call()
        self.assert_flags(job, (free, walled, site), ([*free[:5], free[5] + 1, *free[6:]], walled, site))
        job = _job(crossval, "count")
        value = job.call()
        self.assert_flags(job, value, value + 2)
        job = _job(crossval, "monomial")
        action = job.call()
        self.assert_flags(job, action, action._replace(coefficient=action.coefficient * 3))

    def test_cli(self):
        job = _job(clicalls, "check")
        code, out, err = job.call()
        flipped = "DIFFERENT\n" if out == "EQUIVALENT\n" else "EQUIVALENT\n"
        self.assert_flags(job, (code, out, err), (code, flipped, err))
        self.assert_flags(job, (code, out, err), (3, out, err))
        job = _job(clicalls, "usage")
        code, out, err = job.call()
        self.assert_flags(job, (code, out, err), (1, out, err))


class SpanArithmetic(unittest.TestCase):
    def test_busy_self_and_calls(self):
        # name, start, end, parent, job, failed, work
        spans = [
            ["job", 0.0, 10.0, None, 0, False, 0],
            ["rewrite.equivalence_class", 1.0, 5.0, 0, 0, False, 40],
            ["equivalence.canonical_form", 4.0, 5.0, 1, 0, False, 24],
            ["equivalence.signature", 4.2, 4.6, 2, 0, False, 24],
            ["equivalence.equivalent", 6.0, 7.0, 0, 0, True, 10],
        ]
        m = layer_metrics(spans)
        self.assertEqual(m["rewrite.busy_s"], 4.0)
        self.assertEqual(m["rewrite.self_s"], 3.0)
        self.assertEqual(m["equivalence.busy_s"], 2.0)  # nested signature counts once
        self.assertAlmostEqual(m["equivalence.self_s"], 2.0)
        self.assertEqual(m["equivalence.calls"], 2)  # signature is inside canonical_form
        self.assertEqual(m["equivalence.failed"], 1)
        self.assertEqual(m["rewrite.members"], 40)
        self.assertAlmostEqual(m["rewrite.share_pct"], 60.0)
        self.assertAlmostEqual(m["equivalence.ns_per_letter"], 2e9 / 34)


if __name__ == "__main__":
    unittest.main()
