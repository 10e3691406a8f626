"""Workload ``stream``: long words through the linear-time layers.

Each job parses one long word and asks for its signature, its canonical
form, two equivalence verdicts and its class size.  One partner is made
equivalent by a few balanced commutations; the other is a near miss with
the same final height and one change deep in the word, so the streaming
comparison has to read almost all of it.
"""

from __future__ import annotations

from weylwords import equivalence, rewrite, words

import oracles
from jobs import Job, bridges_word, commuted_partner, job_rng, near_miss, peaks_word, random_word

NAME = "stream"

# (shape, letters).  Every cycle runs each slot once, so every run times the
# same mix.  The slots' latencies are far enough apart that the median job
# is always the uniform 450k word and the 90th percentile always the
# uniform 10^6 word (the steadiest shape), rather than whichever of two
# close neighbours a seed makes faster.
SLOTS = [
    ("uniform", 200_000),
    ("drift", 200_000),
    ("peaks", 200_000),
    ("uniform", 450_000),
    ("drift", 450_000),
    ("peaks", 450_000),
    ("uniform", 1_000_000),
]
WARMUP = [("uniform", 20_000), ("drift", 20_000), ("peaks", 20_000)]


def _word(rng, shape: str, length: int) -> str:
    if shape == "uniform":
        return bridges_word(rng, length)
    if shape == "drift":
        return random_word(rng, length, up=0.52)
    return peaks_word(rng, length, peaks=4)


def make_job(seed: int, cycle, slot: int, spec=None) -> Job:
    shape, length = spec or SLOTS[slot]
    rng = job_rng(NAME, seed, cycle, slot)
    word = _word(rng, shape, length)
    text = word.lower() if rng.random() < 0.5 else word
    same = commuted_partner(rng, word, moves=5)
    miss = near_miss(same)
    inputs = {"shape": shape, "text": text, "same": same, "miss": miss}

    def call():
        w = words.parse_word(text)
        return (
            w,
            equivalence.signature(w),
            equivalence.canonical_form(w),
            equivalence.equivalent(w, same),
            equivalence.equivalent(w, miss),
            rewrite.class_size(w),
        )

    def check(result):
        w, sig, canon, verdict_same, verdict_miss, size = result
        if w != word:
            return "parse_word did not fold the text to the word"
        steps = oracles.step_heights(word)
        if (sig.final_height, dict(sig.ne_heights.items())) != oracles.signature(word, steps):
            return "signature differs from the path walk"
        if canon != oracles.canonical(word, steps):
            return "canonical form differs from the one built from the path"
        if verdict_same is not True:
            return "commuted partner judged not equivalent"
        if verdict_miss is not False:
            return "near-miss partner judged equivalent"
        if size % oracles.PRIME != oracles.class_size_mod(word, steps):
            return "class size disagrees with the product formula mod p"
        return None

    return Job(f"{NAME}.{shape}", inputs, call, check)


def warmup_jobs(seed: int) -> list[Job]:
    return [make_job(seed, "warmup", i, spec) for i, spec in enumerate(WARMUP)]
