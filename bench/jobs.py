"""Jobs and the seeded input generators the workloads share.

A job is one closed-loop request: ``call`` makes the calls into the
library and is the only part that is timed; ``check`` runs afterwards,
untimed, and returns ``None`` when the result is right or a one-line
reason when it is not.  ``inputs`` is the plain data the job was built
from, so that two builds from the same seed can be compared byte for byte.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from itertools import accumulate
from time import perf_counter
from typing import Any, Callable

_STEP = {"U": 1, "D": -1}


@dataclass
class Job:
    kind: str
    inputs: dict
    call: Callable[[], Any]
    check: Callable[[Any], "str | None"]
    # Run once more under the tracer after the timed call (the CLI workload
    # uses it for the in-process cli.run on the same argv).
    traced_call: Callable[[], Any] | None = field(default=None)


# What the host references take on the host the timings are rescaled to.
HOST_REFERENCE_S = 0.0035
SPAWN_REFERENCE_S = 0.04


def host_reference() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    The loop touches nothing of the library, so its time tracks only how
    fast the host runs this process at the moment.  On a shared host that
    swings by more than half within minutes; run.py rescales every timing
    by the reference taken next to it.
    """
    start = perf_counter()
    acc, table = 0, {}
    for i in range(25_000):
        acc += i * i % 7
        table[i & 1023] = acc
    return perf_counter() - start


def spawn_reference(root) -> float:
    """Seconds a bare interpreter (``python -c pass``) takes to start and exit.

    The reference for the set-up samples, whose cost is mostly process
    creation and interpreter start-up.
    """
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=child_env(root), cwd=root, check=True, timeout=60)
    return perf_counter() - start


def child_env(root) -> dict:
    """This environment with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def job_rng(workload: str, seed: int, cycle: int | str, slot: int) -> random.Random:
    """The generator for one job: a pure function of its coordinates."""
    return random.Random(f"{workload}/{seed}/{cycle}/{slot}")


def random_word(rng: random.Random, length: int, up: float = 0.5) -> str:
    return "".join(rng.choices("UD", weights=(up, 1 - up), k=length))


def bridges_word(rng: random.Random, length: int, block: int = 4096) -> str:
    """Uniform letters, rebalanced to height 0 every ``block`` letters.

    Each block is uniformly random apart from a few flipped letters, so
    the path wanders like a random walk, but its range and its height
    multiplicities do not swing from seed to seed as a free walk's do.
    """
    parts = []
    for start in range(0, length, block):
        letters = rng.choices("UD", k=min(block, length - start) & ~1)
        excess = letters.count("U") - len(letters) // 2
        if excess:
            major, minor = ("U", "D") if excess > 0 else ("D", "U")
            for i in rng.sample([i for i, c in enumerate(letters) if c == major], abs(excess)):
                letters[i] = minor
        parts.append("".join(letters))
    return "".join(parts)


def peaks_word(rng: random.Random, length: int, peaks: int) -> str:
    """A balanced word that climbs and falls ``peaks`` times with a strong drift."""
    seg = max(1, length // (2 * peaks))
    parts = []
    for _ in range(peaks):
        parts.append(random_word(rng, seg, 0.8))
        parts.append(random_word(rng, seg, 0.2))
    word = "".join(parts)
    h = 2 * word.count("U") - len(word)
    return word + ("D" * h if h > 0 else "U" * -h)


def word_with_cells(rng: random.Random, length: int, cells: int) -> str:
    """A word whose staircase board has exactly ``cells`` cells.

    Starts from U^m D^(length-m), which has no cells, and makes random
    adjacent UD -> DU swaps, each of which adds one cell.
    """
    m = length // 2
    letters = list("U" * m + "D" * (length - m))
    cells = min(cells, m * (length - m))
    made = 0
    while made < cells:
        i = rng.randrange(length - 1)
        if letters[i] == "U" and letters[i + 1] == "D":
            letters[i], letters[i + 1] = "D", "U"
            made += 1
    return "".join(letters)


def commuted_partner(rng: random.Random, word: str, moves: int, reach: int = 4000) -> str:
    """An equivalent word: ``moves`` balanced commutations at disjoint places.

    Each move picks i < j < k with equal prefix heights, at most ``reach``
    letters apart, and swaps the balanced factors word[i:j] and word[j:k].
    Heights are walked only near the chosen places, so a long word costs
    no per-letter list.
    """
    n = len(word)
    if n < 4:
        return word
    starts = sorted(rng.sample(range(n), min(moves * 8, n)))
    out, done, last = [], 0, 0
    for i in starts:
        if done == moves or i < last:
            continue
        window = word[i : i + reach]
        heights = accumulate(map(_STEP.__getitem__, window), initial=0)
        same = [i + x for x, h in enumerate(heights) if x and h == 0]
        if len(same) < 2:
            continue
        j, k = sorted(rng.sample(same, 2))
        if word[i:j] == word[j:k]:
            continue
        out += [word[last:i], word[j:k], word[i:j]]
        last, done = k, done + 1
    out.append(word[last:])
    return "".join(out)


def near_miss(word: str, start: float = 0.9) -> str:
    """Same final height, different class: one UD -> DU swap deep in the word.

    The swap lowers one up-step by one level, which changes the up-step
    height multiset and so the class.
    """
    for frac in (start, 0.5, 0.0):
        i = word.find("UD", int(len(word) * frac))
        if i != -1:
            return word[:i] + "DU" + word[i + 2 :]
    raise ValueError("word has no UD factor")
