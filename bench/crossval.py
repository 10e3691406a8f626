"""Workload ``crossval``: mid-size inputs for the cross-validation routes.

Every super-linear layer gets a real share of the time here: normal
ordering and rook expansion, the monomial action, finite-field rank
counts, class closure, closed-form and brute-force counts, percolation
series and the deformed-algebra rewriter.  The streaming layers idle.

Deformed-algebra inputs are capped per parameter class, because the
recursive rewriter is exponential: 24 letters at (1/2, 1/2, 3/2) took 15 s
and 32 letters at (2, -1, 0) took 42 s.  The cap is on the word's
staircase-board size (its D-before-U pairs), which drives the number of
rewrites.  Each deformed job draws its own parameters, so the rewriter's
process-wide memo is not shared between jobs.  Percolation stops at the
library's MAX_ORDER of 14.
"""

from __future__ import annotations

from fractions import Fraction

from weylwords import downup, enumeration, percolation, rewrite, weyl

import oracles
from jobs import Job, commuted_partner, job_rng, near_miss, random_word, word_with_cells

NAME = "crossval"

# Deformed-algebra parameter classes: (name, on the Weyl line, letters,
# board cells).  The caps keep the slowest of 60 sampled words near 0.2 s.
DOWNUP_CLASSES = [
    ("weyl-beta0", True, 40, 60),
    ("weyl", True, 20, 24),
    ("other-beta0", False, 40, 60),
    ("other", False, 20, 24),
]

SLOTS = (
    [("order", 500), ("order", 2000)]
    + [("monomial", 10_000), ("monomial", 100_000)]
    + [("ranks", (2, 10)), ("ranks", (2, 12)), ("ranks", (3, 8)), ("ranks", (3, 9))]
    + [("downup", cls) for _ in range(14) for cls in DOWNUP_CLASSES]
    + [("closure", ("bal", 24, 1500, 2500)), ("closure", ("flip", 24, 2000, 3500)), ("closure", ("irr", 28, 8000, 14000))]
    + [("closure", ("bal", 24, 1500, 2500))]
    + [("count", 3000)] * 6 + [("cdyck", (400, 2)), ("table", 120), ("brute", (16, None)), ("brute", (17, 2))]
    + [("perc", (order, t)) for order in (12, 13, 14) for t in range(1, 13)]
)
WARMUP = [
    ("order", 100), ("monomial", 1000), ("ranks", (2, 7)), ("downup", DOWNUP_CLASSES[0]),
    ("closure", ("bal", 12, 2, 50)), ("count", 200), ("cdyck", (60, 1)), ("table", 20),
    ("brute", (10, 3)), ("perc", (8, 5)),
]


def _order_job(rng, length):
    u = random_word(rng, length)
    same = rng.random() < 0.5
    v = commuted_partner(rng, u, moves=3) if same else near_miss(u)

    def call():
        return weyl.normal_order(u), weyl.navon_expand(u), weyl.rook_equivalent(u, v)

    def check(result):
        direct, rook, verdict = result
        if direct != rook:
            return "normal_order and navon_expand disagree"
        top = (u.count("U"), u.count("D"))
        if direct.coefficient(*top) != 1:
            return f"leading term U^{top[0]} D^{top[1]} does not have coefficient 1"
        if verdict is not same:
            return f"rook_equivalent gave {verdict} for a partner built {'equivalent' if same else 'different'}"
        return None

    return {"u": u, "v": v}, call, check


def _monomial_job(rng, length):
    u = random_word(rng, length)
    # Every factor of the product is at least s - length > 0.
    s = length + rng.randint(1, 1000)

    def call():
        return weyl.apply_to_monomial(u, s)

    def check(result):
        got = (result.coefficient % oracles.PRIME, result.exponent_shift)
        if got != oracles.monomial_action_mod(u, s):
            return "monomial action differs from letter-by-letter differentiation"
        return None

    return {"u": u, "s": s}, call, check


def _board_word(rng, side: int, cells: int) -> str:
    """A word whose staircase board is side x side with ``cells`` cells.

    The last column is full height; the others take a random weakly
    increasing split of the remaining cells.  Fixing the board's rows and
    columns fixes the size of the library's batched matrices, and so the
    run's peak memory.
    """
    while True:
        heights = sorted(rng.randint(1, side) for _ in range(side - 1)) + [side]
        if sum(heights) == cells:
            break
    word, downs = [], 0
    for h in heights:
        word.append("D" * (h - downs) + "U")
        downs = h
    return "".join(word)


def _ranks_job(rng, spec):
    p, cells = spec
    word = _board_word(rng, 4, cells)
    heights = oracles.board_heights(word)

    def call():
        return weyl.matrix_rank_counts(weyl.ferrers_board(word), p, 4)

    def check(result):
        if sum(result) != p**cells:
            return f"rank counts sum to {sum(result)}, not {p}^{cells}"
        if result != oracles.rank_counts(heights, p):
            return "rank counts differ from the q-rook recursion"
        return None

    return {"word": word, "p": p}, call, check


def _downup_params(rng, weyl_line: bool, beta_zero: bool):
    def small():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))

    if weyl_line:
        beta = Fraction(0) if beta_zero else small()
        return (1 - beta, beta, 1 + beta)
    while True:
        alpha, beta, gamma = small(), Fraction(0) if beta_zero else small(), small()
        if alpha + beta != 1 or gamma - beta != 1:
            return (alpha, beta, gamma)


def _downup_job(rng, spec):
    name, weyl_line, length, cells = spec
    params = _downup_params(rng, weyl_line, name.endswith("beta0"))
    u = word_with_cells(rng, length, cells)
    same = rng.random() < 0.5
    v = commuted_partner(rng, u, moves=2) if same else near_miss(u, 0.5)

    def call():
        return downup.du_normal_order(u, params), downup.du_equivalent(u, v, params)

    def check(result):
        form, verdict = result
        if weyl_line:
            # On the Weyl line the deformed equivalence is Weyl equivalence.
            if verdict is not same:
                return f"du_equivalent gave {verdict} at {params} for a partner built {'equivalent' if same else 'different'}"
            return None
        if form != downup.du_normal_order(u, params, strategy="rightmost"):
            return "leftmost and rightmost rewriting disagree"
        if verdict != (form == downup.du_normal_order(v, params, strategy="rightmost")):
            return "du_equivalent disagrees with the normal forms"
        return None

    inputs = {"u": u, "v": v, "params": [str(x) for x in params]}
    return inputs, call, check


def _closure_word(rng, length, lo, hi):
    """A word of low amplitude whose class size lies in [lo, hi]."""
    while True:
        h, letters = 0, []
        for i in range(length):
            options = [c for c, nh in (("U", h + 1), ("D", h - 1)) if -1 <= nh <= 2 and abs(nh) <= length - i - 1]
            ch = rng.choice(options)
            letters.append(ch)
            h += 1 if ch == "U" else -1
        word = "".join(letters)
        if lo <= oracles.class_size(word) <= hi:
            return word


def _closure_job(rng, spec):
    move, length, lo, hi = spec
    u = _closure_word(rng, length, lo, hi)

    def call():
        return rewrite.equivalence_class(u, rewrite.Move(move))

    def check(result):
        if len(result.members) != rewrite.class_size(u):
            return f"closure under {move} has {len(result.members)} members, class_size says {rewrite.class_size(u)}"
        if result.representative != oracles.canonical(u):
            return "closure representative is not the canonical member"
        sig = oracles.signature(u)
        if any(oracles.signature(m) != sig for m in result.members):
            return "closure produced a word outside the class"
        return None

    return {"u": u, "move": move}, call, check


def _count_job(rng, n):
    # Near-central k: the costliest entries of a row, all about equally so.
    k = n // 2 - 50 + rng.randint(-5, 5)

    def call():
        return enumeration.count_classes(n, k)

    def check(result):
        if result != oracles.class_count(n, k):
            return f"a({n},{k}) differs from the recursion"
        return None

    return {"n": n, "k": k}, call, check


def _cdyck_job(rng, spec):
    n, c = spec
    n += rng.randint(-50, 50)

    def call():
        return enumeration.total_classes_cdyck(n, c)

    def check(result):
        if result != oracles.cdyck_total(n, c, oracles.cdyck_table(n, c)):
            return f"row sum of a_{c}({n}, k) differs from the recursion"
        return None

    return {"n": n, "c": c}, call, check


def _table_job(rng, max_n):
    max_n += rng.randint(-10, 10)

    def call():
        return enumeration.count_table(max_n)

    def check(result):
        if result != oracles.class_count_table(max_n):
            return f"count_table({max_n}) differs from the recursion"
        return None

    return {"max_n": max_n}, call, check


def _brute_job(rng, spec):
    n, c = spec

    def call():
        return enumeration.brute_force_class_counts(n, c)

    def check(result):
        if c is None:
            table = oracles.class_count_table(n)
            expected = [table[n, k] for k in range(n + 1)]
        else:
            table = oracles.cdyck_table(n, c)
            top = n // (c + 1)
            expected = [table[n, k] for k in range(top + 1)] + [0] * (n - top)
        if result != expected:
            return f"exhaustive row for n={n}, c={c} differs from the recursion"
        return None

    return {"n": n, "c": c}, call, check


def _perc_job(rng, spec):
    # Both series in every job keep the job costs close together; the
    # site's column t sets the rest of the cost, so it is part of the slot.
    order, t = spec
    wall = t % 2 == 0
    x = rng.choice(oracles.sites(t, wall))

    def call():
        return (
            percolation.mean_size_series(order),
            percolation.mean_size_series(order, True),
            percolation.wet_probability(t, x, order, wall),
        )

    def check(result):
        free, walled, site = result
        table = oracles.class_count_table(11)
        if free[:12] != [oracles.total_classes(n, table) for n in range(12)]:
            return "series coefficients differ from the class totals through length 11"
        table = oracles.cdyck_table(8, 1)
        if walled[:9] != [oracles.cdyck_total(n, 1, table) for n in range(9)]:
            return "series with the wall differs from the prefix-class totals through length 8"
        return oracles.check_site_series(site, t, x, order, wall)

    return {"order": order, "t": t, "x": x}, call, check


_BUILDERS = {
    "order": _order_job,
    "monomial": _monomial_job,
    "ranks": _ranks_job,
    "downup": _downup_job,
    "closure": _closure_job,
    "count": _count_job,
    "cdyck": _cdyck_job,
    "table": _table_job,
    "brute": _brute_job,
    "perc": _perc_job,
}


def make_job(seed: int, cycle, slot: int, spec=None) -> Job:
    kind, arg = spec or SLOTS[slot]
    rng = job_rng(NAME, seed, cycle, slot)
    inputs, call, check = _BUILDERS[kind](rng, arg)
    return Job(f"{NAME}.{kind}", inputs, call, check)


def warmup_jobs(seed: int) -> list[Job]:
    return [make_job(seed, "warmup", i, spec) for i, spec in enumerate(WARMUP)]
