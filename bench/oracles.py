"""Independent routes the benchmark checks the library against.

Nothing here imports ``weylwords``: each function recomputes an answer
from its definition (a direct walk, a recursion, a dynamic programme), so
that a wrong result from the library cannot also be the expected one.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, compress
from math import comb

# A prime for checking huge integers (class sizes, monomial coefficients)
# by their residues.
PRIME = (1 << 61) - 1

_STEP = {"U": 1, "D": -1}
_OMEGA = str.maketrans("DU", "UD")


def omega(word: str) -> str:
    return word[::-1].translate(_OMEGA)


def final_height(word: str) -> int:
    return 2 * word.count("U") - len(word)


def step_heights(word: str) -> tuple[Counter, Counter]:
    """Start heights of the up-steps and of the down-steps of the word's path."""
    def starts():
        return accumulate(map(_STEP.__getitem__, word), initial=0)

    up = Counter(compress(starts(), map("U".__eq__, word)))
    down = Counter(compress(starts(), map("D".__eq__, word)))
    return up, down


def signature(word: str, steps=None) -> tuple[int, dict[int, int]]:
    """(final height, up-step heights): the complete invariant, as plain data."""
    up, _ = steps or step_heights(word)
    return final_height(word), dict(up)


def canonical(word: str, steps=None) -> str:
    """The canonical member, assembled from the step-height multisets.

    A falling word goes through omega: the up-steps of omega(word) start
    at heights d - 1 - h for the down-step start heights d of the word,
    whose final height is h.
    """
    up, down = steps or step_heights(word)
    fh = final_height(word)
    if fh < 0:
        mirrored = {d - 1 - fh: m for d, m in down.items()}
        return omega(_up_normal(-fh, mirrored))
    return _up_normal(fh, up)


def _up_normal(fh: int, ne) -> str:
    if not ne:
        return ""
    lo, hi = min(ne), max(ne)
    parts = ["D" * -lo]
    parts += ["UD" * (ne.get(h, 0) - 1) + "U" for h in range(lo, hi + 1)]
    parts.append("D" * (hi + 1 - fh))
    return "".join(parts)


def _binomial_args(word: str, steps) -> list[tuple[int, int]]:
    """The (m, r) of every factor C(m, r) in the class-size product.

    With a_i up-steps and b_i down-steps starting at height i, the size is
    prod_i C(a_i + b_(i+2) - 1, b_(i+2)) C(b_(-i) + a_(-i-2) - 1, a_(-i-2))
    over i >= 0, times C(a_0 + b_0, a_0) for a balanced word, or
    C(a_0 + b_0 - 1, b_0) / C(a_0 + b_0 - 1, a_0) for a rising / falling one.
    """
    a, b = steps or step_heights(word)
    span = max([2, *(abs(e) for e in a), *(abs(e) for e in b)]) + 2
    args = []
    for i in range(span + 1):
        args.append((a[i] + b[i + 2] - 1, b[i + 2]))
        args.append((b[-i] + a[-i - 2] - 1, a[-i - 2]))
    fh = final_height(word)
    if fh == 0:
        args.append((a[0] + b[0], a[0]))
    elif fh > 0:
        args.append((a[0] + b[0] - 1, b[0]))
    else:
        args.append((a[0] + b[0] - 1, a[0]))
    # C(m, 0) = 1 even at m = -1; other out-of-range factors are 0.
    return [(m, r) for m, r in args if r != 0]


def class_size(word: str, steps=None) -> int:
    """Exact class size; for short words."""
    size = 1
    for m, r in _binomial_args(word, steps):
        size *= comb(m, r) if 0 <= r <= m else 0
    return size


def class_size_mod(word: str, steps=None) -> int:
    """Class size modulo PRIME, with binomials from factorial tables."""
    args = _binomial_args(word, steps)
    if any(r < 0 or m < r for m, r in args):
        return 0
    top = max((m for m, _ in args), default=0)
    fact = [1] * (top + 1)
    for i in range(1, top + 1):
        fact[i] = fact[i - 1] * i % PRIME
    inv = [1] * (top + 1)
    inv[top] = pow(fact[top], PRIME - 2, PRIME)
    for i in range(top, 0, -1):
        inv[i - 1] = inv[i] * i % PRIME
    size = 1
    for m, r in args:
        size = size * fact[m] % PRIME * inv[r] % PRIME * inv[m - r] % PRIME
    return size


def monomial_action_mod(word: str, s: int, p: int = PRIME) -> tuple[int, int]:
    """Act on x^s letter by letter, rightmost letter first: (coefficient mod p, shift)."""
    coefficient, exponent = 1, s
    for ch in reversed(word):
        if ch == "U":
            exponent += 1
        else:
            coefficient = coefficient * exponent % p
            exponent -= 1
    return coefficient, exponent - s


def board_heights(word: str) -> list[int]:
    """Staircase column heights: the number of D's before each U, zeros dropped."""
    heights, downs = [], 0
    for ch in word:
        if ch == "D":
            downs += 1
        elif downs:
            heights.append(downs)
    return heights


def rank_counts(col_heights: list[int], q: int) -> list[int]:
    """Matrices over F_q on a staircase board, by rank 0 .. min(rows, columns).

    The q-analogue of the rook-number column recursion: adding a column
    with h free coordinates to fillings of rank k keeps the rank in q^k
    ways and raises it in q^h - q^k ways, because every earlier column
    lies in the column's first h coordinates.
    """
    counts = [1]
    for h in sorted(col_heights):
        counts.append(0)
        for k in range(len(counts) - 1, -1, -1):
            stay = q**k * counts[k]
            rise = (q**h - q ** (k - 1)) * counts[k - 1] if k else 0
            counts[k] = stay + rise
    return counts[: min(len(col_heights), max(col_heights, default=0)) + 1]


def class_count(n: int, k: int) -> int:
    """a(n, k) by the two-term recursion, iterated column by column in k.

    a(m, 0) = 1, a(2j, j) = (j+3) 2^(j-2) (a(2, 1) = 2), and below the
    diagonal a(m, j) = a(m-1, j) + a(m-2, j-1).  Costs (k+1)(n-2k) additions.
    """
    if 2 * k > n:
        k = n - k
    top = n - 2 * k  # a(m, j) is needed for 2j <= m <= 2j + top
    prev = [1] * (top + 1)  # prev[d] = a(2(j-1) + d, j-1)
    for j in range(1, k + 1):
        col = [2 if j == 1 else (j + 3) * 2 ** (j - 2)]
        for d in range(1, top + 1):
            col.append(col[d - 1] + prev[d])
        prev = col
    return prev[top]


def class_count_table(max_n: int) -> dict[tuple[int, int], int]:
    """Every a(n, k) for n <= max_n by the same recursion, symmetry for k > n/2."""
    table: dict[tuple[int, int], int] = {}
    for n in range(max_n + 1):
        for k in range(n // 2 + 1):
            if k == 0:
                value = 1
            elif n == 2 * k:
                value = 2 if k == 1 else (k + 3) * 2 ** (k - 2)
            else:
                value = table[n - 1, k] + table[n - 2, k - 1]
            table[n, k] = table[n, n - k] = value
    return table


def total_classes(n: int, table: dict[tuple[int, int], int]) -> int:
    return sum(table[n, k] for k in range(n + 1))


def cdyck_table(max_n: int, c: int) -> dict[tuple[int, int], int]:
    """a_c(n, k) for n <= max_n by the recursion with its boundary identity."""
    table: dict[tuple[int, int], int] = {}
    for n in range(max_n + 1):
        for k in range(n // (c + 1) + 1):
            if k == 0:
                value = 1
            elif n == (c + 1) * k:
                value = table[n - 1, k - 1]
            else:
                value = table[n - 1, k] + table[n - 2, k - 1]
            table[n, k] = value
    return table


def cdyck_total(n: int, c: int, table: dict[tuple[int, int], int]) -> int:
    return sum(table[n, k] for k in range(n // (c + 1) + 1))


def path_count(t: int, x: int, wall: bool) -> int:
    """Directed paths from (0, 0) to (t, x), kept at x >= 0 with a wall."""
    ways = {0: 1}
    for _ in range(t):
        nxt: dict[int, int] = {}
        for pos, w in ways.items():
            for step in (-1, 1):
                if not wall or pos + step >= 0:
                    nxt[pos + step] = nxt.get(pos + step, 0) + w
        ways = nxt
    return ways.get(x, 0)


def sites(t: int, wall: bool) -> list[int]:
    """The x coordinates of column t, only x >= 0 with a wall."""
    return [x for x in range(-t, t + 1, 2) if not wall or x >= 0]


def check_site_series(coeffs: list[int], t: int, x: int, order: int, wall: bool) -> str | None:
    """C(t, x; p) needs t open bonds: nothing below p^t, one p^t per path."""
    if len(coeffs) != order + 1:
        return f"wet probability has {len(coeffs)} coefficients, expected {order + 1}"
    if any(coeffs[: min(t, order + 1)]):
        return f"C({t},{x}) has terms below degree {t}"
    if t <= order and coeffs[t] != path_count(t, x, wall):
        return f"C({t},{x}) p^{t} coefficient {coeffs[t]} != {path_count(t, x, wall)} paths"
    return None
