"""Counting equivalence classes of D/U words.

a(n, k) is the number of equivalence classes among words with k D's and
n - k U's.  It satisfies a(n, k) = a(n-1, k) + a(n-2, k-1) off the central
diagonal, has the closed form sum_{j<=k} (k-j+1) C(n-k-1, j) for k <= n/2,
and is symmetric in k <-> n-k.  Restricting to words whose every prefix has
at least c times as many U's as D's gives the family a_c(n, k) with its own
closed form.  A 2^n brute-force partition by signature serves as the
independent oracle for all of it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb

from .equivalence import EquivSignature, _ne_walk, up_normal_from_signature
from .errors import DomainError, ResourceLimitError
from .words import LaurentPoly

_MAX_BRUTE_LENGTH = 20


def _choose(m: int, r: int) -> int:
    # C(m, 0) = 1 even at m = -1 (the empty-word corner of the count
    # formulas and of the class-size product); out-of-range arguments
    # otherwise contribute 0.
    if r == 0:
        return 1
    if r < 0 or m < r:
        return 0
    return comb(m, r)


def count_classes(n: int, k: int) -> int:
    """a(n, k): number of classes of words with k D's and n - k U's.

    Uses the symmetry a(n, k) = a(n, n-k) to reach k <= n/2, then the
    closed-form sum.
    """
    if n < 0 or k < 0 or k > n:
        raise DomainError(f"need 0 <= k <= n, got n={n}, k={k}")
    if 2 * k > n:
        k = n - k
    return sum((k - j + 1) * _choose(n - k - 1, j) for j in range(k + 1))


def count_classes_by_recursion(n: int, k: int) -> int:
    """a(n, k) evaluated independently through the two-term recursion.

    Base cases are the central values a(2k, k) = (k+3) 2^(k-2) (and
    a(0, 0) = 1); the recursion a(n, k) = a(n-1, k) + a(n-2, k-1) fills in
    everything below the diagonal, symmetry everything above.
    """
    if n < 0 or k < 0 or k > n:
        raise DomainError(f"need 0 <= k <= n, got n={n}, k={k}")
    if 2 * k > n:
        k = n - k
    memo: dict[tuple[int, int], int] = {}

    def rec(m: int, j: int) -> int:
        if j == 0:
            return 1
        if m == 2 * j:
            # central values; j = 1 gives 4 * 2^-1 = 2, kept integral
            return 2 if j == 1 else (j + 3) * 2 ** (j - 2)
        got = memo.get((m, j))
        if got is None:
            got = rec(m - 1, j) + rec(m - 2, j - 1)
            memo[(m, j)] = got
        return got

    return rec(n, k)


def _fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def total_classes(n: int) -> int:
    """Number of equivalence classes of words of length n.

    Closed form 2 F_{n+4} minus a parity-dependent correction; n = 0
    returns 1 by convention.
    """
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    if n == 0:
        return 1
    if n % 2 == 0:
        correction = Fraction(3 * n + 42) * Fraction(2) ** (n // 2 - 3)
    else:
        correction = Fraction(n + 15) * Fraction(2) ** ((n - 3) // 2)
    value = 2 * _fibonacci(n + 4) - correction
    assert value.denominator == 1
    return int(value)


def count_classes_cdyck(n: int, k: int, c: int) -> int:
    """a_c(n, k): classes meeting the words whose prefixes have #U >= c #D.

    Requires integer c >= 1 and n >= (c+1) k >= 0.  Closed form
    C(n-k-1, k) - (c-2) sum_{j<k} C(n-k-1, j); for c = 1 this is a partial
    row sum of binomials, for c = 2 just C(n-k-1, k).
    """
    if not isinstance(c, int) or c < 1:
        raise DomainError(f"c must be an integer >= 1, got {c!r}")
    if k < 0 or n < (c + 1) * k:
        raise DomainError(f"need n >= (c+1)k >= 0, got n={n}, k={k}, c={c}")
    if n == 0:
        return 1
    return _choose(n - k - 1, k) - (c - 2) * sum(
        _choose(n - k - 1, j) for j in range(k)
    )


def count_classes_cdyck_by_recursion(n: int, k: int, c: int) -> int:
    """a_c(n, k) through the recursion with the boundary identity.

    a_c(n, k) = a_c(n-1, k) + a_c(n-2, k-1) for n - 1 >= (c+1) k, while on
    the boundary a_c((c+1)k, k) = a_c((c+1)k - 1, k - 1).
    """
    if not isinstance(c, int) or c < 1:
        raise DomainError(f"c must be an integer >= 1, got {c!r}")
    if k < 0 or n < (c + 1) * k:
        raise DomainError(f"need n >= (c+1)k >= 0, got n={n}, k={k}, c={c}")
    memo: dict[tuple[int, int], int] = {}

    def rec(m: int, j: int) -> int:
        if j == 0:
            return 1
        got = memo.get((m, j))
        if got is None:
            if m == (c + 1) * j:
                got = rec(m - 1, j - 1)
            else:
                got = rec(m - 1, j) + rec(m - 2, j - 1)
            memo[(m, j)] = got
        return got

    return rec(n, k)


def total_classes_cdyck(n: int, c: int) -> int:
    """Row sum over k of a_c(n, k)."""
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    return sum(count_classes_cdyck(n, k, c) for k in range(n // (c + 1) + 1))


def count_table(max_n: int) -> dict[tuple[int, int], int]:
    """All entries a(n, k) for n <= max_n as a map (n, k) -> count."""
    return {
        (n, k): count_classes(n, k) for n in range(max_n + 1) for k in range(n + 1)
    }


def is_cdyck(word: str, c) -> bool:
    """True iff every prefix has at least c times as many U's as D's.

    ``c`` may be an integer or a Fraction (rational thresholds are allowed
    here even though the closed-form counts need integer c).
    """
    c = Fraction(c)
    ups = downs = 0
    for ch in word:
        if ch == "U":
            ups += 1
        else:
            downs += 1
        if ups * c.denominator < downs * c.numerator:
            return False
    return True


def _signatures_by_k(n: int, keep=None) -> list[set]:
    """Distinct signatures (e, sorted up-step heights) of the length-n words
    passing ``keep``, per number of D's k = (n - e) / 2.  Guarded at n <= 20."""
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    if n > _MAX_BRUTE_LENGTH:
        raise ResourceLimitError(
            f"brute-force enumeration limited to length {_MAX_BRUTE_LENGTH}, got {n}"
        )
    per_k: list[set] = [set() for _ in range(n + 1)]
    for letters in product("DU", repeat=n):
        word = "".join(letters)
        if keep is None or keep(word):
            e, ne = _ne_walk(word)
            per_k[(n - e) // 2].add((e, tuple(sorted(ne.items()))))
    return per_k


def brute_force_class_counts(n: int, c=None) -> list[int]:
    """Oracle row: class counts per k from an exhaustive 2^n partition.

    Enumerates every word of length n (restricted to prefix-condition
    words when ``c`` is given), partitions by signature and returns the
    number of distinct classes for each k = 0 ... n.  Guarded at n <= 20.
    """
    threshold = None if c is None else Fraction(c)
    keep = None if threshold is None else (lambda word: is_cdyck(word, threshold))
    return [len(s) for s in _signatures_by_k(n, keep)]


def cdyck_class_counts_by_normal_form(n: int, c) -> list[int]:
    """Alternative oracle row for c >= 1: test the canonical member instead.

    For c >= 1, a class meets the prefix-condition words exactly when its
    up-normal representative satisfies the condition itself, so counting
    signatures of length-n words whose up-normal form passes the filter
    must reproduce :func:`brute_force_class_counts`.
    """
    threshold = Fraction(c)
    if threshold < 1:
        raise DomainError("the canonical-member characterization needs c >= 1")

    def passes(key):
        rep = up_normal_from_signature(EquivSignature(key[0], LaurentPoly(dict(key[1]))))
        return is_cdyck(rep, threshold)

    per_k = _signatures_by_k(n, lambda word: 2 * word.count("D") <= n)
    return [sum(map(passes, keys)) for keys in per_k]


def generating_function_table(max_n: int) -> dict[tuple[int, int], int]:
    """Coefficients a(n, k), k <= n/2, from the closed-form rational series.

    Expands (1 - t x^2)^3 / ((1 - x - t x^2)(1 - 2 t x^2)^2) as a truncated
    bivariate power series over the integers, by long division of dense
    coefficient grids.
    """
    nx = max_n + 1
    nt = max_n // 2 + 1

    def grid() -> list[list[int]]:
        return [[0] * nt for _ in range(nx)]

    def poly(entries: dict[tuple[int, int], int]) -> list[list[int]]:
        g = grid()
        for (i, j), v in entries.items():
            if i < nx and j < nt:
                g[i][j] = v
        return g

    def mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
        out = grid()
        for i in range(nx):
            row = a[i]
            for j in range(nt):
                v = row[j]
                if not v:
                    continue
                for i2 in range(nx - i):
                    brow = b[i2]
                    for j2 in range(nt - j):
                        if brow[j2]:
                            out[i + i2][j + j2] += v * brow[j2]
        return out

    def divide(num: list[list[int]], den: list[list[int]]) -> list[list[int]]:
        assert den[0][0] == 1
        out = grid()
        for i in range(nx):
            for j in range(nt):
                acc = num[i][j]
                for i2 in range(i + 1):
                    for j2 in range(j + 1):
                        if (i2, j2) != (0, 0) and den[i2][j2] and out[i - i2][j - j2]:
                            acc -= den[i2][j2] * out[i - i2][j - j2]
                out[i][j] = acc
        return out

    one_minus_tx2 = poly({(0, 0): 1, (2, 1): -1})
    numerator = mul(mul(one_minus_tx2, one_minus_tx2), one_minus_tx2)
    den1 = poly({(0, 0): 1, (1, 0): -1, (2, 1): -1})
    den2 = poly({(0, 0): 1, (2, 1): -2})
    denominator = mul(den1, mul(den2, den2))
    series = divide(numerator, denominator)
    return {
        (n, k): series[n][k]
        for n in range(max_n + 1)
        for k in range(n // 2 + 1)
    }
