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
from itertools import accumulate, compress, product
from math import comb, isqrt, lgamma, log

from .equivalence import EquivSignature, _ne_walk, up_normal_from_signature
from .errors import DomainError, ResourceLimitError
from .words import LaurentPoly, _check_word

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


def _product(factors) -> int:
    # A balanced product tree, built as the factors stream in: the stack
    # holds products of 2^j consecutive factors, j falling toward the top,
    # and after the k-th factor as many merges follow as k has trailing
    # zero bits.  Operands of each multiplication have similar sizes, so
    # the cost is a few large multiplications instead of one quadratic
    # chain, and only O(log n) partial products are alive.
    stack = []
    for count, f in enumerate(factors, 1):
        while not count & 1:
            f *= stack.pop()
            count >>= 1
        stack.append(f)
    out = 1
    while stack:
        out *= stack.pop()
    return out


def _primes_up_to(n: int) -> list[int]:
    # The primes <= n, for n >= 1, by a bytearray sieve.
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = bytes(2)
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return list(compress(range(n + 1), sieve))


def _binomial_product(pairs) -> int:
    # prod C(m, r) over (m, r) pairs, with _choose's conventions.  With
    # r' = min(r, m - r), B = sum log2 C(m, r') is the result's bit length
    # up to rounding.  A pair with m > 2B has a small r' and goes to comb.
    # The others are merged into one factorization: a difference array
    # over 0..M gives e[k], the exponent of k in prod m!/(r'!(m-r')!), a
    # sieve gives the primes <= M <= 2B, and the exponent of p is
    # sum_j sum(e[p^j::p^j]).  The bound is 2B, not B, because a central
    # C(m, m/2) has slightly fewer than m bits, and comb on it is slow
    # (2.8 s at m = 5*10^5).
    # All prime powers and direct combs go into one product tree.
    kept = []
    for m, r in pairs:
        if r == 0:
            continue
        if r < 0 or m < r:
            return 0
        if r != m:
            kept.append((m, min(r, m - r)))
    bits = sum(lgamma(m + 1) - lgamma(r + 1) - lgamma(m - r + 1) for m, r in kept) / log(2)
    factors = [comb(m, r) for m, r in kept if m > 2 * bits]
    merged = [(m, r) for m, r in kept if m <= 2 * bits]
    if merged:
        top = max(m for m, _ in merged)
        diff = [0] * (top + 1)
        for m, r in merged:
            diff[m] += 1
            diff[r] -= 1
            diff[m - r] -= 1
        e = list(accumulate(reversed(diff)))
        e.reverse()
        for p in _primes_up_to(top):
            x = 0
            q = p
            while q <= top:
                x += sum(e[q::q])
                q *= p
            if x:
                factors.append(p**x)
    return _product(factors)


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


def _check_c(c) -> None:
    """The closed-form c-Dyck counts need an integer c >= 1."""
    if not isinstance(c, int) or c < 1:
        raise DomainError(f"c must be an integer >= 1, got {c!r}")


def count_classes_cdyck(n: int, k: int, c: int) -> int:
    """a_c(n, k): classes meeting the words whose prefixes have #U >= c #D.

    Requires integer c >= 1 and n >= (c+1) k >= 0.  Closed form
    C(n-k-1, k) - (c-2) sum_{j<k} C(n-k-1, j); for c = 1 this is a partial
    row sum of binomials, for c = 2 just C(n-k-1, k).
    """
    _check_c(c)
    if k < 0 or n < (c + 1) * k:
        raise DomainError(f"need n >= (c+1)k >= 0, got n={n}, k={k}, c={c}")
    if n == 0:
        return 1
    return _choose(n - k - 1, k) - (c - 2) * sum(
        _choose(n - k - 1, j) for j in range(k)
    )


def total_classes_cdyck(n: int, c: int) -> int:
    """Row sum over k of a_c(n, k)."""
    _check_c(c)
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    return sum(count_classes_cdyck(n, k, c) for k in range(n // (c + 1) + 1))


def count_table(max_n: int) -> dict[tuple[int, int], int]:
    """All entries a(n, k) for n <= max_n as a map (n, k) -> count."""
    if max_n < 0:
        raise DomainError(f"table size must be nonnegative, got {max_n}")
    return {
        (n, k): count_classes(n, k) for n in range(max_n + 1) for k in range(n + 1)
    }


def is_cdyck(word: str, c) -> bool:
    """True iff every prefix has at least c times as many U's as D's.

    ``c`` may be an integer or a Fraction (rational thresholds are allowed
    here even though the closed-form counts need integer c).  A word that
    is not a ``str`` raises :class:`~weylwords.errors.ParseError`.
    """
    if not isinstance(word, str):
        _check_word(word)
    c = Fraction(c)
    ups = downs = 0
    for ch in word:
        if ch == "U":
            ups += 1
        elif ch == "D":
            downs += 1
        else:
            _check_word(word)
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
