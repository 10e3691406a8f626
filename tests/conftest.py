"""Shared enumeration helpers and the independent references the tests check against."""

from collections import Counter, defaultdict
from fractions import Fraction
from itertools import compress, product
from math import comb
from typing import Iterable

from weylwords import (
    DomainError,
    ParseError,
    ResourceLimitError,
    WeylElement,
    apply_to_monomial,
    column_sites,
    ferrers_board,
    prefix_heights,
    rook_numbers,
)
from weylwords.enumeration import _check_c
from weylwords.words import _check_word

_MAX_BRUTE_CELLS = 20


def all_words(n):
    """Every D/U word of length exactly n."""
    if n == 0:
        yield ""
        return
    for letters in product("DU", repeat=n):
        yield "".join(letters)


def words_up_to(n):
    """Every D/U word of length at most n."""
    for m in range(n + 1):
        yield from all_words(m)


def balanced_words(max_length):
    """Every balanced word of length at most max_length."""
    for w in words_up_to(max_length):
        if 2 * w.count("U") == len(w):
            yield w


def ne_walk_by_dict(word):
    """Final height and up-step heights {g: a_g}, counted in one dict: the
    reference for ``equivalence._ne_walk``."""
    ne = {}
    h = 0
    for ch in word:
        if ch == "U":
            ne[h] = ne.get(h, 0) + 1
            h += 1
        else:
            h -= 1
    return h, ne


def ne_walk_by_position(word):
    """Final height and up-step heights {g: a_g} read off ``prefix_heights``
    with one ``Counter``: a positional route to ``_ne_walk``'s invariant
    that builds no polynomial."""
    heights = prefix_heights(word)
    return heights[-1], Counter(compress(heights, map("U".__eq__, word)))


def parse_word_by_loop(text):
    """``parse_word`` checking each character in a Python loop: the
    reference for its C-speed check.  A text that is not a ``str`` is
    refused before any of it is read."""
    if not isinstance(text, str):
        raise ParseError(f"a word must be a str, got {type(text).__name__}")
    word = text.upper()
    for pos, ch in enumerate(word):
        if ch != "D" and ch != "U":
            raise ParseError(
                f"invalid character {text[pos]!r} at position {pos + 1}"
                " (expected D or U)",
                position=pos + 1,
            )
    return word


def drift_word(rng, n, up):
    """n letters, each U with probability ``up``."""
    return "".join(rng.choices("UD", weights=(up, 1 - up), k=n))


def bridges_word(rng, n, block=4096):
    """Uniform letters in balanced blocks: the path returns to 0 every
    ``block`` letters (an odd n loses its last letter)."""
    parts = []
    for start in range(0, n, block):
        half = min(block, n - start) // 2
        letters = ["U"] * half + ["D"] * half
        rng.shuffle(letters)
        parts.append("".join(letters))
    return "".join(parts)


def peaks_word(rng, n, peaks=4):
    """A balanced word that climbs and falls ``peaks`` times with a strong drift."""
    seg = n // (2 * peaks)
    word = "".join(drift_word(rng, seg, 0.8) + drift_word(rng, seg, 0.2) for _ in range(peaks))
    h = 2 * word.count("U") - len(word)
    return word + ("D" * h if h > 0 else "U" * -h)


def class_size_by_binomials(word):
    """Class size by the closed-form product, one binomial at a time into a
    running product: the reference for ``rewrite.class_size``.  The up- and
    down-step heights a_i, b_i are counted here straight from the path."""
    a, b = {}, {}
    h = 0
    for ch in word:
        if ch == "U":
            a[h] = a.get(h, 0) + 1
            h += 1
        else:
            b[h] = b.get(h, 0) + 1
            h -= 1

    def choose(m, r):
        if r == 0:
            return 1
        if r < 0 or m < r:
            return 0
        return comb(m, r)

    span = max(map(abs, [*a, *b]), default=0)
    size = 1
    for i in range(span + 1):
        size *= choose(a.get(i, 0) + b.get(i + 2, 0) - 1, b.get(i + 2, 0))
        size *= choose(b.get(-i, 0) + a.get(-i - 2, 0) - 1, a.get(-i - 2, 0))
    a0, b0 = a.get(0, 0), b.get(0, 0)
    if h == 0:
        size *= choose(a0 + b0, a0)
    elif h > 0:
        size *= choose(a0 + b0 - 1, b0)
    else:
        size *= choose(a0 + b0 - 1, a0)
    return size


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

def count_classes_cdyck_by_recursion(n: int, k: int, c: int) -> int:
    """a_c(n, k) through the recursion with the boundary identity.

    a_c(n, k) = a_c(n-1, k) + a_c(n-2, k-1) for n - 1 >= (c+1) k, while on
    the boundary a_c((c+1)k, k) = a_c((c+1)k - 1, k - 1).
    """
    _check_c(c)
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


def monomial_action_sequential(word, s):
    """(coefficient, shift) of the word's action on x^s, multiplying the
    down-step factors s + h_k - h_(i+1) one at a time, zeros included: the
    reference for ``weyl.apply_to_monomial``."""
    heights = [0]
    for ch in word:
        heights.append(heights[-1] + (1 if ch == "U" else -1))
    h = heights[-1]
    coefficient = 1
    for before, after in zip(heights, heights[1:]):
        if after < before:
            coefficient *= s + h - after
    return coefficient, h


def rook_numbers_brute(cells: Iterable[tuple[int, int]], max_k: int | None = None) -> list[int]:
    """Rook numbers of an arbitrary board by enumerating all placements.

    Test oracle for :func:`rook_numbers`; also handles boards that are not
    staircase-shaped.  Limited to 20 cells.
    """
    cell_list = sorted(set(cells))
    n = len(cell_list)
    if n > _MAX_BRUTE_CELLS:
        raise ResourceLimitError(
            f"brute-force rook count limited to {_MAX_BRUTE_CELLS} cells, got {n}",
            partial_count=n,
        )
    if max_k is None:
        max_k = n
    col_bit = {c: 1 << idx for idx, c in enumerate(sorted({c for c, _ in cell_list}))}
    row_bit = {r: 1 << idx for idx, r in enumerate(sorted({r for _, r in cell_list}))}
    counts = [0] * (max_k + 1)

    def place(idx: int, cols_used: int, rows_used: int, k: int) -> None:
        if idx == n:
            counts[k] += 1
            return
        place(idx + 1, cols_used, rows_used, k)
        col, row = cell_list[idx]
        cb, rb = col_bit[col], row_bit[row]
        if k < max_k and not (cols_used & cb) and not (rows_used & rb):
            place(idx + 1, cols_used | cb, rows_used | rb, k + 1)

    place(0, 0, 0, 0)
    return counts

def rook_numbers_full_range(board, max_k: int) -> list[int]:
    """``weyl.rook_numbers`` looping every column over k = max_k .. 1, the
    zero updates included: the reference for its clamped loop."""
    if max_k < 0:
        raise DomainError("max_k must be nonnegative")
    r = [1] + [0] * max_k
    for h in board.col_heights:
        for k in range(max_k, 0, -1):
            free = h - (k - 1)
            if free > 0:
                r[k] += r[k - 1] * free
    return r


def rook_equivalent_by_dp(u: str, v: str) -> bool:
    """True iff the boards of ``u`` and ``v`` have identical rook numbers.

    Compared up to the largest letter count of either word; all higher rook
    numbers vanish on both boards.  Two column DPs: the reference for
    ``weyl.rook_equivalent``'s factorization.
    """
    kmax = max(u.count("D"), u.count("U"), v.count("D"), v.count("U"), 0)
    return rook_numbers(ferrers_board(u), kmax) == rook_numbers(ferrers_board(v), kmax)


def normal_order_by_dict(word: str) -> WeylElement:
    """Expand the word's operator in the basis U^j D^i by direct reordering.

    Multiplies the letters left to right; appending U uses the single-letter
    exchange D^i U = U D^i + i D^{i-1} on every term, held in a dict keyed
    by (j, i): the reference for ``weyl.normal_order``'s dense list.
    """
    _check_word(word)
    terms: dict[tuple[int, int], int] = {(0, 0): 1}
    for ch in word:
        if ch == "D":
            terms = {(j, i + 1): c for (j, i), c in terms.items()}
        else:
            new: dict[tuple[int, int], int] = {}
            for (j, i), c in terms.items():
                key = (j + 1, i)
                new[key] = new.get(key, 0) + c
                if i:
                    key = (j, i - 1)
                    new[key] = new.get(key, 0) + c * i
            terms = new
    return WeylElement(terms)


def actions_agree(u: str, v: str) -> bool:
    """True iff both words act identically on every monomial x^s.

    It suffices to compare shifts and coefficients for s = 0 ... maxD + 1:
    the coefficient is a polynomial in s of degree at most the number of
    D's, so agreement on maxD + 2 points forces identity.
    """
    smax = max(u.count("D"), v.count("D")) + 1
    for s in range(smax + 1):
        if apply_to_monomial(u, s) != apply_to_monomial(v, s):
            return False
    return True


def random_word(rng, length):
    return "".join(rng.choice("DU") for _ in range(length))


def random_balanced_commutation(rng, word):
    """Apply one uniformly chosen balanced commutation, if any exists."""
    heights = [0]
    h = 0
    for ch in word:
        h += 1 if ch == "U" else -1
        heights.append(h)
    by_height = {}
    for idx, hh in enumerate(heights):
        by_height.setdefault(hh, []).append(idx)
    candidates = [posns for posns in by_height.values() if len(posns) >= 3]
    if not candidates:
        return word
    posns = rng.choice(candidates)
    i, j, k = sorted(rng.sample(posns, 3))
    return word[:i] + word[j:k] + word[i:j] + word[k:]


def rank_counts_by_subspaces(cells, p):
    """Matrices over F_p supported on ``cells``, by rank 0 .. min(rows, columns).

    ``cells`` are (column, row) pairs of any shape: unlike the q-rook DP,
    this never uses the staircase property.  Columns are added one at a
    time, keeping the number of fillings so far per span of the columns
    (the span as its reduced row-echelon basis); each span is extended by
    each of the next column's own p^h fillings.
    """
    cells = set(cells)
    rows = sorted({r for _, r in cells})
    index = {r: i for i, r in enumerate(rows)}
    columns = defaultdict(list)
    for col, row in cells:
        columns[col].append(index[row])
    spans = {(): 1}
    for support in columns.values():
        fillings = []
        for values in product(range(p), repeat=len(support)):
            vec = [0] * len(rows)
            for i, v in zip(support, values):
                vec[i] = v
            fillings.append(tuple(vec))
        extended = defaultdict(int)
        for basis, count in spans.items():
            for vec in fillings:
                extended[_extend_span(basis, vec, p)] += count
        spans = extended
    counts = [0] * (min(len(rows), len(columns)) + 1)
    for basis, count in spans.items():
        counts[len(basis)] += count
    return counts


def _extend_span(basis, vec, p):
    """The reduced row-echelon basis of span(basis + [vec]) over F_p."""
    v = list(vec)
    for row in basis:
        f = v[row.index(1)]  # a reduced row's first nonzero entry is its pivot, 1
        if f:
            v = [(a - f * b) % p for a, b in zip(v, row)]
    pivot = next((i for i, x in enumerate(v) if x), None)
    if pivot is None:
        return basis
    inv = pow(v[pivot], -1, p)
    v = tuple(x * inv % p for x in v)
    rows = [
        tuple((a - row[pivot] * b) % p for a, b in zip(row, v)) if row[pivot] else row
        for row in basis
    ]
    # Reduced rows sort by pivot when sorted in descending order.
    return tuple(sorted(rows + [v], reverse=True))


def du_normal_terms_recursive(word, params, strategy, memo):
    """The deformed algebra's normal form by recursive rewriting: the
    reference for ``downup._normal_terms``.

    Contracts the leftmost or rightmost DDU/DUU factor, normalizes each of
    the three resulting words recursively and sums them.  ``memo`` is the
    caller's dict of results for these ``params`` and ``strategy``; the
    recursion nests once per rewrite, so keep words short.
    """
    got = memo.get(word)
    if got is not None:
        return got
    hits = [i for i in (word.find("DDU"), word.find("DUU")) if i != -1]
    if strategy == "leftmost":
        idx = min(hits) if hits else -1
    else:
        idx = max(word.rfind("DDU"), word.rfind("DUU"))
    if idx == -1:
        result = {word: Fraction(1)}
    else:
        head, tail = word[:idx], word[idx + 3 :]
        alpha, beta, gamma = params
        if word[idx : idx + 3] == "DDU":
            replacements = (("DUD", alpha), ("UDD", beta), ("D", gamma))
        else:
            replacements = (("UDU", alpha), ("UUD", beta), ("U", gamma))
        result = {}
        for repl, coeff in replacements:
            if not coeff:
                continue
            for w, c in du_normal_terms_recursive(head + repl + tail, params, strategy, memo).items():
                new = result.get(w, Fraction(0)) + coeff * c
                if new:
                    result[w] = new
                elif w in result:
                    del result[w]
    memo[word] = result
    return result


# Wetting factors by number of wet parents: (degree, coefficient) terms of
# 1 - (1-p)^w (open) and (1-p)^w (closed).
_OPEN = {1: ((1, 1),), 2: ((1, 2), (2, -1))}
_CLOSED = {1: ((0, 1), (1, -1)), 2: ((0, 1), (1, -2), (2, 1))}


def _mul_trunc(poly: list[int], factors: tuple[tuple[int, int], ...], order: int) -> list[int]:
    out = [0] * (order + 1)
    for deg, coeff in factors:
        for e in range(order + 1 - deg):
            if poly[e]:
                out[e + deg] += coeff * poly[e]
    return out


def advance_by_site_pairs(states: dict[int, list[int]], t: int, wall: bool, order: int) -> dict[int, list[int]]:
    """One transfer step keyed by (live old bits, new bits) pairs, with
    tabulated wetting factors and a final merge of the pair keys: the
    reference for ``percolation._advance``."""
    old_sites = column_sites(t, wall)
    new_sites = column_sites(t + 1, wall)
    old_bit = {x: 1 << i for i, x in enumerate(old_sites)}
    new_bit = {x: 1 << i for i, x in enumerate(new_sites)}

    # Keyed by (live old bits, new bits so far); dead old bits are cleared
    # so that states differing only in consumed sites merge.
    current: dict[tuple[int, int], list[int]] = {
        (om, 0): poly for om, poly in states.items()
    }
    for x in new_sites:
        parent_mask = old_bit.get(x - 1, 0) | old_bit.get(x + 1, 0)
        retire = ~old_bit.get(x + 1, 0)
        bit = new_bit[x]
        nxt: dict[tuple[int, int], list[int]] = {}
        for (om, nm), poly in current.items():
            w = (om & parent_mask).bit_count()
            om2 = om & retire
            if w == 0:
                key = (om2, nm)
                if key in nxt:
                    nxt[key] = [a + b for a, b in zip(nxt[key], poly)]
                else:
                    nxt[key] = poly
                continue
            for factors, mask in ((_CLOSED[w], nm), (_OPEN[w], nm | bit)):
                prod = _mul_trunc(poly, factors, order)
                if not any(prod):
                    continue
                key = (om2, mask)
                if key in nxt:
                    nxt[key] = [a + b for a, b in zip(nxt[key], prod)]
                else:
                    nxt[key] = prod
        current = nxt

    merged: dict[int, list[int]] = {}
    for (_, nm), poly in current.items():
        if nm in merged:
            merged[nm] = [a + b for a, b in zip(merged[nm], poly)]
        else:
            merged[nm] = poly
    return merged
