"""Shared enumeration helpers for the test suite."""

from collections import defaultdict
from itertools import product


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
