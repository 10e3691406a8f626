"""Normal-ordered operator arithmetic, rook boards, and the action oracle.

Every word maps to an operator generated by D and U with DU - UD = 1; this
module expands that operator in the basis U^j D^i two independent ways
(letter-by-letter reordering and the rook-number expansion over the word's
staircase board), evaluates its action on monomials x^s in closed form, and
counts fixed-support matrices over prime fields by rank.  These cross-check
the combinatorial equivalence criteria.  The rook verdict
:func:`rook_equivalent` is a fast path: by the Goldman-Joichi-White
factorization it decides from the invariant walk, in linear time, with no
rook number computed.  The column DP :func:`rook_numbers` remains the route of
:func:`navon_expand` (and of the CLI's ``rook`` and ``expand``), and the
tests use it as the verdict's oracle.  The monomial action walks the
letters itself, not the invariant walk, so it checks the signature
independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import prod
from typing import Iterable, Iterator, NamedTuple

from .enumeration import _product
from .equivalence import _ne_walk, equivalent
from .errors import DomainError, _as_int
from .words import LaurentPoly, _check_word, _SparseTerms


class WeylElement(_SparseTerms):
    """A finite integer combination of basis elements U^j D^i.

    ``terms`` maps (u_power, d_power) to a nonzero integer coefficient;
    equality is map equality, which by the basis property is equality of
    the underlying operators.  Instances are immutable and hashable.
    """

    __slots__ = ()

    def _show(self, key: tuple[int, int], c: int) -> str:
        return f"{c}*U^{key[0]}*D^{key[1]}"

    def sorted_terms(self) -> list[tuple[tuple[int, int], int]]:
        """Terms ordered by descending u_power, then descending d_power."""
        return sorted(self._terms.items(), key=lambda kv: (-kv[0][0], -kv[0][1]))

    def coefficient(self, u_power: int, d_power: int) -> int:
        return self._terms.get((u_power, d_power), 0)

    def apply_to_power(self, s: int) -> dict[int, int]:
        """Act on x^s term by term: U^j D^i x^s = s(s-1)...(s-i+1) x^{s-i+j}.

        Returns the resulting combination as a map exponent -> coefficient
        (exponents may be negative; the action extends to x^-1 terms).
        """
        pairs = (
            (s - i + j, c * prod(range(s - i + 1, s + 1))) for (j, i), c in self._terms.items()
        )
        return LaurentPoly(pairs).terms


def normal_order(word: str) -> WeylElement:
    """Expand the word's operator in the basis U^j D^i by direct reordering.

    Multiplies the letters left to right; appending U uses the single-letter
    exchange D^i U = U D^i + i D^{i-1} on every term.  Every term U^j D^i
    of a prefix has j - i equal to the prefix's height t, so the terms are
    one list c, with c[i] the coefficient of U^(t+i) D^i: appending D
    prepends a zero, and appending U maps c[i] to c[i] + (i+1) c[i+1].
    """
    _check_word(word)
    c = [1]
    for ch in word:
        if ch == "D":
            c.insert(0, 0)
        else:
            c = [x + i * y for i, x, y in zip(count(1), c, c[1:])] + [c[-1]]
    t = 2 * word.count("U") - len(word)
    return WeylElement({(t + i, i): x for i, x in enumerate(c)})


@dataclass(frozen=True)
class FerrersBoard:
    """A staircase board given by its weakly increasing column heights.

    Zero-height columns hold no cells and are dropped on construction.
    """

    col_heights: tuple[int, ...]

    def __init__(self, col_heights: Iterable[int]):
        heights = tuple(h for h in col_heights if h != 0)
        if any(h < 0 for h in heights):
            raise DomainError(f"negative column height in {heights}")
        if any(a > b for a, b in zip(heights, heights[1:])):
            raise DomainError(f"column heights {heights} are not weakly increasing")
        object.__setattr__(self, "col_heights", heights)

    @property
    def cell_count(self) -> int:
        return sum(self.col_heights)

    @property
    def num_columns(self) -> int:
        return len(self.col_heights)

    @property
    def num_rows(self) -> int:
        return self.col_heights[-1] if self.col_heights else 0

    def cells(self) -> Iterator[tuple[int, int]]:
        """All cells as 1-based (column, row) pairs."""
        for col, h in enumerate(self.col_heights, start=1):
            for row in range(1, h + 1):
                yield (col, row)


def ferrers_board(word: str) -> FerrersBoard:
    """The board whose jagged boundary reads off the word left to right.

    Each U contributes a column whose height is the number of D's seen so
    far; leading U's (height-0 columns) and trailing D's change nothing,
    so boards of Uw, w and wD coincide.
    """
    _check_word(word)
    heights = []
    downs = 0
    for ch in word:
        if ch == "D":
            downs += 1
        else:
            heights.append(downs)
    return FerrersBoard(heights)


def rook_numbers(board: FerrersBoard, max_k: int) -> list[int]:
    """Rook numbers [r_0, ..., r_max_k] of a staircase board.

    Column DP: processing columns left to right, a column of height h adds
    h - (rooks placed so far) choices, since every earlier rook sits in one
    of the column's rows (heights are weakly increasing).  The j-th column
    updates only k <= min(h, j, max_k); every higher entry is zero.
    """
    max_k = _as_int(max_k, "max_k")
    if max_k < 0:
        raise DomainError("max_k must be nonnegative")
    r = [1] + [0] * max_k
    for j, h in enumerate(board.col_heights, start=1):
        for k in range(min(h, j, max_k), 0, -1):
            r[k] += r[k - 1] * (h - k + 1)
    return r


def rook_equivalent(u: str, v: str) -> bool:
    """True iff the boards of ``u`` and ``v`` have identical rook numbers.

    Decided in linear time by the Goldman-Joichi-White factorization
    ("Rook theory I", Proc. AMS 52, 1975): a board with m columns of
    heights h_1 <= ... <= h_m (zeros allowed) has
    sum_k r_k (x)_(m-k) = prod_i (x + h_i - i + 1), so two boards with the
    same m are rook-equivalent iff the multisets {h_i - i + 1} agree.  For
    a word, h_i - i + 1 is minus the height at which its i-th U starts,
    which the invariant walk counts.  The word with fewer U's is padded
    with p leading U's (zero-height columns, so its board is unchanged):
    they start at heights 0..p-1, and shift every other up-step by p.
    """
    (eu, au), (ev, av) = _ne_walk(u), _ne_walk(v)
    p = (len(v) + ev - len(u) - eu) // 2  # U's of v minus U's of u
    if p < 0:
        p, au, av = -p, av, au
    padded = {g + p: c for g, c in au.items()}
    for g in range(p):
        padded[g] = padded.get(g, 0) + 1
    return padded == av


def navon_expand(word: str) -> WeylElement:
    """Expand the word's operator through the rook numbers of its board.

    With m U's and n D's the result is
    sum_{k=0}^{min(m,n)} r_k(board) U^{m-k} D^{n-k}.
    """
    m = word.count("U")
    n = len(word) - m
    kmax = min(m, n)
    r = rook_numbers(ferrers_board(word), kmax)
    return WeylElement({(m - k, n - k): r[k] for k in range(kmax + 1)})


class MonomialAction(NamedTuple):
    """Result of acting on x^s: coefficient times x^(s + exponent_shift)."""

    coefficient: int
    exponent_shift: int


def apply_to_monomial(word: str, s: int) -> MonomialAction:
    """Action of the word's operator on x^s, in closed form.

    Reading the word as a path with heights h_0 = 0, ..., h_k, the result
    is the product of (s + h_k - h_{i+1}) over all down-steps p_i, times
    x^(s + h_k).  Matches direct differentiation/multiplication.  h_k
    comes from the U count, and one pass over the letters gives the
    factors.  They are multiplied in order into leaves of a few hundred bits,
    and the leaves by a balanced product tree: one running product would
    cost time quadratic in the result's size.
    """
    _check_word(word)
    s = _as_int(s, "s")
    h = 2 * word.count("U") - len(word)
    leaves = []
    leaf = 1
    f = s + h  # s + h_k minus the height reached so far
    for ch in word:
        if ch == "U":
            f -= 1
        else:
            f += 1
            leaf *= f
            if not leaf:
                break
            if leaf >> 256:
                leaves.append(leaf)
                leaf = 1
    if leaves and leaf:
        leaf *= _product(leaves)
    return MonomialAction(leaf, h)


def tensor_equivalent(pairs: Iterable[tuple[str, str]]) -> bool:
    """Componentwise reduction for tensor products of word operators.

    A tensor product of word operators equals another iff every component
    pair is equivalent; the empty list is vacuously true.
    """
    return all(equivalent(u, v) for u, v in pairs)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def matrix_rank_counts(board: FerrersBoard, p: int, ambient_n: int) -> list[int]:
    """Count matrices over F_p supported on the board, split by rank.

    Everything off the board is zero.  Returns [P_0, P_1, ...] up to the
    largest feasible rank, min(rows, columns).  Column DP, the q-analogue
    of :func:`rook_numbers`: every earlier column lies in the first h
    coordinates of a column of height h, so a filling of rank k keeps its
    rank in p^k ways and raises it in p^h - p^k ways.
    """
    p, ambient_n = _as_int(p, "p"), _as_int(ambient_n, "ambient_n")
    if not _is_prime(p):
        raise DomainError(f"p must be prime, got {p}")
    if not board.col_heights:
        return [1]
    nrows = board.num_rows
    ncols = board.num_columns
    if ambient_n < max(nrows, ncols):
        raise DomainError(
            f"board with {nrows} rows and {ncols} columns does not fit in"
            f" a {ambient_n} x {ambient_n} matrix"
        )
    max_rank = min(nrows, ncols)
    counts = [1] + [0] * max_rank
    for h in board.col_heights:
        for k in range(max_rank, 0, -1):
            counts[k] = p**k * counts[k] + (p**h - p ** (k - 1)) * counts[k - 1]
    return counts
