"""Normal-ordered operator arithmetic, rook boards, and the action oracle.

Every word maps to an operator generated by D and U with DU - UD = 1; this
module expands that operator in the basis U^j D^i two independent ways
(letter-by-letter reordering and the rook-number expansion over the word's
staircase board), evaluates its action on monomials x^s in closed form, and
counts fixed-support matrices over prime fields by rank.  These are
the cross-checking oracles for the combinatorial equivalence criteria.
The monomial action walks :func:`~weylwords.words.prefix_heights`, not the
invariant walk, so it checks the signature independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .equivalence import equivalent
from .errors import DomainError, ResourceLimitError
from .words import prefix_heights

_MAX_BRUTE_CELLS = 20


class WeylElement:
    """A finite integer combination of basis elements U^j D^i.

    ``terms`` maps (u_power, d_power) to a nonzero integer coefficient;
    equality is map equality, which by the basis property is equality of
    the underlying operators.  Instances are immutable and hashable.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: dict[tuple[int, int], int]):
        self._terms = {key: c for key, c in terms.items() if c}
        self._hash: int | None = None

    @property
    def terms(self) -> dict[tuple[int, int], int]:
        return dict(self._terms)

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
        out: dict[int, int] = {}
        for (j, i), c in self._terms.items():
            factor = 1
            for t in range(i):
                factor *= s - t
            if factor:
                exp = s - i + j
                new = out.get(exp, 0) + c * factor
                if new:
                    out[exp] = new
                elif exp in out:
                    del out[exp]
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        if not self._terms:
            return "WeylElement(0)"
        parts = (f"{c}*U^{j}*D^{i}" for (j, i), c in self.sorted_terms())
        return f"WeylElement({' + '.join(parts)})"


def normal_order(word: str) -> WeylElement:
    """Expand the word's operator in the basis U^j D^i by direct reordering.

    Multiplies the letters left to right; appending U uses the single-letter
    exchange D^i U = U D^i + i D^{i-1} on every term.
    """
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
    of the column's rows (heights are weakly increasing).
    """
    if max_k < 0:
        raise DomainError("max_k must be nonnegative")
    r = [1] + [0] * max_k
    for h in board.col_heights:
        for k in range(max_k, 0, -1):
            free = h - (k - 1)
            if free > 0:
                r[k] += r[k - 1] * free
    return r


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


def rook_equivalent(u: str, v: str) -> bool:
    """True iff the boards of ``u`` and ``v`` have identical rook numbers.

    Compared up to the largest letter count of either word; all higher rook
    numbers vanish on both boards.
    """
    kmax = max(u.count("D"), u.count("U"), v.count("D"), v.count("U"), 0)
    return rook_numbers(ferrers_board(u), kmax) == rook_numbers(ferrers_board(v), kmax)


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
    x^(s + h_k).  Matches direct differentiation/multiplication.
    """
    heights = prefix_heights(word)
    h = heights[-1]
    coefficient = 1
    for before, after in zip(heights, heights[1:]):
        if after < before:
            coefficient *= s + h - after
            if not coefficient:
                break
    return MonomialAction(coefficient, h)


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
