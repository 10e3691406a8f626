"""Words over the alphabet {D, U} and their lattice-path statistics.

A word is a plain Python string of ``D`` and ``U`` characters (the empty
string is a valid word).  Every word determines a walk on the diagonal
lattice, its *standard path*: starting from (0, 0), each ``U`` is a step
(+1, +1) and each ``D`` a step (+1, -1).  Three sparse Laurent polynomials
in one variable z record the multiset of heights of the path's vertices,
of its up-steps, and of its down-steps.

The positional walk :func:`prefix_heights` feeds the path, the height
polynomials, the monomial action and the move sets; it stays apart from
the invariant walk of :mod:`~weylwords.equivalence` so the two cross-check.

All functions here are pure and all values immutable, so everything can be
shared freely across threads.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Mapping

from .errors import ParseError

_OMEGA = str.maketrans("DU", "UD")


def parse_word(text: str) -> str:
    """Canonicalize ``text`` to an uppercase D/U word.

    Lowercase input is accepted; any other character raises
    :class:`~weylwords.errors.ParseError` naming its 1-based position.
    """
    word = text.upper()
    for pos, ch in enumerate(word):
        if ch != "D" and ch != "U":
            raise ParseError(
                f"invalid character {text[pos]!r} at position {pos + 1}"
                " (expected D or U)",
                position=pos + 1,
            )
    return word


def omega(word: str) -> str:
    """Reverse the word and toggle every letter.  An involution."""
    return word[::-1].translate(_OMEGA)


def final_height(word: str) -> int:
    """Number of U's minus number of D's; the height where the standard path ends."""
    return 2 * word.count("U") - len(word)


def is_balanced(word: str) -> bool:
    """True if the word has equally many D's and U's."""
    return final_height(word) == 0


def is_rising(word: str) -> bool:
    """True if the word has at least as many U's as D's."""
    return final_height(word) >= 0


def is_falling(word: str) -> bool:
    """True if the word has at least as many D's as U's."""
    return final_height(word) <= 0


def prefix_heights(word: str) -> list[int]:
    """Heights of the standard path's vertices; entry i is the height after i letters."""
    heights = [0] * (len(word) + 1)
    h = 0
    for i, ch in enumerate(word):
        h += 1 if ch == "U" else -1
        heights[i + 1] = h
    return heights


def standard_path(word: str) -> list[tuple[int, int]]:
    """Vertices of the unique diagonal path starting at (0, 0) that reads off ``word``."""
    return list(enumerate(prefix_heights(word)))


def reading_word(path: Iterable[tuple[int, int]]) -> str:
    """Recover the word from a diagonal path (inverse of :func:`standard_path`)."""
    vertices = list(path)
    letters = []
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:]):
        if (x1 - x0, y1 - y0) == (1, 1):
            letters.append("U")
        elif (x1 - x0, y1 - y0) == (1, -1):
            letters.append("D")
        else:
            raise ValueError(f"not a diagonal step: {(x0, y0)} -> {(x1, y1)}")
    return "".join(letters)


class LaurentPoly:
    """Sparse Laurent polynomial in z with integer coefficients.

    The coefficient map never stores zeros, so ``==`` on two instances is
    exactly equality of Laurent polynomials.  Instances are immutable and
    hashable.  Only the arithmetic the height polynomials need is provided:
    addition, scaling by z^k, comparison and evaluation.
    """

    __slots__ = ("_coeffs", "_hash")

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        merged: dict[int, int] = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for exp, c in items:
            c = merged.get(exp, 0) + c
            if c:
                merged[exp] = c
            elif exp in merged:
                del merged[exp]
        self._coeffs = merged
        self._hash: int | None = None

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    def __getitem__(self, exponent: int) -> int:
        return self._coeffs.get(exponent, 0)

    def items(self) -> Iterator[tuple[int, int]]:
        """Nonzero (exponent, coefficient) pairs in increasing exponent order."""
        return iter(sorted(self._coeffs.items()))

    def is_zero(self) -> bool:
        return not self._coeffs

    def min_exponent(self) -> int:
        if not self._coeffs:
            raise ValueError("the zero polynomial has no exponents")
        return min(self._coeffs)

    def max_exponent(self) -> int:
        if not self._coeffs:
            raise ValueError("the zero polynomial has no exponents")
        return max(self._coeffs)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        merged = dict(self._coeffs)
        for exp, c in other._coeffs.items():
            c = merged.get(exp, 0) + c
            if c:
                merged[exp] = c
            else:
                del merged[exp]
        out = LaurentPoly.__new__(LaurentPoly)
        out._coeffs = merged
        out._hash = None
        return out

    def shifted(self, k: int) -> "LaurentPoly":
        """The product z^k * self."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._coeffs = {exp + k: c for exp, c in self._coeffs.items()}
        out._hash = None
        return out

    def evaluate(self, z=1):
        """Value at z (defaults to 1, giving the coefficient sum)."""
        if z == 1:
            return sum(self._coeffs.values())
        return sum(c * z**exp for exp, c in self._coeffs.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._coeffs.items()))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __repr__(self) -> str:
        if not self._coeffs:
            return "LaurentPoly(0)"
        parts = (f"{c}*z^{exp}" for exp, c in sorted(self._coeffs.items()))
        return f"LaurentPoly({' + '.join(parts)})"

    def to_json_dict(self) -> dict[str, str]:
        """JSON form: exponent string -> decimal coefficient string."""
        return {str(exp): str(c) for exp, c in sorted(self._coeffs.items())}

    @classmethod
    def from_json_dict(cls, data: Mapping[str, str]) -> "LaurentPoly":
        return cls({int(exp): int(c) for exp, c in data.items()})


def height_polys(word: str) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly]:
    """The triple (H, H_NE, H_SE) of height polynomials of the standard path.

    H counts every vertex of the path by its height, H_NE the starting
    vertices of up-steps, H_SE the starting vertices of down-steps.  The
    empty word gives (1, 0, 0): a single vertex at height 0.
    """
    heights = prefix_heights(word)
    ne = Counter(h for h, ch in zip(heights, word) if ch == "U")
    se = Counter(h for h, ch in zip(heights, word) if ch != "U")
    return LaurentPoly(Counter(heights)), LaurentPoly(ne), LaurentPoly(se)
