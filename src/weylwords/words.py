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
It checks its word first, so every route built on it raises
:class:`~weylwords.errors.ParseError` on a letter other than D or U.

All functions here are pure and all values immutable, so everything can be
shared freely across threads.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Iterable, Iterator, Mapping

from .errors import DomainError, ParseError

_OMEGA = str.maketrans("DU", "UD")


def parse_word(text: str) -> str:
    """Canonicalize ``text`` to an uppercase D/U word.

    Lowercase input is accepted; any other character raises
    :class:`~weylwords.errors.ParseError` naming its 1-based position.
    """
    word = text.upper()
    _check_word(word, text)
    return word


def _check_word(word: str, text: str | None = None) -> None:
    """Raise :class:`~weylwords.errors.ParseError` unless ``word`` is a D/U word.

    One pass at C speed decides; only a failing word is read letter by
    letter, to name the first bad one and its 1-based position.  The
    message quotes ``text``'s character there (default ``word``'s), so a
    caller that folded case can show what the user typed.  A word that is
    not a ``str`` fails too, even when its items are all D/U letters.
    """
    try:
        if not word.encode("ascii").translate(None, b"DU"):
            return
    except (UnicodeEncodeError, AttributeError):  # non-ASCII, or not a str
        pass
    shown = word if text is None else text
    for pos, ch in enumerate(word):
        if ch != "D" and ch != "U":
            raise ParseError(
                f"invalid character {shown[pos]!r} at position {pos + 1}"
                " (expected D or U)",
                position=pos + 1,
            )
    raise ParseError(f"a word must be a str, got {type(word).__name__}")


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
    _check_word(word)
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
            raise DomainError(f"not a diagonal step: {(x0, y0)} -> {(x1, y1)}")
    return "".join(letters)


class _SparseTerms:
    """An immutable map from basis keys to nonzero coefficients.

    Zeros are never stored, so ``==`` on two instances of one type is
    equality of the elements they write in the basis; instances of
    different types never compare equal.  The constructor takes a mapping,
    or an iterable of (key, coefficient) pairs whose repeated keys are
    summed.  Subclasses name the basis: ``_show`` formats one term.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping | Iterable[tuple] = ()):
        if isinstance(terms, Mapping):
            merged = {key: c for key, c in terms.items() if c}
        else:
            merged = {}
            for key, c in terms:
                c = merged.get(key, 0) + c
                if c:
                    merged[key] = c
                elif key in merged:
                    del merged[key]
        self._terms = merged
        self._hash: int | None = None

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def sorted_terms(self) -> list:
        """Terms in increasing key order."""
        return sorted(self._terms.items())

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __reduce__(self):
        # Rebuilt from the terms: a cached hash of str keys is per process.
        return type(self), (self._terms,)

    def __repr__(self) -> str:
        parts = " + ".join(self._show(key, c) for key, c in self.sorted_terms())
        return f"{type(self).__name__}({parts or 0})"


class LaurentPoly(_SparseTerms):
    """Sparse Laurent polynomial in z with integer coefficients.

    The coefficient map never stores zeros, so ``==`` on two instances is
    exactly equality of Laurent polynomials.  Instances are immutable and
    hashable.  Only the arithmetic the height polynomials need is provided:
    addition, scaling by z^k, comparison and evaluation.
    """

    __slots__ = ()

    def _show(self, exp: int, c: int) -> str:
        return f"{c}*z^{exp}"

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    def __getitem__(self, exponent: int) -> int:
        return self._terms.get(exponent, 0)

    def items(self) -> Iterator[tuple[int, int]]:
        """Nonzero (exponent, coefficient) pairs in increasing exponent order."""
        return iter(self.sorted_terms())

    def is_zero(self) -> bool:
        return not self._terms

    def min_exponent(self) -> int:
        if not self._terms:
            raise ValueError("the zero polynomial has no exponents")
        return min(self._terms)

    def max_exponent(self) -> int:
        if not self._terms:
            raise ValueError("the zero polynomial has no exponents")
        return max(self._terms)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly(chain(self._terms.items(), other._terms.items()))

    def shifted(self, k: int) -> "LaurentPoly":
        """The product z^k * self."""
        return LaurentPoly({exp + k: c for exp, c in self._terms.items()})

    def evaluate(self, z=1):
        """Value at z (defaults to 1, giving the coefficient sum)."""
        if z == 1:
            return sum(self._terms.values())
        return sum(c * z**exp for exp, c in self._terms.items())

    def to_json_dict(self) -> dict[str, str]:
        """JSON form: exponent string -> decimal coefficient string."""
        return {str(exp): str(c) for exp, c in self.sorted_terms()}

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
