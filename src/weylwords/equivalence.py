"""Deciding when two D/U words represent the same operator under DU - UD = 1.

Two words are equivalent exactly when they share the final height e and
the up-step heights a_g, the complete invariant (:func:`signature`).  The
private ``_ne_walk`` is the one walk that reads (e, a), for every layer
that needs no letter positions: the verdict :func:`equivalent`,
signatures, canonical forms, class sizes and the count oracles.  The
down-step heights follow by the crossing identity (``_down_heights``).
The height polynomials and the monomial action walk
:func:`~weylwords.words.prefix_heights` instead, so that they check the
invariant independently.  Every class of rising words has a unique member
without a U D^k U factor (k >= 2); :func:`canonical_form` extends this to
all words by the reversal involution.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DomainError
from .words import LaurentPoly, is_rising, omega


class EquivSignature(NamedTuple):
    """Complete invariant of a word: final height plus NE-height polynomial."""

    final_height: int
    ne_heights: LaurentPoly


def _ne_walk(word: str) -> tuple[int, dict[int, int]]:
    """The invariant walk: final height e and up-step heights {g: a_g}.

    ``pos[g]`` counts up-steps from heights g >= 0, ``neg[-1-g]`` those below 0.
    """
    pos = [0]
    neg: list[int] = []
    h = lo = hi = 0
    for ch in word:
        if ch == "U":
            if h >= 0:
                pos[h] += 1
            else:
                neg[-1 - h] += 1
            h += 1
            if h > hi:
                hi = h
                pos.append(0)
        else:
            h -= 1
            if h < lo:
                lo = h
                neg.append(0)
    a = {g: c for g, c in enumerate(pos) if c}
    a.update((-1 - k, c) for k, c in enumerate(neg) if c)
    return h, a


def _down_heights(e: int, a: dict[int, int]) -> dict[int, int]:
    """Down-step heights {g: b_g} of the words with invariant (e, a).

    The path crosses the edge (g, g+1) upward a_g times and downward
    b_(g+1) times, so b_(g+1) = a_g - [0 <= g < e] + [e <= g < 0].
    """
    b = {g + 1: c for g, c in a.items()}
    for g in range(min(0, e), max(0, e)):
        b[g + 1] = b.get(g + 1, 0) + (1 if g < 0 else -1)
    return {g: c for g, c in b.items() if c}


def signature(word: str) -> EquivSignature:
    """The (final height, NE-height polynomial) pair deciding equivalence."""
    e, ne = _ne_walk(word)
    return EquivSignature(e, LaurentPoly(ne))


def equivalent(u: str, v: str) -> bool:
    """True iff ``u`` and ``v`` are equal as operators: their invariant walks agree.

    Equivalent words have equal length, so other pairs need no walk.  Linear time.
    """
    return len(u) == len(v) and _ne_walk(u) == _ne_walk(v)


def is_up_normal(word: str) -> bool:
    """True iff the rising word contains no factor U D^k U with k >= 2.

    Raises :class:`~weylwords.errors.DomainError` on non-rising input.
    """
    if not is_rising(word):
        raise DomainError(f"word {word!r} is not rising (#U < #D)")
    first = word.find("U")
    if first == -1:
        return True
    last = word.rfind("U")
    return "DD" not in word[first:last]


def up_normal_from_signature(sig: EquivSignature) -> str:
    """Assemble the unique up-normal word with the given signature.

    The NE-height polynomial of an up-normal word
    D^a (UD)^{r_1} U ... (UD)^{r_h} U D^b has coefficient r_i + 1 at
    exponent -a + i - 1, so a and the r_i can be read off directly; b then
    follows from the final height.
    """
    ne = sig.ne_heights
    if ne.is_zero():
        if sig.final_height != 0:
            raise DomainError(f"no word has signature {sig}")
        return ""
    lo, hi = ne.min_exponent(), ne.max_exponent()
    counts = [ne[g] for g in range(lo, hi + 1)]
    a, b = -lo, hi + 1 - sig.final_height
    if a < 0 or b < 0 or any(c <= 0 for c in counts):
        raise DomainError(f"no rising word has signature {sig}")
    return "D" * a + "".join("UD" * (c - 1) + "U" for c in counts) + "D" * b


def up_normal_form(word: str) -> str:
    """The unique up-normal word equivalent to the given rising word.

    Raises :class:`~weylwords.errors.DomainError` on non-rising input.
    The reconstruction is validated against :func:`is_up_normal` and
    :func:`signature` and fails loudly if either check does not hold.
    """
    if not is_rising(word):
        raise DomainError(f"word {word!r} is not rising (#U < #D)")
    sig = signature(word)
    normal = up_normal_from_signature(sig)
    if not is_up_normal(normal) or signature(normal) != sig:
        raise AssertionError(
            f"internal error: reconstructed {normal!r} is not the up-normal"
            f" form of {word!r}"
        )
    return normal


def canonical_form(word: str) -> str:
    """Canonical representative of the word's equivalence class.

    Rising words map to their up-normal form; falling words go through
    the reversal involution.  Two words are equivalent iff their
    canonical forms are identical strings.
    """
    if is_rising(word):
        return up_normal_form(word)
    return omega(up_normal_form(omega(word)))
