"""Deciding when two D/U words represent the same operator under DU - UD = 1.

Two words are equivalent exactly when they share the final height e and
the up-step heights a_g, the complete invariant (:func:`signature`).  The
private ``_ne_walk`` reads (e, a) for every layer that needs no letter
positions: signatures, canonical forms, class sizes and the count oracles.
The down-step heights follow by the crossing identity (``_down_heights``).
The height polynomials and the monomial action walk
:func:`~weylwords.words.prefix_heights` instead, so that they check the
invariant independently.  :func:`equivalent` is a single-array streaming
comparison with an early exit, linear in time and space.  Every class of
rising words has a unique member without a U D^k U factor (k >= 2);
:func:`canonical_form` extends this to all words by the reversal involution.
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
    """The invariant walk: final height e and up-step heights {g: a_g}."""
    ne: dict[int, int] = {}
    h = 0
    for ch in word:
        if ch == "U":
            ne[h] = ne.get(h, 0) + 1
            h += 1
        else:
            h -= 1
    return h, ne


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
    """True iff ``u`` and ``v`` are equal as operators.

    Streaming comparison over one array indexed by height: reading ``u``,
    each U increments the cell at the current height before moving up,
    each D moves down; reading ``v`` decrements instead.  The words are
    equivalent iff both reads end at the same height and the array is all
    zeros.  Bails out early as soon as ``v`` leaves the height range that
    ``u`` visited or drives a cell negative.  Linear time and space.
    """
    # pos[i] holds the cell at height i, neg[k] the cell at height -1-k.
    pos = [0]
    neg: list[int] = []
    i = 0
    lo = hi = 0
    for ch in u:
        if ch == "U":
            if i >= 0:
                pos[i] += 1
            else:
                neg[-1 - i] += 1
            i += 1
            if i > hi:
                hi = i
                pos.append(0)
        else:
            i -= 1
            if i < lo:
                lo = i
                neg.append(0)
    u_final = i

    i = 0
    for ch in v:
        if ch == "U":
            if i >= 0:
                a = pos[i] - 1
                pos[i] = a
            else:
                a = neg[-1 - i] - 1
                neg[-1 - i] = a
            if a < 0:
                return False
            i += 1
            if i > hi:
                return False
        else:
            i -= 1
            if i < lo:
                return False
    if i != u_final:
        return False
    return not any(pos) and not any(neg)


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
    exponent -a + i - 1, so a, h and the r_i can be read off directly;
    b then follows from the final height.
    """
    ne = sig.ne_heights
    if ne.is_zero():
        if sig.final_height != 0:
            raise DomainError(f"no word has signature {sig}")
        return ""
    lo = ne.min_exponent()
    hi = ne.max_exponent()
    h = hi - lo + 1
    counts = [ne[lo + t] for t in range(h)]
    a = -lo
    b = h - a - sig.final_height
    if a < 0 or b < 0 or any(c <= 0 for c in counts):
        raise DomainError(f"no rising word has signature {sig}")
    parts = ["D" * a]
    for mult in counts:
        parts.append("UD" * (mult - 1))
        parts.append("U")
    parts.append("D" * b)
    return "".join(parts)


def up_normal_form(word: str) -> str:
    """The unique up-normal word equivalent to the given rising word.

    Raises :class:`~weylwords.errors.DomainError` on non-rising input.
    The reconstruction is validated against :func:`is_up_normal` and
    :func:`equivalent` and fails loudly if either check does not hold.
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
