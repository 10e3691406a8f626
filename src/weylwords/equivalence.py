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

The walk reads eight letters per step (the "Four Russians" table idea of
Arlazarov, Dinic, Kronrod and Faradzev).  The word is packed at C speed
into one byte per 8-letter block (``_pack_blocks``), the blocks' start
heights are a running sum over a 256-entry table of height changes, and a
single Python loop adds each byte's precomputed (relative height, up-step
count) pairs at its block's start height.  The tables are built on first
use.  Words shorter than ``_BLOCK_CUTOFF`` letters, where packing costs
more than it saves (the brute-force enumerations walk millions of them),
take the plain letter loop ``_letter_walk`` instead.

Every walk raises :class:`~weylwords.errors.ParseError`, naming the 1-based
position of the first letter other than ``D`` or ``U``, at every length,
and on every word that is not a ``str``; so do the public functions built
on it (:func:`signature`, :func:`equivalent`, :func:`canonical_form`,
class sizes).  Case is not folded: that is
:func:`~weylwords.words.parse_word`'s job.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate
from typing import NamedTuple

from .errors import DomainError
from .words import LaurentPoly, _check_word, is_rising, omega

# Shorter words take the letter loop.  The two walks cost the same at about
# 80-90 random letters (2-vCPU Xeon, CPython 3.11).
_BLOCK_CUTOFF = 96
_CHUNK = 1 << 15  # blocks per pass when finding the height range
_TO_BITS = bytes.maketrans(b"DU", b"01")


class EquivSignature(NamedTuple):
    """Complete invariant of a word: final height plus NE-height polynomial."""

    final_height: int
    ne_heights: LaurentPoly


def _letter_walk(word: str) -> tuple[int, dict[int, int]]:
    """:func:`_ne_walk` one letter at a time, for short words.

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
        elif ch == "D":
            h -= 1
            if h < lo:
                lo = h
                neg.append(0)
        else:
            _check_word(word)
    a = {g: c for g, c in enumerate(pos) if c}
    a.update((-1 - k, c) for k, c in enumerate(neg) if c)
    return h, a


@cache
def _byte_tables() -> tuple[list[int], list[tuple[tuple[int, int], ...]]]:
    """Per byte of :func:`_pack_blocks`: the block's height change, and its
    (height relative to the block's start, up-steps from there) pairs."""
    change = []
    pairs = []
    for byte in range(256):
        h = 0
        ups: dict[int, int] = {}
        for bit in range(7, -1, -1):
            if byte >> bit & 1:
                ups[h] = ups.get(h, 0) + 1
                h += 1
            else:
                h -= 1
        change.append(h)
        pairs.append(tuple(ups.items()))
    return change, pairs


def _pack_blocks(word: str) -> bytes:
    """The word in 8-letter blocks, one byte each: U is a 1 bit, and a
    block's first letter is its high bit.  The last block is padded with D,
    which adds no up-step.  The word must be checked first, since ``int``
    also reads ``_``, spaces, signs and a ``0b`` prefix."""
    m = -(-len(word) // 8)
    bits = word.encode("ascii").translate(_TO_BITS).ljust(8 * m, b"0")
    return int(bits, 2).to_bytes(m, "big")


def _ne_walk(word: str) -> tuple[int, dict[int, int]]:
    """The invariant walk: final height e and up-step heights {g: a_g}.

    Raises :class:`~weylwords.errors.ParseError` at the first letter other
    than D or U, at every length, and on a word that is not a ``str``.
    """
    if not isinstance(word, str):
        _check_word(word)
    if len(word) < _BLOCK_CUTOFF:
        return _letter_walk(word)
    _check_word(word)
    data = _pack_blocks(word)
    change, pairs = _byte_tables()
    # The range of the block start heights, a chunk of blocks at a time:
    # a list of all of them would hold about 36 bytes per block.
    lo = hi = h = 0
    for i in range(0, len(data), _CHUNK):
        starts = list(accumulate(map(change.__getitem__, data[i : i + _CHUNK]), initial=h))
        lo, hi, h = min(lo, min(starts)), max(hi, max(starts)), starts[-1]
    # A block's up-steps lie within 7 of its start height; index 0 is lo - 7.
    counts = [0] * (hi - lo + 15)
    for base, byte in zip(accumulate(map(change.__getitem__, data), initial=7 - lo), data):
        for r, c in pairs[byte]:
            counts[base + r] += c
    # The padding D's each took the end height one lower.
    return h + 8 * len(data) - len(word), {g: c for g, c in enumerate(counts, lo - 7) if c}


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

    Equivalent words have equal length, so other pairs need no walk, only
    the check of their letters.  Linear time.
    """
    if len(u) != len(v):
        _check_word(u)
        _check_word(v)
        return False
    return _ne_walk(u) == _ne_walk(v)


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
    _check_word(word)  # before omega reverses the positions
    return omega(up_normal_form(omega(word)))
