"""Local move sets on words and the equivalence classes they generate.

Three kinds of moves all generate the same equivalence relation:

* balanced commutation: swap two adjacent balanced factors;
* balanced flip: replace a balanced factor x by omega(x) in place;
* irreducible balanced commutation: a commutation whose two factors are
  irreducible (their paths touch their common height only at the ends)
  and start with different letters.

Classes can be materialized by breadth-first closure under any move set,
or sized directly by a closed-form product over the step-height
multiplicities.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations

from .enumeration import _choose
from .equivalence import _down_heights, _ne_walk, canonical_form
from .errors import DomainError, ResourceLimitError
from .words import is_balanced, omega, prefix_heights


class Move(enum.Enum):
    """One of the three move kinds."""

    BALANCED_COMMUTATION = "bal"
    BALANCED_FLIP = "flip"
    IRREDUCIBLE_COMMUTATION = "irr"


@dataclass(frozen=True)
class EquivClass:
    """A materialized equivalence class with its canonical representative."""

    members: frozenset[str]
    representative: str


def _positions_by_height(word: str) -> dict[int, list[int]]:
    by_height: dict[int, list[int]] = {}
    for idx, h in enumerate(prefix_heights(word)):
        by_height.setdefault(h, []).append(idx)
    return by_height


def neighbors(word: str, move: Move) -> set[str]:
    """All words reachable from ``word`` by exactly one move of the given kind.

    A factor of ``word`` is balanced iff the prefix heights at its two ends
    agree, so factor pairs are enumerated as index triples i < j < k with
    equal prefix heights (empty factors are skipped: swapping with an empty
    factor is the identity).  The result is a set; ``word`` itself appears
    only if some genuine move fixes it.
    """
    by_height = _positions_by_height(word)
    out: set[str] = set()
    if move is Move.BALANCED_COMMUTATION:
        for posns in by_height.values():
            for i, j, k in combinations(posns, 3):
                out.add(word[:i] + word[j:k] + word[i:j] + word[k:])
    elif move is Move.BALANCED_FLIP:
        for posns in by_height.values():
            for i, j in combinations(posns, 2):
                out.add(word[:i] + omega(word[i:j]) + word[j:])
    elif move is Move.IRREDUCIBLE_COMMUTATION:
        # A balanced factor is irreducible iff its endpoints are adjacent
        # in the list of positions at their height, so only consecutive
        # triples qualify.
        for posns in by_height.values():
            for t in range(len(posns) - 2):
                i, j, k = posns[t], posns[t + 1], posns[t + 2]
                if word[i] != word[j]:
                    out.add(word[:i] + word[j:k] + word[i:j] + word[k:])
    else:
        raise DomainError(f"unknown move kind: {move!r}")
    return out


def equivalence_class(
    word: str, move: Move = Move.BALANCED_COMMUTATION, cap: int = 10**7
) -> EquivClass:
    """Breadth-first closure of ``word`` under the move set.

    Raises :class:`~weylwords.errors.ResourceLimitError` (carrying the
    partial member count) instead of silently truncating when the closure
    exceeds ``cap`` members.
    """
    if cap < 1:
        raise DomainError("cap must be a positive integer")
    seen = {word}
    frontier = [word]
    while frontier:
        nxt = []
        for w in frontier:
            for other in neighbors(w, move):
                if other not in seen:
                    seen.add(other)
                    if len(seen) > cap:
                        raise ResourceLimitError(
                            f"equivalence class of {word!r} exceeds cap {cap}",
                            partial_count=len(seen),
                        )
                    nxt.append(other)
        frontier = nxt
    return EquivClass(members=frozenset(seen), representative=canonical_form(word))


def class_size(word: str) -> int:
    """Number of words equivalent to ``word``, by the closed-form product.

    With a_i the number of up-steps at height i and b_i the number of
    down-steps at height i, the size is

        prod_{i >= 0} C(a_i + b_{i+2} - 1, b_{i+2})
                      * C(b_{-i} + a_{-i-2} - 1, a_{-i-2})

    times a final factor C(a_0 + b_0, a_0) for balanced words, or
    C(a_0 + b_0 - 1, b_0) / C(a_0 + b_0 - 1, a_0) for strictly rising /
    strictly falling ones.  The a_i come from the invariant walk and the
    b_i from them by the crossing identity.
    """
    fh, a = _ne_walk(word)
    b = _down_heights(fh, a)
    span = max(map(abs, [*a, *b]), default=0)
    size = 1
    for i in range(span + 1):
        size *= _choose(a.get(i, 0) + b.get(i + 2, 0) - 1, b.get(i + 2, 0))
        size *= _choose(b.get(-i, 0) + a.get(-i - 2, 0) - 1, a.get(-i - 2, 0))
    a0 = a.get(0, 0)
    b0 = b.get(0, 0)
    if fh == 0:
        size *= _choose(a0 + b0, a0)
    elif fh > 0:
        size *= _choose(a0 + b0 - 1, b0)
    else:
        size *= _choose(a0 + b0 - 1, a0)
    return size


def irreducible_factorization(word: str) -> list[str]:
    """Split a balanced word at every interior return of its path to height 0.

    The parts are irreducible balanced words whose concatenation is the
    input; the empty word yields the empty list.  Raises
    :class:`~weylwords.errors.DomainError` on non-balanced input.
    """
    if not is_balanced(word):
        raise DomainError(f"word {word!r} is not balanced")
    zeros = [idx for idx, h in enumerate(prefix_heights(word)) if h == 0]
    return [word[i:j] for i, j in zip(zeros, zeros[1:])]
