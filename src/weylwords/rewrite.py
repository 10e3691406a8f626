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

from .enumeration import _binomial_product
from .equivalence import _down_heights, _ne_walk, canonical_form
from .errors import DomainError, _as_int, _budget_error
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

    Raises :class:`~weylwords.errors.ResourceLimitError` instead of
    silently truncating when the class has more than ``cap`` members.  The
    closed-form :func:`class_size` is checked before any closure, so the
    error carries the exact size; the closure checks the cap again as it
    grows, with the member count so far.
    """
    cap = _as_int(cap, "cap")
    if cap < 1:
        raise DomainError("cap must be a positive integer")
    size = class_size(word)
    if size > cap:
        raise _budget_error("equivalence class", "member", "cap", cap, "members", size, "asked for")
    seen = {word}
    frontier = [word]
    while frontier:
        nxt = []
        for w in frontier:
            for other in neighbors(w, move):
                if other not in seen:
                    seen.add(other)
                    if len(seen) > cap:
                        raise _budget_error(
                            "equivalence class", "member", "cap", cap, "members", len(seen)
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

    The product is evaluated as one product of prime powers, not one
    binomial at a time: the binomials are merged into a single
    factorization over a prime sieve at most twice as long as the
    result's bit length (binomials C(m, r) with m beyond that are taken
    whole), and the prime powers are multiplied by a balanced product
    tree.  That costs about as much as a few multiplications of the
    result's size, where a running product of binomials is quadratic in
    it: a uniform 10^6-letter word takes about 0.2 s on a 2-vCPU Xeon
    (CPython 3.11), against 0.7 s binomial by binomial.
    """
    fh, a = _ne_walk(word)
    b = _down_heights(fh, a)
    # Only heights with b_(i+2) > 0 or a_(-i-2) > 0 give a factor other than 1.
    pairs = [(a.get(g - 2, 0) + n - 1, n) for g, n in b.items() if g >= 2]
    pairs += [(n + b.get(g + 2, 0) - 1, n) for g, n in a.items() if g <= -2]
    a0 = a.get(0, 0)
    b0 = b.get(0, 0)
    if fh == 0:
        pairs.append((a0 + b0, a0))
    elif fh > 0:
        pairs.append((a0 + b0 - 1, b0))
    else:
        pairs.append((a0 + b0 - 1, a0))
    return _binomial_product(pairs)


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
