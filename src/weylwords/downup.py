"""Normal ordering in the three-parameter deformation with relations

    D D U = alpha D U D + beta U D D + gamma D
    D U U = alpha U D U + beta U U D + gamma U.

Read left to right these are rewriting rules; a monomial is *normal* when
it contains neither DDU nor DUU as a factor, which pins it to the shape
U^a (DU)^b D^c.  Each rewrite strictly lowers m, the sum of the positions
of the U's, so rewriting terminates, and the normal monomials form a basis
of the algebra, so the resulting normal form is independent of the rewrite
order.  When alpha + beta = 1 and gamma - beta = 1 two monomials have equal
normal forms exactly when the words are Weyl-equivalent.

Parameters are exact rationals.  The rewriter is one loop over pending
words, bucketed by m and taken in decreasing m: every word that rewrites
into w has a larger m than w, so w's coefficient is complete when its
bucket comes up, and each distinct word is rewritten once per call.
Nothing is kept between calls and nothing recurses.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import DomainError, _budget_error
from .words import _check_word, _SparseTerms

# Words one normal ordering may rewrite; D^14 U^14 at (1,1,1) needs 516,021.
MAX_REWRITES = 10**6


class DownUpParams(NamedTuple):
    """The three scalars of the deformed relations, as exact rationals."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    @classmethod
    def of(cls, *values) -> "DownUpParams":
        """The three values as exact rationals; anything else is a DomainError."""
        try:
            return cls(*map(Fraction, values))
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            message = f"params must be three rationals (alpha, beta, gamma), got {values!r}"
            raise DomainError(message) from None


class DownUpElement(_SparseTerms):
    """Finite rational combination of normal monomials U^a (DU)^b D^c.

    ``terms`` maps each normal word to a nonzero Fraction; equality is map
    equality.  Immutable and hashable.
    """

    __slots__ = ()

    def __init__(self, terms=()):
        super().__init__(terms)
        for w in self._terms:
            _check_word(w)
            if not is_normal_monomial(w):
                raise DomainError(f"{w!r} is not a normal monomial")

    def _show(self, w: str, c: Fraction) -> str:
        return f"{c}*{w or '1'}"


def is_normal_monomial(word: str) -> bool:
    """True iff the word avoids both factors DDU and DUU."""
    return "DDU" not in word and "DUU" not in word


# Right-hand sides of the relations, in the order of (alpha, beta, gamma).
_REPLACEMENTS = {"DDU": ("DUD", "UDD", "D"), "DUU": ("UDU", "UUD", "U")}


def _first_redex(word: str, strategy: str) -> int:
    hits = [i for i in (word.find("DDU"), word.find("DUU")) if i != -1]
    if strategy == "leftmost":
        return min(hits) if hits else -1
    if strategy == "rightmost":
        return max(word.rfind("DDU"), word.rfind("DUU"))
    raise DomainError(f"unknown strategy {strategy!r}")


def _normal_terms(word: str, params: DownUpParams, strategy: str) -> dict[str, Fraction]:
    _check_word(word)
    params = [int(x) if x.denominator == 1 else x for x in params]  # ints compute faster
    m = sum(i for i, ch in enumerate(word) if ch == "U")
    pending = {m: {word: 1}}  # m -> {word with that m: coefficient}
    result = {}
    rewrites = 0
    while pending:
        for w, c in pending.pop(m, {}).items():
            if not c:
                continue
            idx = _first_redex(w, strategy)
            if idx == -1:
                result[w] = Fraction(c)
                continue
            if rewrites == MAX_REWRITES:
                raise _budget_error(
                    "normal ordering", "rewrite", "MAX_REWRITES", MAX_REWRITES, "words rewritten",
                    rewrites,
                )
            rewrites += 1
            head, redex, tail = w[:idx], w[idx : idx + 3], w[idx + 3 :]
            # m drops by 1 and 2 for the alpha and beta words; the gamma word
            # keeps one U of the redex at most and moves each tail U left by 2.
            drops = (1, 2, idx + 2 + (redex == "DUU") + 2 * tail.count("U"))
            for repl, coeff, drop in zip(_REPLACEMENTS[redex], params, drops):
                if coeff:
                    bucket = pending.setdefault(m - drop, {})
                    new, term = head + repl + tail, coeff * c
                    bucket[new] = bucket[new] + term if new in bucket else term
        m -= 1
    return result


def _coerce_params(params) -> DownUpParams:
    """``params`` as exact rationals; anything but three rationals is a DomainError.

    A DownUpParams is coerced too, since its constructor takes any values;
    a string is refused, though three of its characters would unpack.
    """
    if isinstance(params, str) or not isinstance(params, Iterable):
        params = (params,)  # one value, which ``of`` refuses
    return DownUpParams.of(*params)


def du_normal_order(word: str, params, strategy: str = "leftmost") -> DownUpElement:
    """Normal form of a monomial: rewrite until no DDU or DUU factor remains.

    ``params`` is a DownUpParams or any (alpha, beta, gamma) triple of
    rationals.  ``strategy`` picks which redex to contract first; the
    result is the same either way (tested), the knob exists to make that
    checkable.
    """
    return DownUpElement(_normal_terms(word, _coerce_params(params), strategy))


def du_equivalent(u: str, v: str, params) -> bool:
    """True iff the two monomials are equal in the algebra with the given scalars."""
    params = _coerce_params(params)
    return _normal_terms(u, params, "leftmost") == _normal_terms(v, params, "leftmost")
