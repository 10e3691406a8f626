"""The invariant walk against the positional walk.

``_ne_walk`` reads a word's final height e and up-step heights a_g; the
down-step heights then follow from the crossing identity
b_(g+1) = a_g - [0 <= g < e] + [e <= g < 0] (``_down_heights``).
``height_polys`` counts every height position by position from
``prefix_heights``, so each comparison below checks one walk against the
other.
"""

import random
import sys

from weylwords import EquivSignature, LaurentPoly, apply_to_monomial, height_polys, signature
from weylwords.equivalence import _down_heights, _ne_walk

from conftest import words_up_to


def _seeded_words():
    # Drifts below, at and above 1/2 give final heights of both signs,
    # so the identity's correction runs over long height ranges.
    rng = random.Random(18)
    for length in (10**4, 3 * 10**4, 10**5):
        for p_up in (0.45, 0.5, 0.6):
            yield "".join("U" if rng.random() < p_up else "D" for _ in range(length))


class TestCrossingIdentity:
    def test_every_word_up_to_12_letters(self):
        for w in words_up_to(12):
            assert _down_heights(*_ne_walk(w)) == dict(height_polys(w)[2].items())

    def test_seeded_long_words(self):
        for w in _seeded_words():
            assert _down_heights(*_ne_walk(w)) == dict(height_polys(w)[2].items())

    def test_vertex_heights_count_every_vertex(self):
        for w in words_up_to(12):
            assert height_polys(w)[0].evaluate() == len(w) + 1
        for w in _seeded_words():
            assert height_polys(w)[0].evaluate() == len(w) + 1

    def test_signature_wraps_the_walk(self):
        for w in words_up_to(8):
            e, a = _ne_walk(w)
            assert signature(w) == EquivSignature(e, LaurentPoly(a))


def test_positional_routes_do_not_use_the_invariant_walk(monkeypatch):
    # Criterion 3 compares H, H_SE and the monomial action with the
    # signature, so those routes must not be built on it.
    def refuse(*args):
        raise AssertionError("positional route called the invariant walk")

    for name, module in list(sys.modules.items()):
        if name == "weylwords" or name.startswith("weylwords."):
            for attr in ("_ne_walk", "signature"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    H, ne, se = height_polys("UDDUUDDU")
    assert (H.evaluate(), ne.evaluate(), se.evaluate()) == (9, 4, 4)
    assert apply_to_monomial("DUUD", 3) == (12, 0)
