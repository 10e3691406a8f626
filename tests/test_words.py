"""Word primitives, the reversal involution, and the height polynomials."""

import random
from fractions import Fraction

import pytest

from weylwords import (
    DomainError,
    LaurentPoly,
    ParseError,
    final_height,
    height_polys,
    is_balanced,
    is_falling,
    is_rising,
    omega,
    parse_word,
    prefix_heights,
    reading_word,
    standard_path,
)

from conftest import parse_word_by_loop, random_word, words_up_to


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as err:
        return type(err), str(err), err.position


class TestParseWord:
    def test_plain(self):
        assert parse_word("DUUD") == "DUUD"

    def test_empty(self):
        assert parse_word("") == ""

    def test_case_folding(self):
        assert parse_word("duUD") == "DUUD"

    def test_rejects_other_characters(self):
        with pytest.raises(ParseError) as excinfo:
            parse_word("DUXD")
        assert "position 3" in str(excinfo.value)
        assert excinfo.value.position == 3

    def test_fast_check_matches_the_letter_loop(self):
        texts = ["", "dUuD", "UDdu", "ß", "Dß", "ı", "uı", "Ｄ", "DＤ", "\x00", "DU\x00", "é", "x"]
        texts += ["u" * 70 + "ßD", "D" * 70 + "ı", b"du"]
        for text in texts:
            assert _outcome(parse_word, text) == _outcome(parse_word_by_loop, text), text

    def test_long_word_with_one_bad_letter_near_its_end(self):
        text = "dU" * 499_990 + "UDx" + "Du" * 8
        assert len(text) == 10**6 - 1
        outcome = _outcome(parse_word, text)
        assert outcome == _outcome(parse_word_by_loop, text)
        assert outcome[2] == 999_983
        assert "'x'" in outcome[1]


class TestOmega:
    def test_reverses_and_toggles(self):
        assert omega("UDD") == "UUD"

    def test_empty(self):
        assert omega("") == ""

    def test_involution(self):
        for w in words_up_to(9):
            assert omega(omega(w)) == w

    def test_anti_morphism(self):
        assert omega("UD" + "DDU") == omega("DDU") + omega("UD")


class TestFinalHeight:
    def test_mixed_word(self):
        assert final_height("UDUUDDD") == -1

    def test_all_ups(self):
        for n in range(6):
            assert final_height("U" * n) == n

    def test_balanced_words_have_height_zero(self):
        assert final_height("DUUD") == 0
        assert is_balanced("DUUD")

    def test_rising_falling(self):
        assert is_rising("UUD") and not is_falling("UUD")
        assert is_falling("DDU") and not is_rising("DDU")
        assert is_rising("") and is_falling("")


class TestStandardPath:
    def test_two_steps(self):
        assert standard_path("UD") == [(0, 0), (1, 1), (2, 0)]

    def test_empty(self):
        assert standard_path("") == [(0, 0)]

    def test_final_vertex_of_longer_word(self):
        assert standard_path("UDUUDDD")[-1] == (7, -1)

    def test_reading_word_round_trip(self):
        for w in words_up_to(8):
            assert reading_word(standard_path(w)) == w

    def test_reading_word_rejects_bad_step(self):
        with pytest.raises(DomainError):
            reading_word([(0, 0), (2, 0)])


class TestLaurentPoly:
    def test_zero_coefficients_are_dropped(self):
        assert LaurentPoly({3: 0, 1: 2}) == LaurentPoly({1: 2})
        assert LaurentPoly({1: 1}) + LaurentPoly({1: -1}) == LaurentPoly.zero()

    def test_structural_equality_and_hash(self):
        a = LaurentPoly({-1: 1, 0: 3})
        b = LaurentPoly([(0, 3), (-1, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != LaurentPoly({0: 3})

    def test_shift_and_evaluate(self):
        p = LaurentPoly({-1: 1, 2: 5})
        assert p.shifted(3) == LaurentPoly({2: 1, 5: 5})
        assert p.evaluate() == 6
        assert p.evaluate(Fraction(2)) == Fraction(41, 2)

    def test_json_round_trip(self):
        p = LaurentPoly({-2: 10**30, 5: -7})
        data = p.to_json_dict()
        assert data == {"-2": str(10**30), "5": "-7"}
        assert LaurentPoly.from_json_dict(data) == p


class TestHeightPolys:
    def test_worked_example(self):
        H, ne, se = height_polys("UDUUDDD")
        assert H == LaurentPoly({-1: 1, 0: 3, 1: 3, 2: 1})
        assert ne == LaurentPoly({0: 2, 1: 1})
        assert se == LaurentPoly({0: 1, 1: 2, 2: 1})

    def test_empty_word(self):
        H, ne, se = height_polys("")
        assert H == LaurentPoly({0: 1})
        assert ne == LaurentPoly.zero()
        assert se == LaurentPoly.zero()

    def test_coefficient_sums(self):
        for w in words_up_to(9):
            H, ne, se = height_polys(w)
            assert H.evaluate() == len(w) + 1
            assert ne.evaluate() == w.count("U")
            assert se.evaluate() == w.count("D")

    def test_concatenation_product_rules(self):
        # H(uv) = H(u) + z^k (H(v) - 1), and the NE/SE analogues without
        # the -1, where k is the final height of u.
        rng = random.Random(20240817)
        for _ in range(1000):
            u = random_word(rng, rng.randrange(0, 25))
            v = random_word(rng, rng.randrange(0, 25))
            k = final_height(u)
            hu, neu, seu = height_polys(u)
            hv, nev, sev = height_polys(v)
            huv, neuv, seuv = height_polys(u + v)
            assert huv == hu + (hv + LaurentPoly({0: -1})).shifted(k)
            assert neuv == neu + nev.shifted(k)
            assert seuv == seu + sev.shifted(k)


def _tail_ne(b):
    # sum_{j >= b} z^j - sum_{j >= 1} z^j after cancellation
    if b <= 0:
        return LaurentPoly({j: 1 for j in range(b, 1)})
    return LaurentPoly({j: -1 for j in range(1, b)})


def _tail_se(b):
    # sum_{j >= 0} z^j - sum_{j >= b+1} z^j after cancellation
    if b >= 0:
        return LaurentPoly({j: 1 for j in range(0, b + 1)})
    return LaurentPoly({j: -1 for j in range(b + 1, 0)})


class TestHeightPolyIdentities:
    def test_ne_identity(self):
        for w in words_up_to(10):
            H, ne, _ = height_polys(w)
            b = final_height(w)
            assert H == ne + ne.shifted(1) + _tail_ne(b)

    def test_se_identity(self):
        for w in words_up_to(10):
            H, _, se = height_polys(w)
            b = final_height(w)
            assert H == se + se.shifted(-1) + _tail_se(b)

    def test_vertex_step_split(self):
        for w in words_up_to(10):
            H, ne, se = height_polys(w)
            b = final_height(w)
            assert H == ne + se + LaurentPoly({b: 1})

    def test_omega_reflects_the_path(self):
        # Reflecting the standard path across a vertical axis and shifting
        # it back to start at height 0 must give the standard path of
        # omega(w); in particular the reflected up-step heights are the
        # NE-height polynomial of omega(w).
        for w in words_up_to(10):
            heights = prefix_heights(w)
            b = heights[-1]
            reflected = [(i, h - b) for i, h in enumerate(reversed(heights))]
            assert reading_word(reflected) == omega(w)
            ne_refl = {}
            for (_, h0), (_, h1) in zip(reflected, reflected[1:]):
                if h1 == h0 + 1:
                    ne_refl[h0] = ne_refl.get(h0, 0) + 1
            _, ne_omega, _ = height_polys(omega(w))
            assert ne_omega == LaurentPoly(ne_refl)
            # equivalent closed form: H_NE(omega(w)) = z^(-b-1) H_SE(w)
            _, _, se = height_polys(w)
            assert ne_omega == se.shifted(-b - 1)

    def test_prefix_heights_match_path(self):
        for w in words_up_to(8):
            assert [(i, h) for i, h in enumerate(prefix_heights(w))] == standard_path(w)
