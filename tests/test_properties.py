"""Generated-input properties complementing the exhaustive small-case checks."""

from hypothesis import given, settings
from hypothesis import strategies as st

from weylwords import (
    LaurentPoly,
    canonical_form,
    class_size,
    equivalent,
    final_height,
    height_polys,
    is_balanced,
    normal_order,
    omega,
    parse_word,
)

words = st.text(alphabet="DU", max_size=40)
short_words = st.text(alphabet="DU", max_size=12)


@given(words)
def test_omega_is_an_involution(w):
    assert omega(omega(w)) == w


@given(words)
def test_parse_word_is_idempotent_and_case_folding(w):
    assert parse_word(w.lower()) == w
    assert parse_word(w) == w


@given(words, words)
def test_omega_is_an_anti_morphism(u, v):
    assert omega(u + v) == omega(v) + omega(u)


@given(words)
def test_height_polynomial_accounting(w):
    H, ne, se = height_polys(w)
    assert H.evaluate() == len(w) + 1
    assert ne.evaluate() == w.count("U")
    assert se.evaluate() == w.count("D")
    assert H == ne + se + LaurentPoly({final_height(w): 1})


@given(words, words)
def test_concatenation_rule(u, v):
    k = final_height(u)
    assert height_polys(u + v)[1] == height_polys(u)[1] + height_polys(v)[1].shifted(k)


@given(words)
def test_equivalence_is_reflexive(w):
    assert equivalent(w, w)


@given(words, words)
def test_streaming_decision_matches_signature(u, v):
    # Against the positional walk: equivalent and signature share one walk.
    positional = (final_height(u), height_polys(u)[1]) == (final_height(v), height_polys(v)[1])
    assert equivalent(u, v) == positional


@given(short_words)
def test_canonical_form_is_an_equivalent_fixed_point(w):
    c = canonical_form(w)
    assert equivalent(w, c)
    assert canonical_form(c) == c


@given(short_words)
def test_class_size_is_positive(w):
    assert class_size(w) >= 1


@given(words)
def test_balanced_words_commute_with_their_reversal(w):
    if is_balanced(w):
        assert equivalent(w, omega(w))


@settings(max_examples=60)
@given(short_words, short_words)
def test_normal_order_is_multiplicative_on_equivalence(u, v):
    # replacing a factor by an equivalent one preserves the operator
    cu = canonical_form(u)
    assert normal_order(u + v) == normal_order(cu + v)
