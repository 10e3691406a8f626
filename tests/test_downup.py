"""Normal ordering in the deformed algebra and its equivalence question."""

import random
from fractions import Fraction

import pytest

from weylwords import (
    DomainError,
    DownUpElement,
    DownUpParams,
    ResourceLimitError,
    WeylElement,
    downup,
    du_equivalent,
    du_normal_order,
    equivalent,
    is_normal_monomial,
    normal_order,
    signature,
)

from conftest import du_normal_terms_recursive, words_up_to

WEYL_LIKE = (DownUpParams.of(1, 0, 1), DownUpParams.of(Fraction(1, 2), Fraction(1, 2), Fraction(3, 2)))


class TestNormalMonomials:
    def test_factor_scan(self):
        assert is_normal_monomial("UUDUDUDD")
        assert not is_normal_monomial("DDU")
        assert not is_normal_monomial("UDUU")
        assert is_normal_monomial("")

    def test_normal_monomials_have_the_expected_shape(self):
        for w in words_up_to(9):
            a = len(w) - len(w.lstrip("U"))
            c = len(w) - len(w.rstrip("D"))
            middle = w[a : len(w) - c]
            shaped = middle == "DU" * (len(middle) // 2) and len(middle) % 2 == 0
            assert is_normal_monomial(w) == shaped


class TestDuNormalOrder:
    def test_already_normal(self):
        for params in ((1, 0, 1), (2, -1, 0)):
            assert du_normal_order("DU", params).terms == {"DU": Fraction(1)}

    def test_single_relation_application(self):
        element = du_normal_order("DDU", (Fraction(2), Fraction(-3), Fraction(5)))
        assert element.terms == {
            "DUD": Fraction(2),
            "UDD": Fraction(-3),
            "D": Fraction(5),
        }

    def test_duu_at_0_1_0(self):
        assert du_normal_order("DUU", (0, 1, 0)).terms == {"UUD": Fraction(1)}

    def test_keys_are_normal(self):
        for w in words_up_to(7):
            for params in WEYL_LIKE:
                for key in du_normal_order(w, params).terms:
                    assert is_normal_monomial(key)

    def test_confluence_leftmost_vs_rightmost(self):
        for w in words_up_to(8):
            assert du_normal_order(w, (1, 0, 1), strategy="leftmost") == du_normal_order(
                w, (1, 0, 1), strategy="rightmost"
            )

    def test_unknown_strategy(self):
        with pytest.raises(DomainError):
            du_normal_order("DDU", (1, 0, 1), strategy="middle")

    @pytest.mark.parametrize(
        "params", [(1, 1), (1, 0, 1, 0), 1, None, "101", (1, "x", 1), (1, None, 1), ("1/0", 0, 1), (1, float("inf"), 1)]
    )
    def test_params_must_be_three_rationals(self, params):
        with pytest.raises(DomainError, match="three rationals"):
            du_normal_order("DU", params)
        with pytest.raises(DomainError, match="three rationals"):
            du_equivalent("DU", "UD", params)

    @pytest.mark.parametrize("values", [(1, 1), (1, 0, 1, 0), (None, 1, 1), ("1/0", 0, 1), ()])
    def test_of_refuses_anything_but_three_rationals(self, values):
        with pytest.raises(DomainError, match="three rationals"):
            DownUpParams.of(*values)

    def test_params_built_directly_are_coerced(self):
        expected = du_normal_order("DDU", (Fraction(1, 2), 0, 1))
        assert du_normal_order("DDU", DownUpParams(0.5, 0, 1)) == expected
        assert du_normal_order("DDU", DownUpParams("1/2", 0, 1)) == expected


class TestAgainstTheRecursiveReference:
    GRID = [
        (0, 0, 0), (0, 0, 1), (0, -1, 1), (1, 0, 1), (2, -1, 0), (0, 1, 0), (0, 2, 0),
        (1, 1, 1), (-1, -1, 1), (1, -1, 1), (Fraction(1, 2), Fraction(1, 2), Fraction(3, 2)),
    ]

    def test_every_short_word(self):
        words = list(words_up_to(10))
        for params in (DownUpParams.of(*p) for p in self.GRID):
            for strategy in ("leftmost", "rightmost"):
                memo = {}
                for w in words:
                    want = du_normal_terms_recursive(w, params, strategy, memo)
                    got = du_normal_order(w, params, strategy=strategy)
                    assert got.terms == want, (w, params, strategy)

    def test_each_word_is_rewritten_once(self, monkeypatch):
        # Words are taken in decreasing m, the sum of the U positions, so a
        # word's coefficient is complete before it is first looked at.
        seen = []

        def recording(word, strategy):
            seen.append(word)
            return first_redex(word, strategy)

        first_redex = downup._first_redex
        monkeypatch.setattr(downup, "_first_redex", recording)
        for w in words_up_to(9):
            for strategy in ("leftmost", "rightmost"):
                seen.clear()
                du_normal_order(w, (1, 1, 1), strategy=strategy)
                assert len(seen) == len(set(seen)), (w, strategy)

    def test_deep_pair(self):
        # Rewriting these 160-letter words chains about 80 rewrites deep,
        # past the interpreter's recursion limit for a recursive rewriter.
        prefix = "D" * 76 + "U" * 76
        u, v = prefix + "DUUDUDUD", prefix + "UDDUUDUD"
        assert equivalent(u, v)
        assert du_normal_order(u, (1, 0, 1)) == du_normal_order(v, (1, 0, 1))
        assert du_equivalent(u, v, (1, 0, 1))

    def test_strategies_agree_on_a_long_word(self):
        rng = random.Random(1)
        w = "".join(rng.choice("DU") for _ in range(200))
        form = du_normal_order(w, (1, 0, 1))
        assert form == du_normal_order(w, (1, 0, 1), strategy="rightmost")
        assert all(is_normal_monomial(key) for key in form.terms)


class TestRewriteBudget:
    def _rewrites(self, monkeypatch, word, params):
        """The number of words rewritten in normalizing ``word``: those with a redex."""
        found = []
        first_redex = downup._first_redex

        def recording(w, strategy):
            found.append(first_redex(w, strategy))
            return found[-1]

        with monkeypatch.context() as patch:
            patch.setattr(downup, "_first_redex", recording)
            du_normal_order(word, params)
        return sum(idx != -1 for idx in found)

    def test_budget_is_exact(self, monkeypatch):
        word = "D" * 6 + "U" * 6
        expected = du_normal_order(word, (1, 1, 1))
        needed = self._rewrites(monkeypatch, word, (1, 1, 1))
        assert needed > 100
        monkeypatch.setattr(downup, "MAX_REWRITES", needed)
        assert du_normal_order(word, (1, 1, 1)) == expected
        monkeypatch.setattr(downup, "MAX_REWRITES", needed - 1)
        with pytest.raises(ResourceLimitError) as info:
            du_normal_order(word, (1, 1, 1))
        assert str(info.value) == (
            "normal ordering exceeds the rewrite budget"
            f" (MAX_REWRITES = {needed - 1} words rewritten); reached {needed - 1}"
        )
        assert info.value.partial_count == needed - 1

    def test_equivalence_is_refused_too(self, monkeypatch):
        monkeypatch.setattr(downup, "MAX_REWRITES", 10)
        with pytest.raises(ResourceLimitError, match="MAX_REWRITES = 10 words"):
            du_equivalent("D" * 6 + "U" * 6, "U" * 6 + "D" * 6, (1, 0, 1))

    def test_largest_inputs_stay_well_under_the_budget(self, monkeypatch):
        prefix = "D" * 76 + "U" * 76
        assert 10 * self._rewrites(monkeypatch, prefix + "DUUDUDUD", (1, 0, 1)) < downup.MAX_REWRITES


class TestDuEquivalent:
    def test_weyl_point(self):
        assert du_equivalent("DUUD", "UDDU", (1, 0, 1))

    def test_homogenized_point(self):
        # (2, -1, 0) also satisfies alpha + beta = gamma - beta = 1.
        assert du_equivalent("DUUD", "UDDU", (2, -1, 0))

    def test_counterexample_catalog(self):
        # Parameter points where equal monomials are NOT Weyl-equivalent.
        cases = [
            ((0, 1, 0), "DUU", "UUD"),
            ((0, 2, 0), "DUUUUD", "UUDDUU"),
            ((0, -1, 1), "DUUUU", "UUUUD"),
            ((-1, -1, 1), "DUUU", "UUUD"),
            ((1, -1, 1), "DUUUUUU", "UUUUUUD"),
        ]
        for params, u, v in cases:
            assert du_equivalent(u, v, params), (params, u, v)
            assert not equivalent(u, v)

    def test_one_directional_in_general(self):
        # Weyl equivalence always implies deformed equality, the converse
        # only under alpha + beta = gamma - beta = 1.
        assert du_equivalent("DUU", "UUD", (0, 1, 0))
        assert not equivalent("DUU", "UUD")
        for w in words_up_to(6):
            for v in words_up_to(6):
                if len(v) == len(w) and equivalent(w, v):
                    assert du_equivalent(w, v, (0, 1, 0))

    def test_matches_weyl_equivalence_when_condition_holds(self):
        words = list(words_up_to(6))
        for params in WEYL_LIKE:
            keys = {w: du_normal_order(w, params) for w in words}
            sigs = {w: signature(w) for w in words}
            for i, u in enumerate(words):
                for v in words[i:]:
                    assert (keys[u] == keys[v]) == (sigs[u] == sigs[v])


class TestBridgeToOperatorArithmetic:
    def test_weyl_point_normal_forms_re_expand_consistently(self):
        # At (1, 0, 1) both rewriting relations are consequences of
        # DU - UD = 1, so re-expanding the deformed normal form with the
        # operator arithmetic must reproduce the word's own expansion.
        for w in words_up_to(8):
            element = du_normal_order(w, (1, 0, 1))
            acc = {}
            for mono, coeff in element.terms.items():
                assert coeff.denominator == 1
                for key, c in normal_order(mono).terms.items():
                    acc[key] = acc.get(key, 0) + int(coeff) * c
            assert WeylElement(acc) == normal_order(w), w


class TestDownUpElement:
    def test_rejects_non_normal_keys(self):
        with pytest.raises(DomainError):
            DownUpElement({"DDU": Fraction(1)})

    def test_drops_zeros(self):
        assert DownUpElement({"DU": Fraction(0), "U": Fraction(1)}).terms == {
            "U": Fraction(1)
        }

    def test_equality_and_hash(self):
        a = du_normal_order("DUUD", (1, 0, 1))
        b = du_normal_order("UDDU", (1, 0, 1))
        assert a == b and hash(a) == hash(b)

    def test_sorted_terms(self):
        element = du_normal_order("DDU", (1, 1, 1))
        assert [w for w, _ in element.sorted_terms()] == sorted(element.terms)
