"""Move sets, class closure, the closed-form class size, and factorization."""

import random
from collections import defaultdict
from math import comb

import pytest

from weylwords import enumeration, rewrite
from weylwords import (
    DomainError,
    Move,
    ResourceLimitError,
    class_size,
    equivalence_class,
    irreducible_factorization,
    is_balanced,
    neighbors,
    signature,
)

from conftest import (
    all_words,
    balanced_words,
    bridges_word,
    class_size_by_binomials,
    drift_word,
    peaks_word,
    words_up_to,
)


def _low_span(rng, n, top):
    # A walk reflected into heights 0..top.
    out, h = [], 0
    for _ in range(n):
        up = h == 0 or (h < top and rng.random() < 0.5)
        out.append("U" if up else "D")
        h += 1 if up else -1
    return "".join(out)


def _falling(rng, n):
    # After its first letter the path stays below 0 and drifts down.
    out, h = ["D"], -1
    for _ in range(n - 1):
        up = h < -1 and rng.random() < 0.45
        out.append("U" if up else "D")
        h += 1 if up else -1
    return "".join(out)


def _shaped_words(seed=2024):
    """(shape, word) for seeded words of 10^4 to 10^5 letters in every shape
    whose binomials stress a different part of the class-size product."""
    rng = random.Random(seed)
    n = [rng.randrange(10**4, 10**5) for _ in range(8)]
    k = [rng.randrange(5 * 10**3, 5 * 10**4) for _ in range(4)]
    yield "bridges", bridges_word(rng, n[0])
    yield "bridges", bridges_word(rng, 10**5)
    yield "drift 0.52", drift_word(rng, n[1], 0.52)
    yield "drift 0.45", drift_word(rng, n[2], 0.45)
    yield "peaks", peaks_word(rng, n[3])
    for top, length in zip((2, 4, 20), n[4:7]):
        yield f"low span {top}", _low_span(rng, length, top)
    yield "(UD)^k", "UD" * k[0]
    yield "(UD)^k UUDD", "UD" * k[1] + "UUDD"
    yield "U^k D^k", "U" * k[2] + "D" * k[2]
    yield "D^k U^k", "D" * k[3] + "U" * k[3]
    yield "falling", _falling(rng, n[7])


class TestNeighbors:
    def test_balanced_commutation_swaps_prefix_with_infix(self):
        assert "DDUUDUDUUD" in neighbors("DUDDUUDUUD", Move.BALANCED_COMMUTATION)

    def test_balanced_flip_reverses_and_toggles_a_factor(self):
        assert "DDUUDU" in neighbors("DUDDUU", Move.BALANCED_FLIP)

    def test_irreducible_commutation_swaps_middle_factors(self):
        assert "UUDDDUUD" in neighbors("UDDUUUDD", Move.IRREDUCIBLE_COMMUTATION)

    def test_all_ups_have_no_moves(self):
        for move in Move:
            assert neighbors("UUUU", move) == set()

    def test_irreducible_moves_are_commutations(self):
        for w in words_up_to(8):
            bal = neighbors(w, Move.BALANCED_COMMUTATION)
            assert neighbors(w, Move.IRREDUCIBLE_COMMUTATION) <= bal

    def test_move_symmetry(self):
        for move in Move:
            for w in words_up_to(8):
                for v in neighbors(w, move):
                    assert w in neighbors(v, move)

    def test_signature_invariance(self):
        for move in Move:
            for w in words_up_to(8):
                for v in neighbors(w, move):
                    assert signature(v) == signature(w)


class TestEquivalenceClass:
    def test_duud_class(self):
        cls = equivalence_class("DUUD", Move.BALANCED_COMMUTATION, cap=10**6)
        assert cls.members == frozenset({"DUUD", "UDDU"})
        assert cls.representative in cls.members

    def test_singleton(self):
        for move in Move:
            assert equivalence_class("U", move, cap=10).members == frozenset({"U"})

    def test_cap_exceeded_raises_with_partial_count(self):
        assert class_size("UDDUUDDU") == 6
        with pytest.raises(ResourceLimitError) as excinfo:
            equivalence_class("UDDUUDDU", Move.BALANCED_COMMUTATION, cap=3)
        assert excinfo.value.partial_count is not None
        assert excinfo.value.partial_count > 3

    def test_invalid_cap(self):
        with pytest.raises(DomainError):
            equivalence_class("DU", Move.BALANCED_COMMUTATION, cap=0)

    def test_members_are_pairwise_equivalent(self):
        cls = equivalence_class("DUDDUUDUUD", Move.BALANCED_COMMUTATION, cap=10**6)
        sig = signature("DUDDUUDUUD")
        for w in cls.members:
            assert signature(w) == sig

    def test_all_move_sets_generate_the_same_closure(self):
        for w in words_up_to(8):
            bal = equivalence_class(w, Move.BALANCED_COMMUTATION, cap=10**6).members
            flip = equivalence_class(w, Move.BALANCED_FLIP, cap=10**6).members
            irr = equivalence_class(w, Move.IRREDUCIBLE_COMMUTATION, cap=10**6).members
            assert bal == flip == irr

    def test_closure_equals_signature_class(self):
        by_sig = defaultdict(set)
        for w in all_words(8):
            by_sig[signature(w)].add(w)
        for members in by_sig.values():
            w = min(members)
            cls = equivalence_class(w, Move.BALANCED_COMMUTATION, cap=10**6)
            assert cls.members == frozenset(members)


class TestClassSize:
    def test_duud(self):
        assert class_size("DUUD") == 2

    def test_all_ups(self):
        for n in range(7):
            assert class_size("U" * n) == 1

    def test_matches_bfs_cardinality(self):
        for w in words_up_to(9):
            cls = equivalence_class(w, Move.BALANCED_COMMUTATION, cap=10**6)
            assert class_size(w) == len(cls.members)

    def test_sizes_partition_the_words(self):
        for n in range(10):
            for k in range(n + 1):
                classes = defaultdict(int)
                for w in all_words(n):
                    if w.count("D") == k:
                        classes[signature(w)] += 1
                total = 0
                for sig, count in classes.items():
                    rep = next(
                        w for w in all_words(n)
                        if w.count("D") == k and signature(w) == sig
                    )
                    assert class_size(rep) == count
                    total += count
                assert total == comb(n, k)


class TestClassSizeProduct:
    """``class_size`` multiplies prime powers; the reference multiplies one
    binomial at a time."""

    def test_matches_binomial_by_binomial_on_every_short_word(self):
        for w in words_up_to(12):
            assert class_size(w) == class_size_by_binomials(w)

    def test_matches_binomial_by_binomial_on_long_shaped_words(self):
        for shape, w in _shaped_words():
            assert class_size(w) == class_size_by_binomials(w), shape

    def test_sieve_and_comb_stay_within_the_result_size(self, monkeypatch):
        # Deterministic cost guard: comb only sees pairs whose m exceeds
        # 2R (R = sum of min(r, m - r), a lower bound on the result's bit
        # length), and the prime sieve is never longer than twice the
        # result's bit length.
        combs, sieves, seen = [], [], []
        real_comb, real_primes = enumeration.comb, enumeration._primes_up_to
        real_product = rewrite._binomial_product

        def counting_comb(m, r):
            combs.append(m)
            return real_comb(m, r)

        def counting_primes(n):
            sieves.append(n)
            return real_primes(n)

        def recording_product(pairs):
            seen.append(pairs)
            return real_product(pairs)

        monkeypatch.setattr(enumeration, "comb", counting_comb)
        monkeypatch.setattr(enumeration, "_primes_up_to", counting_primes)
        monkeypatch.setattr(rewrite, "_binomial_product", recording_product)
        sieved = 0
        for shape, w in _shaped_words():
            for log in (combs, sieves, seen):
                log.clear()
            size = class_size(w)
            (pairs,) = seen
            bound = sum(min(r, m - r) for m, r in pairs if 0 < r < m)
            assert all(m > 2 * bound for m in combs), shape
            assert all(n <= 2 * size.bit_length() for n in sieves), shape
            assert len(sieves) <= 1, shape
            if shape in ("bridges", "low span 2"):
                assert not combs and sieves, shape
            sieved += len(sieves)
        assert sieved >= 8


class TestIrreducibleFactorization:
    def test_splits_at_interior_returns(self):
        assert irreducible_factorization("DUUUDD") == ["DU", "UUDD"]

    def test_irreducible_word_is_its_own_factorization(self):
        assert irreducible_factorization("DDUDUU") == ["DDUDUU"]

    def test_empty(self):
        assert irreducible_factorization("") == []

    def test_rejects_unbalanced(self):
        with pytest.raises(DomainError):
            irreducible_factorization("UUD")

    def test_concatenation_reproduces_the_word(self):
        for w in balanced_words(10):
            parts = irreducible_factorization(w)
            assert "".join(parts) == w
            for part in parts:
                assert is_balanced(part)
                assert part
                # irreducible: no interior return to the starting height
                h = 0
                for ch in part[:-1]:
                    h += 1 if ch == "U" else -1
                    assert h != 0

    def test_uib_ends_with_d_and_dib_ends_with_u(self):
        for w in balanced_words(10):
            for part in irreducible_factorization(w):
                if part[0] == "U":
                    assert part[-1] == "D"
                else:
                    assert part[-1] == "U"
