"""The complete invariant, the streaming decision, and canonical forms."""

import random
from collections import defaultdict
from itertools import chain

import pytest

from weylwords import (
    DomainError,
    EquivSignature,
    LaurentPoly,
    Move,
    canonical_form,
    equivalence,
    equivalence_class,
    equivalent,
    final_height,
    height_polys,
    is_rising,
    is_up_normal,
    omega,
    signature,
    up_normal_form,
)
from weylwords.equivalence import _BLOCK_CUTOFF

from conftest import (
    all_words,
    balanced_words,
    bridges_word,
    drift_word,
    ne_walk_by_position,
    peaks_word,
    random_balanced_commutation,
    random_word,
    words_up_to,
)


def _long_shapes():
    # Falling and rising drifts, bridges and peaks, above the block cutoff,
    # cut to every length residue mod 8.
    rng = random.Random(46)
    for n in (200, 20_000):
        for r in range(8):
            for w in (
                drift_word(rng, n, 0.45),
                drift_word(rng, n, 0.55),
                bridges_word(rng, n, block=n // 10),
                peaks_word(rng, n),
            ):
                yield w[: len(w) - (len(w) - r) % 8]


def _positional(w):
    """(e, H_NE) from the positional walk, independent of the invariant walk."""
    return final_height(w), height_polys(w)[1]


class TestSignature:
    def test_duud(self):
        assert signature("DUUD") == EquivSignature(0, LaurentPoly({-1: 1, 0: 1}))

    def test_uddu_matches_duud(self):
        assert signature("UDDU") == signature("DUUD")

    def test_empty(self):
        assert signature("") == EquivSignature(0, LaurentPoly.zero())

    def test_components(self):
        for w in words_up_to(8):
            sig = signature(w)
            assert sig.final_height == final_height(w)
            assert sig.ne_heights == height_polys(w)[1]
            assert sig.ne_heights.evaluate() == w.count("U")

    def test_up_step_heights_of_rising_words_fill_an_interval(self):
        # Rising words share their up-step multiset with an up-normal word,
        # whose structure puts one run of U's at each of h consecutive
        # heights.  Falling words can skip heights (UDDDU steps up at -2
        # and 0 only), so the claim is restricted to rising input.
        assert dict(signature("UDDDU").ne_heights.items()) == {-2: 1, 0: 1}
        for w in words_up_to(10):
            ne = signature(w).ne_heights
            if ne.is_zero():
                continue
            lo, hi = ne.min_exponent(), ne.max_exponent()
            assert lo <= 0
            if is_rising(w):
                assert all(ne[e] >= 1 for e in range(lo, hi + 1))


class TestEquivalent:
    def test_smallest_nontrivial_identity(self):
        assert equivalent("DUUD", "UDDU")

    def test_two_commutations_example(self):
        assert equivalent("DUDDUUDUUD", "DDUUDUUDDU")

    def test_reflexive(self):
        for w in words_up_to(7):
            assert equivalent(w, w)

    def test_single_letters_differ(self):
        assert not equivalent("U", "D")

    def test_equal_height_polys_but_different_final_heights(self):
        # Both words have height polynomial 2 + 2z + z^2 yet are distinct.
        assert height_polys("UDUU")[0] == height_polys("UUDD")[0]
        assert final_height("UDUU") != final_height("UUDD")
        assert not equivalent("UDUU", "UUDD")

    def test_early_exit_on_unvisited_height(self):
        assert not equivalent("UD", "DU")
        assert not equivalent("UU", "UUUD")

    def test_matches_signature_comparison_exhaustively(self):
        # Against the positional walk: equivalent and signature share one walk.
        for n in range(0, 9):
            words = list(all_words(n))
            keys = {w: _positional(w) for w in words}
            for i, u in enumerate(words):
                for v in words[i:]:
                    assert equivalent(u, v) == (keys[u] == keys[v])

    def test_matches_signature_on_random_pairs(self):
        # 10^5 pairs with lengths up to 10^4; most pairs are short so the
        # check stays fast, a dedicated slice exercises the full length.
        rng = random.Random(987654321)
        checked = 0
        for trial in range(10**5):
            if trial < 25:
                length = 10**4
            else:
                length = min(10**4, int(rng.expovariate(1 / 18)))
            u = random_word(rng, length)
            style = rng.random()
            if style < 0.40:
                v = random_word(rng, length)
            elif style < 0.75:
                v = u
                for _ in range(rng.randrange(1, 4)):
                    v = random_balanced_commutation(rng, v)
            else:
                letters = list(u)
                rng.shuffle(letters)
                v = "".join(letters)
            # Against the positional walk: equivalent and signature share one walk.
            assert equivalent(u, v) == (ne_walk_by_position(u) == ne_walk_by_position(v))
            checked += 1
        assert checked == 10**5

    def test_long_words_in_linear_time(self):
        # The checker is built for multi-million-letter inputs; a quick
        # smoke at 10^6 letters (the design target is ~2*10^7).
        rng = random.Random(31)
        u = random_word(rng, 10**6)
        v = random_balanced_commutation(rng, u)
        assert equivalent(u, v)
        letters = list(u)
        rng.shuffle(letters)
        w = "".join(letters)
        assert equivalent(u, w) == (_positional(u) == _positional(w))

    def test_equivalent_words_have_equal_letter_counts(self):
        for n in range(0, 9):
            for u in all_words(n):
                for v in all_words(n):
                    if equivalent(u, v):
                        assert u.count("U") == v.count("U")
                        assert u.count("D") == v.count("D")


class TestUpNormal:
    def test_single_d_runs_are_up_normal(self):
        assert is_up_normal("UUDUDUDD")

    def test_double_d_run_between_us_is_not(self):
        assert not is_up_normal("UUDDUU")

    def test_empty(self):
        assert is_up_normal("")

    def test_rejects_falling_words(self):
        with pytest.raises(DomainError):
            is_up_normal("DDU")

    def test_matches_factor_definition(self):
        for w in words_up_to(10):
            if not is_rising(w):
                continue
            has_down_zig = any(
                w[i] == "U" and w[j] == "U" and all(c == "D" for c in w[i + 1 : j])
                and j - i >= 3
                for i in range(len(w))
                for j in range(i + 3, len(w))
            )
            assert is_up_normal(w) == (not has_down_zig)


class TestUpNormalForm:
    def test_bfs_oracle_selects_the_same_word(self):
        # Independent oracle: materialize the class and pick its unique
        # down-zig-free member.
        cls = equivalence_class("UUDDUU", Move.BALANCED_COMMUTATION, cap=10**6)
        normals = [w for w in cls.members if is_up_normal(w)]
        assert len(normals) == 1
        assert up_normal_form("UUDDUU") == normals[0]

    def test_already_up_normal(self):
        assert up_normal_form("UUDUDUDD") == "UUDUDUDD"

    def test_all_ups(self):
        for n in range(6):
            assert up_normal_form("U" * n) == "U" * n

    def test_rejects_falling(self):
        with pytest.raises(DomainError):
            up_normal_form("DDU")

    def test_unique_up_normal_member_for_every_rising_class(self):
        by_sig = defaultdict(list)
        for w in words_up_to(9):
            if is_rising(w):
                by_sig[signature(w)].append(w)
        for sig, members in by_sig.items():
            normals = [w for w in members if is_up_normal(w)]
            assert len(normals) == 1
            for w in members:
                assert up_normal_form(w) == normals[0]

    def test_output_is_up_normal_and_equivalent(self):
        for w in words_up_to(10):
            if is_rising(w):
                t = up_normal_form(w)
                assert is_up_normal(t)
                assert equivalent(w, t)


class TestCanonicalForm:
    def test_duud_and_uddu_agree(self):
        assert canonical_form("DUUD") == canonical_form("UDDU")

    def test_falling_round_trip(self):
        w = "DDU"
        assert canonical_form(w) == omega(up_normal_form(omega(w)))
        assert equivalent(w, canonical_form(w))

    def test_empty(self):
        assert canonical_form("") == ""

    def test_characterizes_equivalence(self):
        for n in range(0, 9):
            words = list(all_words(n))
            canon = {w: canonical_form(w) for w in words}
            for i, u in enumerate(words):
                for v in words[i:]:
                    assert equivalent(u, v) == (canon[u] == canon[v])

    def test_idempotent(self):
        for w in words_up_to(9):
            assert canonical_form(canonical_form(w)) == canonical_form(w)

    def test_one_walk_of_the_input(self, monkeypatch):
        walked = []
        walk = equivalence._ne_walk

        def counting_walk(word):
            walked.append(word)
            return walk(word)

        monkeypatch.setattr(equivalence, "_ne_walk", counting_walk)
        # Rising, balanced and falling, below and above the block cutoff.
        for n in (11, _BLOCK_CUTOFF + 37):
            for w in (("UUD" * n)[:n], ("UDDU" * n)[: n - n % 4], ("DDU" * n)[:n]):
                walked.clear()
                c = canonical_form(w)
                assert walked == [w]
                if final_height(w) >= 0:
                    walked.clear()
                    assert up_normal_form(w) == c and walked == [w]

    def test_result_has_the_signature_and_is_up_normal(self):
        # canonical_form does not walk its result at run time; this walks it.
        for w in chain(words_up_to(14), _long_shapes()):
            c = canonical_form(w)
            assert signature(c) == signature(w)
            assert is_up_normal(c if final_height(w) >= 0 else omega(c))


class TestAlternativeInvariants:
    def test_s3_equivalent_to_s3_prime_and_s4(self):
        for n in range(0, 9):
            words = list(all_words(n))
            keys = {}
            for w in words:
                H, _, se = height_polys(w)
                keys[w] = (signature(w), (final_height(w), se), (final_height(w), H))
            for i, u in enumerate(words):
                for v in words[i:]:
                    s3 = keys[u][0] == keys[v][0]
                    assert s3 == (keys[u][1] == keys[v][1])
                    assert s3 == (keys[u][2] == keys[v][2])

    def test_all_three_invariant_pairs_induce_the_same_partition(self):
        # Same statement as the pairwise test above, pushed to length 12
        # by comparing the induced partitions instead of every pair.
        for n in range(0, 13):
            by_sig = defaultdict(set)
            by_se = defaultdict(set)
            by_h = defaultdict(set)
            for w in all_words(n):
                H, _, se = height_polys(w)
                fh = final_height(w)
                by_sig[signature(w)].add(w)
                by_se[(fh, se)].add(w)
                by_h[(fh, H)].add(w)
            partition = set(map(frozenset, by_sig.values()))
            assert set(map(frozenset, by_se.values())) == partition
            assert set(map(frozenset, by_h.values())) == partition

    def test_balanced_words_are_equivalent_to_their_reversal(self):
        for w in balanced_words(10):
            assert equivalent(w, omega(w))

    def test_omega_preserves_equivalence(self):
        for n in range(0, 9):
            for u in all_words(n):
                for v in all_words(n):
                    assert equivalent(u, v) == equivalent(omega(u), omega(v))

    def test_omega_maps_classes_to_classes(self):
        # Partition form of the previous test, through length 10.
        for n in range(0, 11):
            by_sig = defaultdict(set)
            for w in all_words(n):
                by_sig[signature(w)].add(w)
            partition = set(map(frozenset, by_sig.values()))
            mirrored = {frozenset(omega(w) for w in group) for group in partition}
            assert mirrored == partition
