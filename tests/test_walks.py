"""The invariant walk against the positional walk.

``_ne_walk`` reads a word's final height e and up-step heights a_g; the
down-step heights then follow from the crossing identity
b_(g+1) = a_g - [0 <= g < e] + [e <= g < 0] (``_down_heights``).
``height_polys`` counts every height position by position from
``prefix_heights``, so each comparison below checks one walk against the
other.  ``equivalent`` compares two invariant walks, and the walk itself is
checked against a plain dict walk: below the block cutoff, on both sides of
it at every length residue mod 8, on long words of every shape, and entry
by entry in its byte tables.
"""

import random
import sys

import pytest

from weylwords import (
    DownUpElement,
    EquivSignature,
    LaurentPoly,
    ParseError,
    apply_to_monomial,
    canonical_form,
    class_size,
    du_equivalent,
    du_normal_order,
    equivalence,
    equivalent,
    ferrers_board,
    height_polys,
    irreducible_factorization,
    is_cdyck,
    is_up_normal,
    navon_expand,
    normal_order,
    prefix_heights,
    rook_equivalent,
    signature,
    standard_path,
    tensor_equivalent,
)
from weylwords.enumeration import brute_force_class_counts, cdyck_class_counts_by_normal_form
from weylwords.equivalence import (
    _BLOCK_CUTOFF,
    _byte_tables,
    _down_heights,
    _ne_walk,
    _pack_blocks,
)

from conftest import bridges_word, drift_word, ne_walk_by_dict, peaks_word, words_up_to


def _seeded_words():
    # Drifts below, at and above 1/2 give final heights of both signs,
    # so the identity's correction runs over long height ranges.
    rng = random.Random(18)
    for length in (10**4, 3 * 10**4, 10**5):
        for p_up in (0.45, 0.5, 0.6):
            yield "".join("U" if rng.random() < p_up else "D" for _ in range(length))


class TestInvariantWalk:
    def test_every_word_up_to_12_letters(self):
        for w in words_up_to(12):
            assert _ne_walk(w) == ne_walk_by_dict(w)

    def test_seeded_long_words(self):
        # The drift-0.45 words end far below 0, so the walk's cells for
        # negative heights fill deep down.
        for w in _seeded_words():
            assert _ne_walk(w) == ne_walk_by_dict(w)

    def test_equivalent_compares_two_walks(self, monkeypatch):
        walked = []

        def counting(word):
            walked.append(word)
            return ne_walk_by_dict(word)

        monkeypatch.setattr(equivalence, "_ne_walk", counting)
        assert equivalent("DUUD", "UDDU") and walked == ["DUUD", "UDDU"]
        walked.clear()
        assert not equivalent("UD", "DU") and walked == ["UD", "DU"]

    def test_different_lengths_need_no_walk(self, monkeypatch):
        def refuse(word):
            raise AssertionError("walked a word of a different length")

        monkeypatch.setattr(equivalence, "_ne_walk", refuse)
        assert not equivalent("UD", "UDU")
        assert not equivalent("", "D")
        assert not equivalent("DUUD" * 50, "DUUD" * 50 + "UD")


def _long_shapes():
    rng = random.Random(36)
    n = 10**6
    shapes = [
        bridges_word(rng, 10**5),
        bridges_word(rng, n),
        drift_word(rng, 10**5, 0.45),
        drift_word(rng, n, 0.55),
        peaks_word(rng, 4 * 10**5),
        peaks_word(rng, n),
        "U" * n,
        "D" * n,
        "UD" * (n // 2),
        "DU" * (n // 2),
        "UD" * 50_000,
        "DU" * 50_000,
    ]
    # Cut to length residues 0, 1, ..., 7, 0, ... mod 8, so the padded last
    # block varies.
    for i, w in enumerate(shapes):
        yield w[: len(w) - (len(w) - i) % 8]


class TestBlockWalk:
    def test_every_length_to_200(self):
        # Below and above the cutoff, every length residue mod 8, with
        # drifts that end both above and below the start.
        rng = random.Random(19)
        assert 8 < _BLOCK_CUTOFF < 200
        for n in range(201):
            for up in (0.2, 0.5, 0.8):
                w = drift_word(rng, n, up)
                assert _ne_walk(w) == ne_walk_by_dict(w)

    def test_long_words_of_every_shape(self):
        for w in _long_shapes():
            assert _ne_walk(w) == ne_walk_by_dict(w)

    def test_every_table_entry(self):
        # Entry b is the walk of the block whose letters are b's bits,
        # high bit first, 1 = U.
        change, pairs = _byte_tables()
        assert len(change) == len(pairs) == 256
        for byte in range(256):
            word = format(byte, "08b").translate(str.maketrans("01", "DU"))
            assert _pack_blocks(word) == bytes([byte])
            assert (change[byte], dict(pairs[byte])) == ne_walk_by_dict(word)

    def test_packing_pads_the_last_block_with_d(self):
        assert _pack_blocks("U") == bytes([0b10000000])
        assert _pack_blocks("DUUDDDUUU") == bytes([0b01100011, 0b10000000])

    def test_only_long_words_are_packed(self, monkeypatch):
        def refuse(word):
            raise AssertionError("packed a word below the cutoff")

        monkeypatch.setattr(equivalence, "_pack_blocks", refuse)
        w = "UUD" * _BLOCK_CUTOFF
        assert _ne_walk(w[: _BLOCK_CUTOFF - 1]) == ne_walk_by_dict(w[: _BLOCK_CUTOFF - 1])
        with pytest.raises(AssertionError, match="below the cutoff"):
            _ne_walk(w[:_BLOCK_CUTOFF])

    def test_brute_enumerations_stay_on_the_letter_walk(self, monkeypatch):
        # The brute-force oracles walk millions of words of <= 20 letters;
        # packing each one would cost more than its walk.
        expected = (brute_force_class_counts(12), cdyck_class_counts_by_normal_form(12, 2))

        def refuse(word):
            raise AssertionError("packed a brute-force word")

        monkeypatch.setattr(equivalence, "_pack_blocks", refuse)
        assert brute_force_class_counts(12) == expected[0]
        assert cdyck_class_counts_by_normal_form(12, 2) == expected[1]


# Each bad text replaces the letters of a D/U word from its start, so the
# first bad letter sits at the given offset into the text.  The packing's
# int(..., 2) would accept "_", " ", "+" and "0b" in a string of bits.
_BAD = [("X", 0), ("_", 0), (" ", 0), ("+", 0), ("b", 0), ("é", 0), ("u", 0), ("0b", 0), ("U0b", 1)]


def _bad_words():
    # (word, 1-based position) at the first, a middle and the last position,
    # below and above the cutoff, in rising and in falling words.
    for n in (11, _BLOCK_CUTOFF + 37, 1001):
        for base in (("UUD" * n)[:n], ("DDU" * n)[:n]):
            for text, offset in _BAD:
                for at in (0, n // 2, n - len(text)):
                    yield base[:at] + text + base[at + len(text) :], at + offset + 1


class TestParseErrors:
    @pytest.mark.parametrize(
        "call",
        [
            signature,
            class_size,
            canonical_form,
            lambda w: equivalent(w, "D" * len(w)),
            lambda w: equivalent("U" * len(w), w),
            lambda w: tensor_equivalent([("UD", "UD"), ("D" * len(w), w)]),
        ],
        ids=["signature", "class_size", "canonical_form", "equivalent", "equivalent_right", "tensor"],
    )
    def test_first_bad_letter_is_named(self, call):
        for word, position in _bad_words():
            with pytest.raises(ParseError) as excinfo:
                call(word)
            assert excinfo.value.position == position, word
            assert f"at position {position} " in str(excinfo.value)
            assert repr(word[position - 1]) in str(excinfo.value)

    @pytest.mark.parametrize("kind", [list, tuple])
    @pytest.mark.parametrize("pairs", [40, 60])
    def test_words_that_are_not_str_fail_at_every_length(self, kind, pairs):
        # 80 letters take the letter loop, 120 the packed blocks.
        word = kind("UD" * pairs)
        for call in (signature, class_size, lambda w: equivalent(w, w)):
            with pytest.raises(ParseError, match=f"must be a str, got {kind.__name__}"):
                call(word)

    def test_unequal_lengths_are_checked(self):
        # No walk is needed to tell them apart, but the letters are read.
        for call, position in [
            (lambda: equivalent("UX", "UDU"), 2),
            (lambda: equivalent("UDU", "UX"), 2),
            (lambda: tensor_equivalent([("DU", "UDX")]), 3),
        ]:
            with pytest.raises(ParseError) as excinfo:
                call()
            assert excinfo.value.position == position
        assert not equivalent("UD", "UDU") and not tensor_equivalent([("DU", "UDD")])

    @pytest.mark.parametrize(
        "call, position",
        [
            (lambda: normal_order("DUX"), 3),
            (lambda: navon_expand("DUX"), 3),
            (lambda: du_normal_order("DUX", (1, 1, 1)), 3),
            (lambda: du_equivalent("DUU", "DUX", (1, 1, 1)), 3),
            (lambda: DownUpElement({"XYZ": 1}), 1),
            (lambda: prefix_heights("UX"), 2),
            (lambda: standard_path("UX"), 2),
            (lambda: height_polys("UX"), 2),
            (lambda: apply_to_monomial("DUX", 1), 3),
            (lambda: irreducible_factorization("UDXU"), 3),
            (lambda: ferrers_board("DXU"), 2),
            (lambda: rook_equivalent("DUX", "DUU"), 3),
            (lambda: is_cdyck("UX", 1), 2),
        ],
        ids=[
            "normal_order",
            "navon_expand",
            "du_normal_order",
            "du_equivalent",
            "DownUpElement",
            "prefix_heights",
            "standard_path",
            "height_polys",
            "apply_to_monomial",
            "irreducible_factorization",
            "ferrers_board",
            "rook_equivalent",
            "is_cdyck",
        ],
    )
    def test_other_routes_name_the_stray_letter(self, call, position):
        with pytest.raises(ParseError) as excinfo:
            call()
        assert excinfo.value.position == position


class TestEntryChecks:
    def test_is_up_normal_names_the_first_bad_letter(self):
        for word, position in _bad_words():
            with pytest.raises(ParseError) as excinfo:
                is_up_normal(word)
            assert excinfo.value.position == position, word

    @pytest.mark.parametrize("kind", [list, tuple])
    def test_is_cdyck_rejects_a_word_that_is_not_str(self, kind):
        for pairs in (1, 60):
            with pytest.raises(ParseError, match=f"must be a str, got {kind.__name__}"):
                is_cdyck(kind("UD" * pairs), 1)


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
