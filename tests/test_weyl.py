"""Normal ordering, rook boards, monomial actions, and finite-field counts."""

import random
from collections import defaultdict

import pytest

from weylwords import (
    DomainError,
    FerrersBoard,
    MonomialAction,
    ResourceLimitError,
    WeylElement,
    apply_to_monomial,
    equivalent,
    ferrers_board,
    matrix_rank_counts,
    navon_expand,
    normal_order,
    omega,
    rook_equivalent,
    rook_numbers,
    tensor_equivalent,
)

from conftest import (
    actions_agree,
    all_words,
    monomial_action_sequential,
    random_word,
    rank_counts_by_subspaces,
    rook_numbers_brute,
    words_up_to,
)


class TestNormalOrder:
    def test_defining_relation(self):
        assert normal_order("DU").terms == {(1, 1): 1, (0, 0): 1}

    def test_already_normal(self):
        assert normal_order("UD").terms == {(1, 1): 1}

    def test_dduu(self):
        assert normal_order("DDUU").terms == {(2, 2): 1, (1, 1): 4, (0, 0): 2}

    def test_leading_coefficient_is_one_and_nonzero(self):
        rng = random.Random(7)
        samples = list(words_up_to(8)) + [random_word(rng, rng.randrange(25)) for _ in range(200)]
        for w in samples:
            element = normal_order(w)
            assert element
            m, n = w.count("U"), w.count("D")
            assert element.coefficient(m, n) == 1

    def test_equality_characterizes_equivalence(self):
        for n in range(0, 9):
            words = list(all_words(n))
            elements = {w: normal_order(w) for w in words}
            for i, u in enumerate(words):
                for v in words[i:]:
                    assert (elements[u] == elements[v]) == equivalent(u, v)


class TestFerrersBoard:
    def test_staircase_from_mixed_word(self):
        assert ferrers_board("UDDUDUUDUD").col_heights == (2, 3, 3, 4)

    def test_pure_runs_give_the_empty_board(self):
        assert ferrers_board("DDDD").col_heights == ()
        assert ferrers_board("UUU").col_heights == ()

    def test_leading_u_and_trailing_d_do_not_matter(self):
        rng = random.Random(11)
        for _ in range(200):
            w = random_word(rng, rng.randrange(15))
            board = ferrers_board(w)
            assert ferrers_board("U" + w) == board
            assert ferrers_board(w + "D") == board

    def test_validation(self):
        with pytest.raises(DomainError):
            FerrersBoard((3, 2))
        with pytest.raises(DomainError):
            FerrersBoard((-1, 2))
        assert FerrersBoard((0, 0, 2)).col_heights == (2,)

    def test_cells(self):
        board = FerrersBoard((1, 2))
        assert sorted(board.cells()) == [(1, 1), (2, 1), (2, 2)]
        assert board.cell_count == 3
        assert board.num_rows == 2 and board.num_columns == 2


class TestRookNumbers:
    def test_six_cell_non_staircase_board(self):
        # Not a staircase board, so only the placement enumeration applies.
        cells = [(1, 1), (2, 2), (3, 1), (4, 2), (6, 1), (6, 2)]
        assert rook_numbers_brute(cells, 4) == [1, 6, 8, 0, 0]

    def test_empty_board(self):
        assert rook_numbers(FerrersBoard(()), 3) == [1, 0, 0, 0]

    def test_two_by_two(self):
        assert rook_numbers(FerrersBoard((2, 2)), 2) == [1, 4, 2]

    def test_dp_matches_brute_force(self):
        for w in words_up_to(8):
            board = ferrers_board(w)
            kmax = min(board.num_columns, board.num_rows, 4)
            assert rook_numbers(board, kmax) == rook_numbers_brute(board.cells(), kmax)

    def test_brute_force_cell_guard(self):
        with pytest.raises(ResourceLimitError):
            rook_numbers_brute([(i, j) for i in range(5) for j in range(5)])


class TestRookEquivalence:
    def test_rook_equivalent_but_not_equivalent(self):
        assert rook_equivalent("DUUDU", "DDUU")
        assert not equivalent("DUUDU", "DDUU")

    def test_omega_images_are_rook_equivalent(self):
        rng = random.Random(13)
        for _ in range(300):
            w = random_word(rng, rng.randrange(14))
            assert rook_equivalent(w, omega(w))

    def test_matches_equivalence_for_equal_letter_counts(self):
        for n in range(0, 9):
            buckets = defaultdict(list)
            for w in all_words(n):
                buckets[w.count("D")].append(w)
            for words in buckets.values():
                for i, u in enumerate(words):
                    for v in words[i:]:
                        assert rook_equivalent(u, v) == equivalent(u, v)

    def test_padding_turns_rook_equivalence_into_a_decision_procedure(self):
        # Leading U's and trailing D's leave the board untouched, so two
        # boards can always be compared through words with equal letter
        # counts, where rook equivalence coincides with equivalence.
        rng = random.Random(29)
        for _ in range(300):
            u = random_word(rng, rng.randrange(1, 10))
            v = random_word(rng, rng.randrange(1, 10))
            du, dv = u.count("D"), v.count("D")
            uu, uv = u.count("U"), v.count("U")
            pu = "U" * max(0, uv - uu) + u + "D" * max(0, dv - du)
            pv = "U" * max(0, uu - uv) + v + "D" * max(0, du - dv)
            assert ferrers_board(pu) == ferrers_board(u)
            assert ferrers_board(pv) == ferrers_board(v)
            assert pu.count("D") == pv.count("D") and pu.count("U") == pv.count("U")
            assert rook_equivalent(u, v) == rook_equivalent(pu, pv) == equivalent(pu, pv)

    def test_padding_example(self):
        # The boards of DUUDU and DDUU are rook-equivalent; after padding
        # DDUU to UDDUU the words even become equivalent.
        assert rook_equivalent("DUUDU", "UDDUU")
        assert equivalent("DUUDU", "UDDUU")
        assert not equivalent("DUUDU", "DDUU")


class TestNavonExpansion:
    def test_single_cell(self):
        assert navon_expand("DU").terms == {(1, 1): 1, (0, 0): 1}

    def test_all_ups(self):
        assert navon_expand("UUU").terms == {(3, 0): 1}

    def test_matches_normal_order_exhaustively(self):
        for w in words_up_to(8):
            assert navon_expand(w) == normal_order(w)

    def test_matches_normal_order_on_random_words(self):
        rng = random.Random(17)
        for _ in range(500):
            w = random_word(rng, rng.randrange(31))
            assert navon_expand(w) == normal_order(w)


class TestMonomialAction:
    def test_duud_action_coefficient(self):
        for s in range(-3, 6):
            assert apply_to_monomial("DUUD", s) == MonomialAction(s * (s + 1), 0)

    def test_single_u(self):
        assert apply_to_monomial("U", 5) == MonomialAction(1, 6 - 5)

    def test_derivative_kills_constants(self):
        assert apply_to_monomial("D", 0) == MonomialAction(0, -1)

    def test_shift_is_final_height(self):
        rng = random.Random(19)
        for _ in range(200):
            w = random_word(rng, rng.randrange(20))
            action = apply_to_monomial(w, rng.randrange(-5, 10))
            assert action.exponent_shift == 2 * w.count("U") - len(w)

    def test_matches_symbolic_differentiation(self):
        # Independent oracle: act letter by letter on a one-term Laurent
        # polynomial in x.
        rng = random.Random(23)
        for _ in range(300):
            w = random_word(rng, rng.randrange(12))
            s = rng.randrange(-4, 9)
            coeff, exp = 1, s
            for ch in reversed(w):
                if ch == "U":
                    exp += 1
                else:
                    coeff *= exp
                    exp -= 1
            assert apply_to_monomial(w, s) == MonomialAction(coeff, exp - s)

    def test_matches_sequential_product_on_short_words(self):
        # Small and negative s make zero factors common.
        rng = random.Random(29)
        zeros = 0
        for _ in range(2000):
            w = random_word(rng, rng.randrange(41))
            s = rng.randrange(-12, 12)
            coefficient, shift = monomial_action_sequential(w, s)
            assert apply_to_monomial(w, s) == MonomialAction(coefficient, shift)
            zeros += coefficient == 0
        assert 100 < zeros < 1900

    def test_matches_sequential_product_on_long_words(self):
        rng = random.Random(31)
        w = random_word(rng, 10**5)
        heights = [0]
        for ch in w:
            heights.append(heights[-1] + (1 if ch == "U" else -1))
        h = heights[-1]
        # The smallest s with no zero factor, so every factor is small and
        # nonzero; then the s whose zero factor is the word's last down-step.
        s = max(heights) - h + 1
        action = apply_to_monomial(w, s)
        assert action == MonomialAction(*monomial_action_sequential(w, s))
        assert action.coefficient.bit_length() > 10**5
        last_down = max(i for i, ch in enumerate(w) if ch == "D")
        s = heights[last_down + 1] - h
        assert apply_to_monomial(w, s) == MonomialAction(0, h)
        assert monomial_action_sequential(w, s) == (0, h)
        w = w[:2000]
        s = -(10**9)
        assert apply_to_monomial(w, s) == MonomialAction(*monomial_action_sequential(w, s))

    def test_normal_order_acts_the_same_way(self):
        for w in words_up_to(8):
            element = normal_order(w)
            for s in range(0, 2 * len(w) + 1):
                action = apply_to_monomial(w, s)
                expected = (
                    {s + action.exponent_shift: action.coefficient}
                    if action.coefficient
                    else {}
                )
                assert element.apply_to_power(s) == expected


class TestActionsAgree:
    def test_smallest_nontrivial_identity(self):
        assert actions_agree("DUUD", "UDDU")

    def test_udu_vs_uudd(self):
        assert not actions_agree("UDUU", "UUDD")

    def test_reflexive(self):
        for w in words_up_to(6):
            assert actions_agree(w, w)

    def test_matches_equivalence(self):
        for n in range(0, 9):
            words = list(all_words(n))
            for i, u in enumerate(words):
                for v in words[i:]:
                    assert actions_agree(u, v) == equivalent(u, v)


def _rank_counts_reference(cells, p):
    # Tiny independent implementation: every filling of the (column, row)
    # cells as a dense matrix, textbook row reduction over F_p.
    from itertools import product as iproduct

    cells = sorted(set(cells))
    row_of = {r: i for i, r in enumerate(sorted({r for _, r in cells}))}
    col_of = {c: i for i, c in enumerate(sorted({c for c, _ in cells}))}
    nrows, ncols = len(row_of), len(col_of)
    counts = [0] * (min(nrows, ncols) + 1)
    for values in iproduct(range(p), repeat=len(cells)):
        mat = [[0] * ncols for _ in range(nrows)]
        for (col, row), v in zip(cells, values):
            mat[row_of[row]][col_of[col]] = v
        rank = 0
        mat = [row[:] for row in mat]
        pivot_row = 0
        for c in range(ncols):
            pivot = next(
                (r for r in range(pivot_row, nrows) if mat[r][c] % p), None
            )
            if pivot is None:
                continue
            mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
            inv = pow(mat[pivot_row][c], -1, p)
            mat[pivot_row] = [(x * inv) % p for x in mat[pivot_row]]
            for r in range(pivot_row + 1, nrows):
                f = mat[r][c] % p
                if f:
                    mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[pivot_row])]
            pivot_row += 1
            rank += 1
        counts[rank] += 1
    return counts


class TestMatrixRankCounts:
    def test_single_cell_over_f2(self):
        assert matrix_rank_counts(FerrersBoard((1,)), 2, 1) == [1, 1]

    def test_empty_board(self):
        assert matrix_rank_counts(FerrersBoard(()), 5, 3) == [1]

    def test_total_is_field_size_to_the_cells(self):
        for heights, p in [((1, 2), 2), ((2, 2), 3), ((1, 1, 2), 5)]:
            board = FerrersBoard(heights)
            counts = matrix_rank_counts(board, p, 4)
            assert sum(counts) == p**board.cell_count

    def test_matches_reference_implementation(self):
        for heights, p in [((1, 2), 2), ((2, 2), 3), ((1, 2, 2), 2), ((1, 1), 7)]:
            board = FerrersBoard(heights)
            assert matrix_rank_counts(board, p, 4) == _rank_counts_reference(board.cells(), p)

    def test_subspace_oracle_matches_reference(self):
        # The criterion-7 oracle, checked by plain enumeration on every
        # staircase board of at most 8 cells and on supports of other shapes.
        boards = {ferrers_board(w) for w in words_up_to(8)}
        supports = [list(b.cells()) for b in boards if b.cell_count <= 8] + [
            [(1, 1), (2, 2), (3, 1), (4, 2), (6, 1), (6, 2)],
            [(1, 2), (1, 3), (2, 1), (3, 3), (3, 1)],
            [(2, 5), (7, 5), (7, 1)],
        ]
        for cells in supports:
            for p in (2, 3) if len(cells) <= 8 else (2,):
                assert rank_counts_by_subspaces(cells, p) == _rank_counts_reference(cells, p)

    def test_full_rectangles_match_the_closed_form(self):
        # An m x n board holds every m x n matrix; the number of rank-k ones
        # is prod_{i<k} (q^m - q^i)(q^n - q^i) / (q^k - q^i).
        for (m, n), q in [((5, 6), 2), ((6, 10), 3), ((7, 7), 5), ((3, 12), 7)]:
            board = FerrersBoard((m,) * n)
            expected = []
            for k in range(min(m, n) + 1):
                num = den = 1
                for i in range(k):
                    num *= (q**m - q**i) * (q**n - q**i)
                    den *= q**k - q**i
                expected.append(num // den)
            assert matrix_rank_counts(board, q, max(m, n)) == expected

    def test_large_boards_sum_to_all_fillings(self):
        # 30 to 60 cells: far past any enumeration.
        for heights in [(5,) * 6, (1, 2, 3, 4, 5, 6, 7, 8), tuple(range(1, 11)), (6,) * 10]:
            board = FerrersBoard(heights)
            assert 30 <= board.cell_count <= 60
            for p in (2, 3, 5, 7):
                counts = matrix_rank_counts(board, p, 10)
                assert sum(counts) == p**board.cell_count
                assert all(c > 0 for c in counts)

    def test_non_prime_rejected(self):
        with pytest.raises(DomainError):
            matrix_rank_counts(FerrersBoard((1,)), 4, 2)

    def test_board_must_fit(self):
        with pytest.raises(DomainError):
            matrix_rank_counts(FerrersBoard((3,)), 2, 2)

    def test_budget_guard(self):
        # No budget guards the DP: all 2^25 fillings of this board are counted.
        board = FerrersBoard((5, 5, 5, 5, 5))
        counts = matrix_rank_counts(board, 2, 6)
        assert sum(counts) == 2**25
        assert counts == rank_counts_by_subspaces(board.cells(), 2)


class TestTensorEquivalence:
    def test_componentwise_true(self):
        assert tensor_equivalent([("DUUD", "UDDU"), ("UD", "UD")])

    def test_componentwise_false(self):
        assert not tensor_equivalent([("U", "U"), ("U", "D")])

    def test_empty_product(self):
        assert tensor_equivalent([])


class TestWeylElement:
    def test_zero_coefficients_dropped(self):
        assert WeylElement({(1, 1): 0, (0, 0): 2}).terms == {(0, 0): 2}

    def test_sorted_terms_order(self):
        element = WeylElement({(0, 0): 2, (1, 1): 4, (2, 2): 1, (2, 0): 3})
        assert [key for key, _ in element.sorted_terms()] == [
            (2, 2),
            (2, 0),
            (1, 1),
            (0, 0),
        ]

    def test_hash_consistency(self):
        assert hash(normal_order("DDUU")) == hash(navon_expand("DDUU"))

    def test_omega_compatibility_via_equivalence(self):
        for n in range(0, 8):
            for u in all_words(n):
                for v in all_words(n):
                    assert (normal_order(omega(u)) == normal_order(omega(v))) == (
                        normal_order(u) == normal_order(v)
                    )

    def test_omega_transposes_normal_forms(self):
        # Reversing and toggling a word acts on its expansion by swapping
        # each U^j D^i for U^i D^j: the image terms are already normally
        # ordered, so the coefficient map is transposed verbatim.
        for w in words_up_to(10):
            transposed = {(i, j): c for (j, i), c in normal_order(w).terms.items()}
            assert normal_order(omega(w)) == WeylElement(transposed)
