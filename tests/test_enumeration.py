"""Closed-form class counts against the recursion and the exhaustive oracle."""

import random
from fractions import Fraction
from math import comb

import pytest

from weylwords import (
    DomainError,
    ResourceLimitError,
    brute_force_class_counts,
    count_classes,
    count_classes_cdyck,
    count_table,
    is_cdyck,
    total_classes,
    total_classes_cdyck,
)
from weylwords.enumeration import (
    _binomial_product,
    _primes_up_to,
    _product,
    cdyck_class_counts_by_normal_form,
)

from conftest import (
    count_classes_by_recursion,
    count_classes_cdyck_by_recursion,
    generating_function_table,
)

TABLE_CLASSES = {
    0: [1],
    1: [1, 1],
    2: [1, 2, 1],
    3: [1, 3, 3, 1],
    4: [1, 4, 5, 4, 1],
    5: [1, 5, 8, 8, 5, 1],
    6: [1, 6, 12, 12, 12, 6, 1],
    7: [1, 7, 17, 20, 20, 17, 7, 1],
    8: [1, 8, 23, 32, 28, 32, 23, 8, 1],
    9: [1, 9, 30, 49, 48, 48, 49, 30, 9, 1],
    10: [1, 10, 38, 72, 80, 64, 80, 72, 38, 10, 1],
}

TABLE_TOTALS = [1, 2, 4, 8, 15, 28, 50, 90, 156, 274, 466]

TABLE_CDYCK_1 = {
    1: [1],
    2: [1, 1],
    3: [1, 2],
    4: [1, 3, 2],
    5: [1, 4, 4],
    6: [1, 5, 7, 4],
    7: [1, 6, 11, 8],
    8: [1, 7, 16, 15, 8],
    9: [1, 8, 22, 26, 16],
    10: [1, 9, 29, 42, 31, 16],
}

TABLE_CDYCK_2 = {
    1: [1],
    2: [1],
    3: [1, 1],
    4: [1, 2],
    5: [1, 3],
    6: [1, 4, 3],
    7: [1, 5, 6],
    8: [1, 6, 10],
    9: [1, 7, 15, 10],
    10: [1, 8, 21, 20],
}


class TestCountClasses:
    def test_introductory_example(self):
        assert count_classes(4, 2) == 5

    def test_table_row_ten(self):
        assert count_classes(10, 5) == 64

    def test_central_closed_form(self):
        assert count_classes(8, 4) == 28 == (4 + 3) * 2**2

    def test_no_downs(self):
        for n in range(12):
            assert count_classes(n, 0) == 1

    def test_full_table(self):
        for n, row in TABLE_CLASSES.items():
            assert [count_classes(n, k) for k in range(n + 1)] == row

    def test_symmetry(self):
        for n in range(17):
            for k in range(n + 1):
                assert count_classes(n, k) == count_classes(n, n - k)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            count_table(-1)
        with pytest.raises(DomainError):
            count_classes(3, 4)
        with pytest.raises(DomainError):
            count_classes(3, -1)

    def test_recursion_agrees_with_formula(self):
        for n in range(21):
            for k in range(n + 1):
                value = count_classes_by_recursion(n, k)
                assert value == count_classes(n, k)
                assert isinstance(value, int)

    def test_generating_function_agrees(self):
        table = generating_function_table(20)
        for (n, k), value in table.items():
            assert value == count_classes(n, k)


class TestTotalClasses:
    def test_table(self):
        assert [total_classes(n) for n in range(11)] == TABLE_TOTALS

    def test_fibonacci_identity_matches_row_sums(self):
        for n in range(31):
            assert total_classes(n) == sum(count_classes(n, k) for k in range(n + 1))


class TestCdyckCounts:
    def test_table_c1(self):
        for n, row in TABLE_CDYCK_1.items():
            assert [count_classes_cdyck(n, k, 1) for k in range(n // 2 + 1)] == row

    def test_table_c2(self):
        for n, row in TABLE_CDYCK_2.items():
            assert [count_classes_cdyck(n, k, 2) for k in range(n // 3 + 1)] == row

    def test_selected_entries(self):
        assert count_classes_cdyck(9, 4, 1) == 16
        assert count_classes_cdyck(10, 3, 2) == 20
        assert count_classes_cdyck(10, 5, 1) == 16

    def test_row_sums(self):
        assert total_classes_cdyck(10, 1) == 128
        assert total_classes_cdyck(10, 2) == 50
        for n in range(1, 11):
            assert total_classes_cdyck(n, 1) == sum(TABLE_CDYCK_1[n])
            assert total_classes_cdyck(n, 2) == sum(TABLE_CDYCK_2[n])

    def test_boundary_identity(self):
        for c in (1, 2, 3):
            for k in range(1, 5):
                assert count_classes_cdyck((c + 1) * k, k, c) == count_classes_cdyck(
                    (c + 1) * k - 1, k - 1, c
                )

    def test_recursion_agrees_with_formula(self):
        for c in (1, 2, 3):
            for n in range(18):
                for k in range(n // (c + 1) + 1):
                    assert count_classes_cdyck_by_recursion(
                        n, k, c
                    ) == count_classes_cdyck(n, k, c)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            count_classes_cdyck(5, 3, 1)
        with pytest.raises(DomainError):
            count_classes_cdyck(5, 1, 0)
        with pytest.raises(DomainError):
            count_classes_cdyck(5, 1, Fraction(3, 2))

    def test_every_closed_form_checks_c(self):
        for c in (0, -1, -2, Fraction(3, 2), 1.5):
            with pytest.raises(DomainError):
                count_classes_cdyck(10, 1, c)
            with pytest.raises(DomainError):
                count_classes_cdyck_by_recursion(10, 1, c)
            with pytest.raises(DomainError):
                total_classes_cdyck(10, c)


class TestIsCdyck:
    def test_integer_threshold(self):
        assert is_cdyck("UUDUUD", 2)
        assert not is_cdyck("UUUDDU", 2)

    def test_rational_threshold(self):
        assert is_cdyck("UDD", Fraction(1, 2))
        assert not is_cdyck("UDDD", Fraction(1, 2))


class TestBruteForce:
    def test_row_four(self):
        assert brute_force_class_counts(4) == [1, 4, 5, 4, 1]

    def test_row_zero(self):
        assert brute_force_class_counts(0) == [1]

    def test_matches_formula_up_to_sixteen(self):
        for n in range(17):
            row = brute_force_class_counts(n)
            assert row == [count_classes(n, k) for k in range(n + 1)]

    def test_cdyck_rows_match_formula(self):
        for c in (1, 2, 3):
            for n in range(13):
                row = brute_force_class_counts(n, c)
                kmax = n // (c + 1)
                expected = [count_classes_cdyck(n, k, c) for k in range(kmax + 1)]
                expected += [0] * (n - kmax)
                assert row == expected

    def test_both_cdyck_oracles_agree(self):
        for c in (1, 2, Fraction(3, 2)):
            for n in range(11):
                assert brute_force_class_counts(n, c) == cdyck_class_counts_by_normal_form(n, c)

    def test_rational_c_spot_check(self):
        # The class counts for c = 1/2: UDDU, UDUD and UUDD lie in three
        # distinct classes, so the (4, 2) entry is 3.
        assert brute_force_class_counts(4, Fraction(1, 2))[2] == 3

    def test_length_guard(self):
        with pytest.raises(ResourceLimitError):
            brute_force_class_counts(21)


class TestCountTable:
    def test_entries_and_symmetry(self):
        table = count_table(12)
        for (n, k), value in table.items():
            assert value == table[(n, n - k)]
            if k == 0:
                assert value == 1
        assert table[(4, 2)] == 5


def _choose_product(pairs):
    out = 1
    for m, r in pairs:
        if r == 0:
            continue
        if r < 0 or m < r:
            return 0
        out *= comb(m, r)
    return out


class TestProducts:
    def test_product_tree_matches_a_running_product(self):
        rng = random.Random(41)
        assert _product([]) == 1
        assert _product([1, 1, 1]) == 1
        assert _product([5, 0, 7]) == 0
        for _ in range(200):
            factors = [rng.randrange(-50, 10**rng.randrange(1, 30)) for _ in range(rng.randrange(40))]
            expected = 1
            for f in factors:
                expected *= f
            assert _product(factors) == expected
            assert _product(iter(factors)) == expected

    def test_primes_up_to(self):
        for n in range(1, 200):
            assert _primes_up_to(n) == [p for p in range(2, n + 1) if all(p % d for d in range(2, p))]

    def test_binomial_product_matches_comb_on_random_pairs(self):
        # Pairs mix small and large m, centred and extreme r, and the
        # out-of-range corners: r = 0 (also at m = -1), r = m, r > m, r < 0.
        rng = random.Random(43)
        for trial in range(400):
            pairs = []
            for _ in range(rng.randrange(8)):
                m = rng.choice([rng.randrange(-1, 12), rng.randrange(40, 400), rng.randrange(10**4)])
                kind = rng.random()
                if kind < 0.1:
                    r = 0
                elif kind < 0.2:
                    r = m
                elif kind < 0.25 and trial % 3 == 0:
                    r = m + rng.randrange(1, 4)
                elif kind < 0.3 and trial % 3 == 0:
                    r = -rng.randrange(1, 4)
                else:
                    r = rng.randrange(max(m, 0) + 1)
                pairs.append((m, r))
            assert _binomial_product(pairs) == _choose_product(pairs), pairs

    def test_binomial_product_corners(self):
        assert _binomial_product([]) == 1
        assert _binomial_product([(-1, 0)]) == 1
        assert _binomial_product([(7, 7), (0, 0), (5, 0)]) == 1
        assert _binomial_product([(10**6, 3), (3, 4)]) == 0
        assert _binomial_product([(9, -1), (10**4, 5000)]) == 0
        assert _binomial_product([(-1, -1)]) == 0
        assert _binomial_product([(2, 1)] * 50) == 2**50
        assert _binomial_product([(10**6, 1), (10**6, 10**6 - 1)]) == 10**12
        assert _binomial_product([(1000, 500), (999, 3)]) == comb(1000, 500) * comb(999, 3)
