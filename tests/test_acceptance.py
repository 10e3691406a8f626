"""Acceptance suite: every criterion at full scale, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The heavy criteria take a few minutes combined; each asserts its
declared wall-clock budget.
"""

import random
import time
from collections import defaultdict
from itertools import combinations
from math import comb

from weylwords import (
    Move,
    brute_force_class_counts,
    canonical_form,
    class_size,
    count_classes,
    count_classes_cdyck,
    du_equivalent,
    du_normal_order,
    equivalent,
    ferrers_board,
    final_height,
    height_polys,
    matrix_rank_counts,
    mean_size_series,
    navon_expand,
    neighbors,
    normal_order,
    omega,
    rook_numbers,
    signature,
    tensor_equivalent,
    total_classes,
    total_classes_cdyck,
    wet_probability,
)

from conftest import (
    actions_agree,
    all_words,
    balanced_words,
    count_classes_by_recursion,
    count_classes_cdyck_by_recursion,
    random_word,
    rank_counts_by_subspaces,
    rook_numbers_brute,
    words_up_to,
)
from test_enumeration import TABLE_CDYCK_1, TABLE_CDYCK_2, TABLE_CLASSES, TABLE_TOTALS


def _report(number, name, started):
    elapsed = time.perf_counter() - started
    print(f"acceptance {number:2d} ({name}): PASS in {elapsed:.1f}s")
    return elapsed


def _partition_components(words, move):
    """Map each word to a component id of the move graph restricted to *words*."""
    component = {}
    next_id = 0
    for w in words:
        if w in component:
            continue
        component[w] = next_id
        frontier = [w]
        while frontier:
            nxt = []
            for x in frontier:
                for y in neighbors(x, move):
                    if y not in component:
                        component[y] = next_id
                        nxt.append(y)
            frontier = nxt
        next_id += 1
    return component


def test_criterion_01_table_reproduction():
    started = time.perf_counter()
    for n, row in TABLE_CLASSES.items():
        assert [count_classes(n, k) for k in range(n + 1)] == row
    assert [total_classes(n) for n in range(11)] == TABLE_TOTALS
    for n, row in TABLE_CDYCK_1.items():
        assert [count_classes_cdyck(n, k, 1) for k in range(n // 2 + 1)] == row
        assert total_classes_cdyck(n, 1) == sum(row)
    for n, row in TABLE_CDYCK_2.items():
        assert [count_classes_cdyck(n, k, 2) for k in range(n // 3 + 1)] == row
        assert total_classes_cdyck(n, 2) == sum(row)
    assert total_classes_cdyck(10, 1) == 128
    elapsed = _report(1, "table reproduction", started)
    assert elapsed < 1.0


def test_criterion_02_oracle_triple_agreement():
    started = time.perf_counter()
    for n in range(15):
        brute = brute_force_class_counts(n)
        for k in range(n + 1):
            formula = count_classes(n, k)
            assert formula == count_classes_by_recursion(n, k)
            assert formula == brute[k]
    for c in (1, 2, 3):
        for n in range(15):
            brute = brute_force_class_counts(n, c)
            kmax = n // (c + 1)
            for k in range(n + 1):
                expected = count_classes_cdyck(n, k, c) if k <= kmax else 0
                assert brute[k] == expected
                if k <= kmax:
                    assert expected == count_classes_cdyck_by_recursion(n, k, c)
    elapsed = _report(2, "oracle triple agreement", started)
    assert elapsed < 120


def test_criterion_03_seven_criteria_equivalence():
    started = time.perf_counter()
    for n in range(11):
        buckets = defaultdict(list)
        for w in all_words(n):
            buckets[w.count("D")].append(w)
        for k, words in buckets.items():
            sig = {}
            sig_se = {}
            sig_h = {}
            norm = {}
            action = {}
            for w in words:
                H, _, se = height_polys(w)
                fh = final_height(w)
                sig[w] = signature(w)
                sig_se[w] = (fh, se)
                sig_h[w] = (fh, H)
                norm[w] = normal_order(w)
            comp_bal = _partition_components(words, Move.BALANCED_COMMUTATION)
            comp_flip = _partition_components(words, Move.BALANCED_FLIP)
            for u, v in combinations(words, 2):
                verdicts = (
                    equivalent(u, v),
                    sig[u] == sig[v],
                    sig_se[u] == sig_se[v],
                    sig_h[u] == sig_h[v],
                    comp_bal[u] == comp_bal[v],
                    comp_flip[u] == comp_flip[v],
                    norm[u] == norm[v],
                    actions_agree(u, v),
                )
                assert all(verdicts) or not any(verdicts), (u, v, verdicts)
    elapsed = _report(3, "seven-criteria equivalence", started)
    assert elapsed < 600


def test_criterion_04_irreducible_commutations_suffice():
    started = time.perf_counter()
    for n in range(11):
        buckets = defaultdict(list)
        for w in all_words(n):
            buckets[w.count("D")].append(w)
        for words in buckets.values():
            comp_bal = _partition_components(words, Move.BALANCED_COMMUTATION)
            comp_irr = _partition_components(words, Move.IRREDUCIBLE_COMMUTATION)
            groups_bal = defaultdict(set)
            groups_irr = defaultdict(set)
            for w in words:
                groups_bal[comp_bal[w]].add(w)
                groups_irr[comp_irr[w]].add(w)
            assert set(map(frozenset, groups_bal.values())) == set(
                map(frozenset, groups_irr.values())
            )
    _report(4, "irreducible commutations generate the same classes", started)


def test_criterion_05_class_size_formula():
    started = time.perf_counter()
    for n in range(13):
        by_sig = defaultdict(set)
        for w in all_words(n):
            by_sig[(w.count("D"), signature(w))].add(w)
        sums = defaultdict(int)
        canon_seen = set()
        for (k, _), members in by_sig.items():
            seed = min(members)
            seen = {seed}
            frontier = [seed]
            while frontier:
                nxt = []
                for x in frontier:
                    for y in neighbors(x, Move.BALANCED_COMMUTATION):
                        if y not in seen:
                            seen.add(y)
                            nxt.append(y)
                frontier = nxt
            assert seen == members
            for w in members:
                assert class_size(w) == len(members)
            # one canonical representative per class, shared by all members
            reps = {canonical_form(w) for w in members}
            assert len(reps) == 1
            rep = reps.pop()
            assert rep in members
            assert rep not in canon_seen
            canon_seen.add(rep)
            sums[k] += len(members)
        for k in range(n + 1):
            assert sums[k] == comb(n, k)
    elapsed = _report(5, "closed-form class sizes", started)
    assert elapsed < 300


def test_criterion_06_navon_expansion():
    started = time.perf_counter()
    for w in words_up_to(10):
        assert navon_expand(w) == normal_order(w)
    rng = random.Random(0xDA7A)
    for _ in range(10**4):
        w = random_word(rng, rng.randrange(31))
        assert navon_expand(w) == normal_order(w)
    six_cell = [(1, 1), (2, 2), (3, 1), (4, 2), (6, 1), (6, 2)]
    assert rook_numbers_brute(six_cell, 6) == [1, 6, 8, 0, 0, 0, 0]
    _report(6, "rook-number expansion equals direct reordering", started)


def test_criterion_07_rook_equivalence():
    started = time.perf_counter()
    # Rook equivalence matches operator equivalence for equal letter counts.
    for n in range(11):
        buckets = defaultdict(list)
        for w in all_words(n):
            buckets[w.count("D")].append(w)
        for k, words in buckets.items():
            kmax = max(k, n - k)
            keys = {
                w: tuple(rook_numbers(ferrers_board(w), kmax)) for w in words
            }
            sigs = {w: signature(w) for w in words}
            for u, v in combinations(words, 2):
                assert (keys[u] == keys[v]) == (sigs[u] == sigs[v])

    # Rank counts over F_2 and F_3 agree exactly when rook numbers do; the
    # q-rook DP is checked against the subspace counter on every board.
    board_data = {}

    def data_for(board):
        if board not in board_data:
            kmax = min(board.num_columns, board.num_rows)
            ambient = max(board.num_columns, board.num_rows, 1)
            ranks = []
            for p in (2, 3):
                counts = matrix_rank_counts(board, p, ambient)
                assert counts == rank_counts_by_subspaces(board.cells(), p), (board, p)
                ranks.append(tuple(counts))
            board_data[board] = (tuple(rook_numbers(board, kmax)), *ranks)
        return board_data[board]

    def padded_eq(a, b):
        width = max(len(a), len(b))
        return list(a) + [0] * (width - len(a)) == list(b) + [0] * (width - len(b))

    def rank_one(counts):
        return counts[1] if len(counts) > 1 else 0

    checked_pairs = 0
    for n in range(9):
        buckets = defaultdict(list)
        for w in all_words(n):
            buckets[w.count("D")].append(w)
        for words in buckets.values():
            boards = {w: ferrers_board(w) for w in words}
            small = [w for w in words if boards[w].cell_count <= 12]
            for u, v in combinations(small, 2):
                rooks_u, f2_u, f3_u = data_for(boards[u])
                rooks_v, f2_v, f3_v = data_for(boards[v])
                r1 = padded_eq(rooks_u, rooks_v)
                r2 = padded_eq(f2_u, f2_v) and padded_eq(f3_u, f3_v)
                r3 = rank_one(f2_u) == rank_one(f2_v) and rank_one(f3_u) == rank_one(f3_v)
                assert r1 == r2 == r3, (u, v)
                assert r1 == equivalent(u, v)
                checked_pairs += 1
    assert checked_pairs > 5000  # guards against accidentally filtering everything
    elapsed = _report(7, "rook and finite-field equivalences", started)
    assert elapsed < 900


def test_criterion_08_reversal_of_balanced_words():
    started = time.perf_counter()
    count = 0
    for u in balanced_words(14):
        assert equivalent(u, omega(u))
        count += 1
    assert count == sum(comb(2 * m, m) for m in range(8))
    _report(8, "balanced words commute with their reversal", started)


def test_criterion_09_percolation_series():
    started = time.perf_counter()
    assert mean_size_series(2) == [1, 2, 4]
    assert mean_size_series(2, wall=True) == [1, 1, 2]
    assert wet_probability(2, 0, 4) == [0, 0, 2, 0, -1]
    assert wet_probability(2, 0, 4, wall=True) == [0, 0, 1, 0, 0]

    series = mean_size_series(12)
    for n in range(12):
        assert series[n] == total_classes(n)
    assert series[12] != total_classes(12)

    wall_series = mean_size_series(9, wall=True)
    for n in range(9):
        assert wall_series[n] == total_classes_cdyck(n, 1)
    assert wall_series[9] != total_classes_cdyck(9, 1)
    elapsed = _report(9, "percolation series", started)
    assert elapsed < 1800


def test_criterion_10_down_up_algebra():
    started = time.perf_counter()
    words = list(words_up_to(8))
    sig_partition = defaultdict(set)
    for w in words:
        sig_partition[signature(w)].add(w)
    expected = set(map(frozenset, sig_partition.values()))
    for params in ((1, 0, 1), ("1/2", "1/2", "3/2")):
        du_partition = defaultdict(set)
        for w in words:
            du_partition[du_normal_order(w, params)].add(w)
        assert set(map(frozenset, du_partition.values())) == expected

    counterexamples = [
        ((0, 1, 0), "DUU", "UUD"),
        ((0, 2, 0), "DUUUUD", "UUDDUU"),
        ((0, -1, 1), "DUUUU", "UUUUD"),
        ((-1, -1, 1), "DUUU", "UUUD"),
        ((1, -1, 1), "DUUUUUU", "UUUUUUD"),
    ]
    for params, u, v in counterexamples:
        assert du_equivalent(u, v, params)
        assert not equivalent(u, v)
    elapsed = _report(10, "down-up algebra equivalences", started)
    assert elapsed < 600


def test_criterion_11_tensor_reduction():
    started = time.perf_counter()
    rng = random.Random(0x7E4503)
    verdicts = set()
    for _ in range(10**3):
        pairs = []
        for _ in range(rng.randrange(0, 5)):
            u = random_word(rng, rng.randrange(0, 11))
            if rng.random() < 0.6:
                v = u
                by_height = defaultdict(list)
                h = 0
                heights = [0]
                for ch in u:
                    h += 1 if ch == "U" else -1
                    heights.append(h)
                for idx, hh in enumerate(heights):
                    by_height[hh].append(idx)
                rich = [p for p in by_height.values() if len(p) >= 3]
                if rich:
                    i, j, k = sorted(rng.sample(rng.choice(rich), 3))
                    v = u[:i] + u[j:k] + u[i:j] + u[k:]
            else:
                v = random_word(rng, rng.randrange(0, 11))
            pairs.append((u, v))
        verdict = tensor_equivalent(pairs)
        independent = all(normal_order(u) == normal_order(v) for u, v in pairs)
        assert verdict == independent
        verdicts.add(verdict)
    assert verdicts == {True, False}
    _report(11, "tensor products reduce componentwise", started)
