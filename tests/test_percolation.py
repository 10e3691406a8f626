"""Percolation series against hand values and exhaustive bond enumeration."""

import time
from itertools import product

import pytest

from weylwords import (
    DomainError,
    ResourceLimitError,
    column_sites,
    column_states,
    mean_size_series,
    total_classes,
    total_classes_cdyck,
    wet_probability,
)
from weylwords.percolation import _advance


class TestWetProbability:
    def test_origin(self):
        assert wet_probability(0, 0, 3) == [1, 0, 0, 0]
        assert wet_probability(0, 0, 3, wall=True) == [1, 0, 0, 0]

    def test_two_step_return_no_wall(self):
        # C(2, 0; p) = 2 p^2 - p^4
        assert wet_probability(2, 0, 5) == [0, 0, 2, 0, -1, 0]

    def test_two_step_return_wall(self):
        # C(2, 0; p) = p^2
        assert wet_probability(2, 0, 4, wall=True) == [0, 0, 1, 0, 0]

    def test_truncation(self):
        assert wet_probability(2, 0, 2) == [0, 0, 2]

    def test_unreachable_sites_are_dry(self):
        assert wet_probability(2, 6, 4) == [0] * 5
        assert wet_probability(1, -1, 4, wall=True) == [0] * 5

    def test_non_lattice_site_rejected(self):
        with pytest.raises(DomainError):
            wet_probability(2, 1, 4)
        with pytest.raises(DomainError):
            wet_probability(-1, 1, 4)

    def test_order_guard(self):
        with pytest.raises(ResourceLimitError):
            wet_probability(2, 0, 15)


class TestMeanSizeSeries:
    def test_order_two_no_wall(self):
        assert mean_size_series(2) == [1, 2, 4]

    def test_order_two_wall(self):
        assert mean_size_series(2, wall=True) == [1, 1, 2]

    def test_order_zero_and_one(self):
        assert mean_size_series(0) == [1]
        assert mean_size_series(1) == [1, 2]
        assert mean_size_series(1, wall=True) == [1, 1]

    def test_matches_class_totals_no_wall(self):
        series = mean_size_series(7)
        for n in range(8):
            assert series[n] == total_classes(n)

    def test_matches_cdyck_totals_wall(self):
        series = mean_size_series(7, wall=True)
        for n in range(8):
            assert series[n] == total_classes_cdyck(n, 1)

    def test_order_guard(self):
        with pytest.raises(ResourceLimitError):
            mean_size_series(15)


class TestColumnStates:
    def test_column_sites(self):
        assert column_sites(3) == [3, 1, -1, -3]
        assert column_sites(3, wall=True) == [3, 1]
        assert column_sites(0) == [0]

    def test_probability_conservation(self):
        for wall in (False, True):
            for t in range(7):
                states = column_states(t, order=6, wall=wall)
                total = [0] * 7
                for poly in states.values():
                    total = [a + b for a, b in zip(total, poly)]
                assert total == [1, 0, 0, 0, 0, 0, 0]


def _poly_mul(a, b, order):
    out = [0] * (order + 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj and i + j <= order:
                    out[i + j] += ai * bj
    return out


def _brute_force_wet_probabilities(t_max, wall, order):
    """Exact C(t, x; p) for small t by enumerating every bond configuration."""
    sites = {(0, 0)}
    bonds = []
    for t in range(t_max):
        nxt = set()
        for tt, x in [s for s in sites if s[0] == t]:
            for dx in (1, -1):
                target = (t + 1, x + dx)
                if wall and target[1] < 0:
                    continue
                bonds.append(((t, x), target))
                nxt.add(target)
        sites |= nxt
    wet_polys = {site: [0] * (order + 1) for site in sites}
    nbonds = len(bonds)
    for config in product((False, True), repeat=nbonds):
        nopen = sum(config)
        wet = {(0, 0)}
        for (src, dst), open_ in zip(bonds, config):
            # bonds are listed column by column, so one pass propagates
            if open_ and src in wet:
                wet.add(dst)
        weight = [0] * (order + 1)
        weight[0] = 1
        for _ in range(nopen):
            weight = _poly_mul(weight, [0, 1], order)
        for _ in range(nbonds - nopen):
            weight = _poly_mul(weight, [1, -1], order)
        for site in wet:
            wp = wet_polys[site]
            for e, c in enumerate(weight):
                wp[e] += c
    return wet_polys


class TestAgainstBondEnumeration:
    @pytest.mark.parametrize("wall", [False, True])
    def test_small_columns_exact(self, wall):
        order = 8
        wet_polys = _brute_force_wet_probabilities(3, wall, order)
        for (t, x), poly in wet_polys.items():
            assert wet_probability(t, x, order, wall=wall) == poly

    @pytest.mark.parametrize("wall", [False, True])
    def test_series_against_enumeration(self, wall):
        # Columns 0..3 suffice for the series through p^3.
        order = 3
        wet_polys = _brute_force_wet_probabilities(3, wall, order)
        total = [0] * (order + 1)
        for poly in wet_polys.values():
            total = [a + b for a, b in zip(total, poly)]
        assert mean_size_series(order, wall=wall) == total


class TestPastTheOrder:
    """Columns past ``order`` are answered without transfer steps."""

    @pytest.mark.parametrize("wall", [False, True])
    def test_short_cut_equals_transfer(self, wall):
        for order in range(6):
            states = column_states(order, order, wall=wall)
            for t in range(order, order + 3):
                states = _advance(states, t, wall, order)
                assert column_states(t + 1, order, wall=wall) == states
                for x in column_sites(t + 1, wall):
                    assert wet_probability(t + 1, x, order, wall=wall) == [0] * (order + 1)

    def test_far_column_returns_at_once(self):
        start = time.perf_counter()
        assert wet_probability(10**6, 0, 2) == [0, 0, 0]
        assert wet_probability(10**6, 4, 14, wall=True) == [0] * 15
        assert column_states(10**6, 3) == {0: [1, 0, 0, 0]}
        assert time.perf_counter() - start < 1.0

    def test_guards_still_apply(self):
        with pytest.raises(ResourceLimitError):
            wet_probability(10**6, 0, 15)
        with pytest.raises(DomainError):
            wet_probability(10**6, 1, 3)
