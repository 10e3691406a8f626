"""Exact low-density series for directed bond percolation on the diagonal lattice.

Sites are the points (t, x) with t >= 0 and t + x even; from each site two
bonds lead to (t+1, x-1) and (t+1, x+1), each independently open with
probability p.  Fluid starts at the origin, and C(t, x; p) is the
probability that an open path reaches (t, x).  With a wall along the
t-axis, every bond into x < 0 is closed, confining the cluster to x >= 0.

The computation keeps, column by column, the exact joint distribution over
"which sites of the column are wet" as a map from bit masks to polynomials
in p with integer coefficients, truncated at the requested order.  Columns
are advanced one new site at a time: a new site with w wet parents stays
dry with probability (1-p)^w and turns wet otherwise, independently of its
siblings (distinct new sites use disjoint bonds).  A step shifts the old
column's masks left by one, so that new site i finds its two parents in
bits i and i+1; its own bit then overwrites bit i, whose old site no later
new site reads.  States that differ only in such retired sites merge as
the step goes, which keeps the live state count near one column's worth
of masks.

The mean cluster size S(p) = sum over sites of C(t, x; p) is correct to
order p^N once columns 0..N are summed, since reaching column t costs at
least t open bonds.
"""

from __future__ import annotations

from .errors import DomainError, _as_int, _budget_error

MAX_ORDER = 14


def column_sites(t: int, wall: bool = False) -> list[int]:
    """The x coordinates of column t's sites, highest first."""
    t = _as_int(t, "t")
    if t < 0:
        raise DomainError(f"need t >= 0, got {t}")
    bottom = -1 if wall else -t - 1
    return list(range(t, bottom, -2))


def _add(states: dict[int, list[int]], mask: int, poly: list[int]) -> None:
    got = states.get(mask)
    states[mask] = poly if got is None else [a + b for a, b in zip(got, poly)]


def _advance(states: dict[int, list[int]], t: int, wall: bool, order: int) -> dict[int, list[int]]:
    """One transfer step: distribution over column t masks -> column t+1.

    ``order`` is implied by the polynomials' length, which every product
    keeps: truncation is the ``zip`` in each shifted difference.
    """
    last = len(column_sites(t + 1, wall)) - 1
    current = {mask << 1: poly for mask, poly in states.items()}
    for i in range(last + 1):
        parents, bit = 3 << i, 1 << i
        # The last site also clears the bits above it (the old x = 0 under
        # the wall, which no later site reads).
        keep = bit - 1 if i == last else ~bit
        nxt: dict[int, list[int]] = {}
        for mask, poly in current.items():
            w = (mask & parents).bit_count()
            mask &= keep
            if not w:
                _add(nxt, mask, poly)
                continue
            dry = poly
            for _ in range(w):  # times (1 - p) per wet parent
                dry = [a - b for a, b in zip(dry, [0, *dry])]
            wet = [a - b for a, b in zip(poly, dry)]
            if any(dry):
                _add(nxt, mask, dry)
            if any(wet):
                _add(nxt, mask | bit, wet)
        current = nxt
    return current


def _check_order(order: int) -> int:
    order = _as_int(order, "order")
    if order < 0:
        raise DomainError(f"need order >= 0, got {order}")
    if order > MAX_ORDER:
        raise _budget_error(
            "percolation series", "order", "MAX_ORDER", MAX_ORDER, "powers of p", order, "asked for"
        )
    return order


def column_states(t: int, order: int, wall: bool = False) -> dict[int, list[int]]:
    """Joint wet-mask distribution of column t, to the given order.

    Bit i of a mask refers to ``column_sites(t, wall)[i]``.  The polynomial
    values are dense coefficient lists of length order + 1.  Past column
    ``order`` only the all-dry mask survives, since column t costs t bonds.
    """
    order = _check_order(order)
    t = _as_int(t, "t")
    if t < 0:
        raise DomainError(f"need t >= 0, got {t}")
    if t > order:
        return {0: [1] + [0] * order}
    states = {1: [1] + [0] * order}  # the origin, wet
    for step in range(t):
        states = _advance(states, step, wall, order)
    return states


def wet_probability(t: int, x: int, order: int, wall: bool = False) -> list[int]:
    """Coefficients of C(t, x; p) through p^order.

    Unreachable sites (beyond the light cone, or behind the wall) give the
    zero polynomial; (t, x) must be a lattice site, i.e. t + x even.
    """
    t, x = _as_int(t, "t"), _as_int(x, "x")
    if (t + x) % 2 != 0:
        raise DomainError(f"({t}, {x}) is not a lattice site (t + x must be even)")
    if t < 0:
        raise DomainError(f"need t >= 0, got {t}")
    states = column_states(t, order, wall)
    total = [0] * (order + 1)
    if not (0 if wall else -t) <= x <= t:
        return total
    bit = 1 << (t - x) // 2  # x's place in column_sites(t, wall)
    for mask, poly in states.items():
        if mask & bit:
            total = [a + b for a, b in zip(total, poly)]
    return total


def mean_size_series(order: int, wall: bool = False) -> list[int]:
    """Coefficients of the mean cluster size S(p) through p^order.

    Sums C(t, x; p) over all sites in columns 0..order; farther columns
    only contribute above the truncation order.
    """
    order = _check_order(order)
    total = [0] * (order + 1)
    states = {1: [1] + [0] * order}
    for t in range(order + 1):
        for mask, poly in states.items():
            wet = mask.bit_count()
            if wet:
                total = [a + wet * b for a, b in zip(total, poly)]
        if t < order:
            states = _advance(states, t, wall, order)
    return total
