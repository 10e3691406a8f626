"""Exact low-density series for directed bond percolation on the diagonal lattice.

Sites are the points (t, x) with t >= 0 and t + x even; from each site two
bonds lead to (t+1, x-1) and (t+1, x+1), each independently open with
probability p.  Fluid starts at the origin, and C(t, x; p) is the
probability that an open path reaches (t, x).  With a wall along the
t-axis, every bond into x < 0 is closed, confining the cluster to x >= 0.

The computation keeps, column by column, the exact joint distribution over
"which sites of the column are wet" as a map from bit masks to polynomials
in p with integer coefficients, truncated at the requested order.  Columns
are advanced one new site at a time: given the previous column's mask, a
new site with w wet parents turns wet with probability 1 - (1-p)^w,
independently of its siblings (distinct new sites use disjoint bonds).
Old-column bits are retired as soon as no unprocessed new site depends on
them, which keeps the live state count near one column's worth of masks.

The mean cluster size S(p) = sum over sites of C(t, x; p) is correct to
order p^N once columns 0..N are summed, since reaching column t costs at
least t open bonds.
"""

from __future__ import annotations

from .errors import DomainError, _as_int, _budget_error

MAX_ORDER = 14

# Wetting factors by number of wet parents: (degree, coefficient) terms of
# 1 - (1-p)^w (open) and (1-p)^w (closed).
_OPEN = {1: ((1, 1),), 2: ((1, 2), (2, -1))}
_CLOSED = {1: ((0, 1), (1, -1)), 2: ((0, 1), (1, -2), (2, 1))}


def column_sites(t: int, wall: bool = False) -> list[int]:
    """The x coordinates of column t's sites, highest first."""
    if t < 0:
        raise DomainError(f"need t >= 0, got {t}")
    bottom = -1 if wall else -t - 1
    return list(range(t, bottom, -2))


def _mul_trunc(poly: list[int], factors: tuple[tuple[int, int], ...], order: int) -> list[int]:
    out = [0] * (order + 1)
    for deg, coeff in factors:
        for e in range(order + 1 - deg):
            if poly[e]:
                out[e + deg] += coeff * poly[e]
    return out


def _advance(states: dict[int, list[int]], t: int, wall: bool, order: int) -> dict[int, list[int]]:
    """One transfer step: distribution over column t masks -> column t+1."""
    old_sites = column_sites(t, wall)
    new_sites = column_sites(t + 1, wall)
    old_bit = {x: 1 << i for i, x in enumerate(old_sites)}
    new_bit = {x: 1 << i for i, x in enumerate(new_sites)}

    # Keyed by (live old bits, new bits so far); dead old bits are cleared
    # so that states differing only in consumed sites merge.
    current: dict[tuple[int, int], list[int]] = {
        (om, 0): poly for om, poly in states.items()
    }
    for x in new_sites:
        parent_mask = old_bit.get(x - 1, 0) | old_bit.get(x + 1, 0)
        retire = ~old_bit.get(x + 1, 0)
        bit = new_bit[x]
        nxt: dict[tuple[int, int], list[int]] = {}
        for (om, nm), poly in current.items():
            w = (om & parent_mask).bit_count()
            om2 = om & retire
            if w == 0:
                key = (om2, nm)
                if key in nxt:
                    nxt[key] = [a + b for a, b in zip(nxt[key], poly)]
                else:
                    nxt[key] = poly
                continue
            for factors, mask in ((_CLOSED[w], nm), (_OPEN[w], nm | bit)):
                prod = _mul_trunc(poly, factors, order)
                if not any(prod):
                    continue
                key = (om2, mask)
                if key in nxt:
                    nxt[key] = [a + b for a, b in zip(nxt[key], prod)]
                else:
                    nxt[key] = prod
        current = nxt

    merged: dict[int, list[int]] = {}
    for (_, nm), poly in current.items():
        if nm in merged:
            merged[nm] = [a + b for a, b in zip(merged[nm], poly)]
        else:
            merged[nm] = poly
    return merged


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
                for e, coeff in enumerate(poly):
                    if coeff:
                        total[e] += wet * coeff
        if t < order:
            states = _advance(states, t, wall, order)
    return total
