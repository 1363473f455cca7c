from itertools import product

import pytest

from krlab.partitions import (
    conjugate,
    dominates,
    flip,
    get,
    horizontal_strips_above,
    horizontal_strips_below,
    is_horizontal_strip,
    is_partition,
    nn,
    norm,
    oc,
    oc_bar,
    pad,
    partitions,
    partitions_upto,
    row_box,
    size,
)


def test_conjugate_involution():
    for lam in partitions_upto(7):
        assert conjugate(conjugate(lam)) == lam
        assert size(conjugate(lam)) == size(lam)


def test_partition_counts():
    assert len(partitions(6)) == 11
    assert len(partitions(6, max_len=2)) == 4


def test_strips():
    assert is_horizontal_strip((3, 1), (2,))
    assert not is_horizontal_strip((2, 2), (1,))
    ups = horizontal_strips_above((2, 1), cap=3)
    assert all(is_horizontal_strip(nu, (2, 1)) for nu in ups)
    downs = horizontal_strips_below((3, 2))
    assert all(is_horizontal_strip((3, 2), lam) for lam in downs)


def test_strips_cell_window_matches_filtered():
    for mu in partitions_upto(6, max_len=4):
        first = mu[0] if mu else 0
        downs = horizontal_strips_below(mu)
        ups = {cap: horizontal_strips_above(mu, cap=cap) for cap in range(first, first + 3)}
        for lo in range(0, 5):
            for hi in range(lo, 6):
                for cap in ups:
                    assert horizontal_strips_above(mu, cap=cap, cells=(lo, hi)) == [
                        nu for nu in ups[cap] if lo <= size(nu) - size(mu) <= hi
                    ], (mu, cap, lo, hi)
                assert horizontal_strips_below(mu, cells=(lo, hi)) == [
                    lam for lam in downs if lo <= size(mu) - size(lam) <= hi
                ], (mu, lo, hi)


def test_row_box_matches_product_of_ranges():
    """Every vector of the box in order, a zero last entry dropped; the last
    row's low may be positive."""
    boxes = [((2, 1, 0), (3, 2, 1)), ((3, 0), (4, 2)), ((2,), (4,)), ((0,), (3,)), ((3, 2), (3, 1))]
    for lows, highs in boxes:
        every = list(product(*(range(l, h + 1) for l, h in zip(lows, highs))))
        for lo in range(-1, 6):
            for hi in range(lo, 7):
                want = [norm(v) for v in every if lo <= sum(v) - sum(lows) <= hi]
                assert row_box(lows, highs, lo, hi) == want, (lows, highs, lo, hi)


def _strips_above_reference(mu, cap, cells=None):
    """The row-by-row recursion that horizontal_strips_above replaced: each
    row's range cut by the cells the rows after it can still add."""
    mu = norm(mu)
    rows = len(mu) + 1
    lo, hi = cells if cells is not None else (0, cap)
    out = []

    def rec(i, acc, added):
        if i == rows:
            out.append(norm(tuple(acc)))
            return
        m = get(mu, i)
        top = cap if i == 0 else min(get(mu, i - 1), acc[i - 1])
        for v in range(max(m, lo - added), min(top, m + hi - added) + 1):
            acc.append(v)
            rec(i + 1, acc, added + v - m)
            acc.pop()

    rec(0, [], 0)
    return out


def _strips_below_reference(nu, cells=None):
    """The recursion that horizontal_strips_below replaced."""
    nu = norm(nu)
    lo, hi = cells if cells is not None else (0, size(nu))
    if not nu:
        return [()] if lo <= 0 else []
    out = []

    def rec(i, acc, removed):
        if i == len(nu):
            out.append(norm(tuple(acc)))
            return
        p, below = nu[i], get(nu, i + 1)
        top = min(p, acc[i - 1]) if i > 0 else p
        for v in range(max(below, p - hi + removed), min(top, p + below + removed - lo) + 1):
            acc.append(v)
            rec(i + 1, acc, removed + p - v)
            acc.pop()

    rec(0, [], 0)
    return out


def test_strips_match_recursive_reference():
    """The product over independent row ranges gives the recursion's list,
    in its order, for every cap up to 7 and windows that are empty, reach
    below zero or lie past every strip."""
    windows = [None] + [
        (lo, hi) for lo in (-2, -1, 0, 1, 2, 4, 8) for hi in (-1, 0, 1, 3, 5, 8)
    ]
    calls = 0
    for mu in partitions_upto(8, max_len=6):
        for cells in windows:
            for cap in range(8):
                got = horizontal_strips_above(mu, cap=cap, cells=cells)
                assert got == _strips_above_reference(mu, cap, cells), (mu, cap, cells)
            got = horizontal_strips_below(mu, cells=cells)
            if not mu and cells is not None and cells[1] < 0:
                # the recursion returned [()] here, removing 0 cells from a
                # window that excludes 0
                assert got == []
            else:
                assert got == _strips_below_reference(mu, cells), (mu, cells)
            calls += 9
    assert calls > 20000


def test_oc():
    assert oc((1, 1, 0, 0), 1) == (1, 1, 0, 0)
    assert oc_bar((0, 0, 0, 0), 1) == (1, 1, 1, 1)
    for lam in partitions_upto(5, max_len=3):
        v = tuple(list(lam) + [0] * (3 - len(lam)))
        assert oc(oc(v, 5), 5) == v
        assert is_partition(oc(v, 5))


def test_pad_oc_oc_bar_match_get_references():
    """Padding by slicing agrees with reading one part at a time through
    get: n=None, n above the length, and trailing zeros cut at n."""
    checked = 0
    for lam in partitions_upto(5, max_len=4):
        for v in (lam, lam + (0,), lam + (0, 0, 0)):
            for n in [None] + list(range(len(lam), 7)):
                m = len(v) if n is None else n
                ref = tuple(get(v, i) for i in range(m))
                if n is not None:
                    assert pad(v, n) == ref
                for g in (0, 3, 5):
                    if get(v, 0) > g:
                        with pytest.raises(ValueError, match="exceeds g"):
                            oc(v, g, n)
                    else:
                        assert oc(v, g, n) == tuple(g - ref[m - 1 - i] for i in range(m))
                    assert oc_bar(v, g, n) == tuple(g - get(v, i) for i in range(m))
                checked += 1
    assert checked > 300
    assert pad([2, 1], 3) == (2, 1, 0) and pad((), 0) == ()


def test_nonzero_part_past_rank_raises():
    for f, args in ((pad, ((2, 2, 2), 2)), (oc, ((2, 2, 2), 2, 2)), (oc_bar, ((2, 2, 2), 2, 2)),
                    (pad, ((1, 0, 1), 1)), (oc_bar, ((0, 0, 1), 0, 2))):
        with pytest.raises(ValueError):
            f(*args)


def test_flip_involution():
    lam = (3, 2, 1)
    assert flip(flip(lam, 8), 8) == lam


def test_dominance_and_nn():
    assert dominates((3, 1), (2, 2))
    assert not dominates((2, 2), (3, 1))
    assert nn((3, 2, 1)) == 2 + 2
