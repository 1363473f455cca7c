from krlab.partitions import (
    conjugate,
    dominates,
    flip,
    horizontal_strips_above,
    horizontal_strips_below,
    is_horizontal_strip,
    is_partition,
    nn,
    norm,
    oc,
    oc_bar,
    partitions,
    partitions_upto,
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


def test_oc():
    assert oc((1, 1, 0, 0), 1) == (1, 1, 0, 0)
    assert oc_bar((0, 0, 0, 0), 1) == (1, 1, 1, 1)
    for lam in partitions_upto(5, max_len=3):
        v = tuple(list(lam) + [0] * (3 - len(lam)))
        assert oc(oc(v, 5), 5) == v
        assert is_partition(oc(v, 5))


def test_flip_involution():
    lam = (3, 2, 1)
    assert flip(flip(lam, 8), 8) == lam


def test_dominance_and_nn():
    assert dominates((3, 1), (2, 2))
    assert not dominates((2, 2), (3, 1))
    assert nn((3, 2, 1)) == 2 + 2
