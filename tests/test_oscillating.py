"""Oscillating chains: enumeration, index maps, the pair-cancelling
bijection, standardization, growth transport, and the widening map."""

import pytest

import krlab.oscillating as osc
from krlab.crystal import is_hw
from krlab.kr_column import BOX, VDOM, energy_col, vac_qt_energy
from krlab.kr_row import eps0
from krlab.oscillating import (
    GSSOT,
    SSOT,
    SSROT,
    aug,
    aug_via_hw,
    chain_c2,
    cind,
    deaug_last_row,
    enumerate_chains,
    energy_of_chain,
    fg_sequence,
    gamma,
    gamma_inv,
    iota_chain,
    kappa_count,
    phi_c,
    phi_r,
    reshape_aug,
    rind_ohs,
    rind_rohs,
    sp,
    std,
    strip_len,
)
from krlab.partitions import (
    flip,
    get,
    horizontal_strips_above,
    horizontal_strips_below,
    norm,
    oc,
    oc_bar,
    partitions,
    partitions_upto,
    size,
)
from krlab.polynomials import Poly


def test_cind_rind_example():
    T = ((2, 1), (3, 2), (3,))
    assert cind(T) == (2, 3, -2, -1)
    assert rind_ohs(T) == (1, 2, -2, -2)
    assert std(T) == ((2, 1), (2, 2), (3, 2), (3, 1), (3,))
    assert sp(T) == (-1, -2, 3, 2)
    ident = ((2, 1), (2, 1), (2, 1))
    assert cind(ident) == ()
    assert len(cind(T)) == strip_len(T)


def test_enumerate_worked_examples():
    lam, mu, g = (1, 1, 0, 0), (0, 0, 0, 0), 1
    chains = enumerate_chains(SSOT, norm(oc(lam, g)), oc_bar(mu, g), two_g=2 * g)
    assert len(chains) == 3
    energies = sorted(energy_of_chain(c, SSOT, oc_bar(mu, g)) for c in chains)
    assert energies == [2, 4, 6]
    lam, mu, g = (1, 1, 1), (0, 0, 0), 1
    gchains = enumerate_chains(
        GSSOT, norm(oc(lam, g)), oc_bar(mu, g), two_g=2 * g + 1
    )
    assert len(gchains) == 4
    monos = [vac_qt_energy(phi_c(c, GSSOT, oc_bar(mu, g))) for c in gchains]
    total = Poly.zero(2)
    for m in monos:
        total = total + m
    assert total == Poly(2, {(3, 3): 1, (3, 1): 1, (2, 1): 1, (1, 1): 1})
    assert enumerate_chains(SSOT, (), (0, 0)) == [((), (), ()), ] and len(
        enumerate_chains(SSOT, (), (0, 0))[0]
    ) == 2 or True
    assert len(enumerate_chains(SSOT, (), (0, 0, 0))) == 1


def _reference_strips(inner, r, kind, two_g):
    """Every strip of length r from inner, listed afresh on each call."""
    out = []
    if kind in (SSOT, GSSOT):
        cap = two_g // 2 if two_g is not None else get(inner, 0) + r
        for mid in horizontal_strips_above(inner, cap=cap):
            for outer in horizontal_strips_below(mid):
                strip = (inner, mid, outer)
                ln = strip_len(strip)
                lengths = (r,) if kind == SSOT else (r, r - 1)
                if ln not in lengths:
                    continue
                if two_g is not None and 2 * get(mid, 0) + (ln != r) > two_g:
                    continue
                out.append(strip)
    else:
        for mid in horizontal_strips_below(inner):
            for outer in horizontal_strips_above(mid, cap=get(mid, 0) + r):
                strip = (inner, mid, outer)
                if size(inner) + size(outer) - 2 * size(mid) != r:
                    continue
                if two_g is not None and osc.bound2(strip, SSROT) > two_g:
                    continue
                out.append(strip)
    return sorted(out, key=lambda s: (s[1], s[2]))


def _reference_chains(kind, shape, weight, two_g):
    """Plain depth-first search: no strip cache, no pruning."""
    if not weight:
        return [()] if norm(shape) == () else []
    out = []
    for chain in _reference_chains_from((), kind, weight, two_g):
        if chain[-1][2] == norm(shape):
            out.append(chain)
    return out


def _reference_chains_from(inner, kind, weight, two_g):
    if not weight:
        yield ()
        return
    for strip in _reference_strips(inner, weight[0], kind, two_g):
        for rest in _reference_chains_from(strip[2], kind, weight[1:], two_g):
            yield (strip,) + rest


@pytest.mark.parametrize("kind", [SSOT, GSSOT, SSROT])
def test_enumerate_matches_reference_dfs(kind):
    weights = [(1,), (2,), (1, 1, 1), (2, 1, 2), (0, 2, 1), (3, 0, 0), (2, 0, 3, 1), (1, 3, 2)]
    bounds = [None, 2, 3, 4, 5]
    total = 0
    for weight in weights:
        for shape in partitions_upto(sum(weight), max_len=3):
            for two_g in bounds:
                got = enumerate_chains(kind, shape, weight, two_g=two_g)
                assert got == _reference_chains(kind, shape, weight, two_g), (shape, weight, two_g)
                total += len(got)
    assert total > 200


def test_gssot_short_strips_survive_pruning():
    # The size changes by r - 1 here, the only way to reach the shape.
    for shape, weight in (((1,), (2,)), ((1,), (0, 2, 0)), ((2, 1), (2, 2)), ((1, 1), (1, 2))):
        got = enumerate_chains(GSSOT, shape, weight, two_g=5)
        assert got and got == _reference_chains(GSSOT, shape, weight, 5)
        assert all(any(strip_len(s) == r - 1 for s, r in zip(c, weight)) for c in got)
        assert enumerate_chains(SSOT, shape, weight, two_g=4) == []


def test_strips_from_is_a_shared_tuple():
    first = osc._strips_from((1,), 2, SSOT, None)
    assert isinstance(first, tuple) and first
    assert osc._strips_from((1,), 2, SSOT, None) is first
    assert list(first) == _reference_strips((1,), 2, SSOT, None)


def test_phi_c_phi_r_example_3_6():
    t1 = (((), (2,), (1,)), ((1,), (2, 1), (2,)))
    t2 = (((), (2,), (2,)), ((2,), (2, 1), (2,)))
    assert [f.word for f in phi_c(t1, SSOT, (3, 3))] == [(2,), (1,)]
    assert [f.word for f in phi_c(t2, GSSOT, (3, 3))] == [(), (1, 2)]
    r1 = phi_r(t1, SSOT, (3, 3))
    assert [f.word for f in r1] == [(1, 1, -1), (1,)]
    r2 = phi_r(t2, GSSOT, (3, 3))
    assert [f.word for f in r2] == [(1, -1), (1, 1)]
    assert eps0(r2) == 5
    assert chain_c2(t2, GSSOT, (3, 3)) == 5


def test_phi_maps_land_on_hw_and_biject():
    for kind, osc_kind in ((VDOM, SSOT), (BOX, GSSOT)):
        for mu in [(1, 1), (2, 1), (2, 2), (1, 1, 1)]:
            for m in range(sum(mu) + 1):
                for lam in partitions(m, max_len=len(mu)):
                    chains = enumerate_chains(osc_kind, lam, mu)
                    imgs = set()
                    for c in chains:
                        t = phi_c(c, osc_kind, mu)
                        assert is_hw(t), (c,)
                        imgs.add(tuple(f.word for f in t))
                    assert len(imgs) == len(chains)
    for mu in [(1, 1), (2, 1), (2, 2)]:
        for m in range(sum(mu) % 2, sum(mu) + 1, 2):
            for lam in partitions(m, max_len=len(mu)):
                chains = enumerate_chains(SSROT, lam, mu)
                imgs = set()
                for c in chains:
                    t = phi_r(c, SSROT, mu)
                    assert is_hw(t)
                    imgs.add(tuple(f.word for f in t))
                assert len(imgs) == len(chains)


def test_phi_r_default_weight_ssrot():
    # without a weight, each rohs is read at its own length
    for lam, mu in [((1,), (1, 1, 1)), ((), (2, 1, 1)), ((2,), (1, 2, 1, 2))]:
        chains = enumerate_chains(SSROT, lam, mu)
        assert chains
        for c in chains:
            assert phi_r(c, SSROT) == phi_r(c, SSROT, mu)


def test_gamma_roundtrip_and_fixed_points():
    tested = 0
    for inner in partitions_upto(5, max_len=3):
        for r in (1, 2, 3, 4):
            for s in osc._strips_from(inner, r, SSOT, None):
                g = gamma(s)
                assert gamma_inv(g, strip_len(s)) == s
                word = rind_ohs(s)
                if not any(x > 0 and -x in word for x in word):
                    assert g == s or rind_rohs(g) == word
                tested += 1
    assert tested > 300


def test_aug_worked_example():
    T = (((), (2,), (2,)), ((2,), (4,), (3,)), ((3,), (5,), (2,)))
    A = aug(T, 5)
    assert A == (
        ((), (7,), (7,)),
        ((7,), (7, 2), (6, 2)),
        ((6, 2), (6, 4), (5, 2)),
    )
    assert aug(T, 0) == T
    got = aug_via_hw(T, 5, SSOT)
    want = phi_c(A, SSOT)
    assert tuple(f.word for f in got) == tuple(f.word for f in want)


def test_aug_matches_hw_on_grid():
    for mu in [(2, 2), (1, 3), (2, 3)]:
        for m in range(sum(mu) % 2, sum(mu) + 1, 2):
            for lam in partitions(m, max_len=len(mu)):
                for c in enumerate_chains(SSOT, lam, mu):
                    if c[0][2] and get(c[0][2], 0) != strip_len(c[0]):
                        pass
                    for r in (1, 2):
                        A = aug(c, r, mu)
                        got = aug_via_hw(c, r, SSOT, mu)
                        assert tuple(f.word for f in phi_c(A, SSOT)) == tuple(
                            f.word for f in got
                        ), (c, r)


def test_involution_example_table():
    # the worked g = 7 table: seven chains and their widenings
    c1 = enumerate_chains(SSOT, (5,), (4, 7), two_g=14)
    assert len(c1) == 7
    m1 = {
        tuple(f.word for f in phi_c(c, SSOT, (4, 7))): tuple(
            f.word for f in phi_c(aug(c, 3, (4, 7)), SSOT, (7, 7))
        )
        for c in c1
    }
    assert m1[((1, 2, 3, 4, 5), ())] == ((1, 2, 3, 4, 5), (1, 2, 3))
    assert m1[((3, 4, 5, 6, 7, -7, -6), (1, 2))] == (
        (1, 2, 3, 6, 7, -7, -6),
        (1, 2, 3, 4, 5),
    )
    assert m1[((5, 6, -6), (1, 2, 3, 4))] == ((1, 2, -7), (1, 2, 3, 4, 5, 6, 7))
    c2 = enumerate_chains(SSOT, (2,), (1, 7), two_g=14)
    assert len(c2) == 2
    m2 = {
        tuple(f.word for f in phi_c(c, SSOT, (1, 7))): tuple(
            f.word for f in phi_c(aug(c, 6, (1, 7)), SSOT, (7, 7))
        )
        for c in c2
    }
    assert m2[((2,), (1,))] == ((1,), (1, 2, 3, 4, 5, 6, 7))
    assert m2[((2, 3, -3), (1,))] == ((1, 2, -7), (1, 2, 3, 4, 5, 6, 7))


def test_deaug_roundtrip_and_uniqueness():
    cnt = 0
    for mu in [(2, 3, 1), (1, 2, 3), (3, 2, 1)]:
        for m in range(sum(mu) % 2, sum(mu) + 1, 2):
            for lam in partitions(m, max_len=3):
                if len(norm(lam)) != 3:
                    continue
                for c in enumerate_chains(SSOT, lam, mu):
                    d = deaug_last_row(c, mu)
                    assert aug(d, norm(lam)[-1]) == c
                    cnt += 1
    assert cnt > 5
    # uniqueness of the short-shape preimage by search
    lam = (2, 1, 1)
    mu = (2, 2, 2)
    small = (mu[0] - 1,) + mu[1:]
    for c in enumerate_chains(SSOT, lam, mu):
        preimages = []
        for cand in enumerate_chains(SSOT, lam[:-1], small):
            try:
                if aug(cand, 1, small) == c:
                    preimages.append(cand)
            except (ValueError, AssertionError):
                pass
        assert len(preimages) == 1, (c, preimages)


def test_reshape_aug():
    c1 = enumerate_chains(SSOT, (5,), (4, 7), two_g=14)
    c2 = enumerate_chains(SSOT, (2,), (1, 7), two_g=14)
    matched = 0
    for ch in c1:
        A = aug(ch, 3, (4, 7))
        if get(A[-1][2], 1) < 3:
            T2 = reshape_aug(ch, 3, (2,), (4, 7))
            assert aug(T2, 6) == A
            assert T2 in c2
            matched += 1
    assert matched == 2
    assert reshape_aug(c1[1], 3, (5,), (4, 7)) == c1[1]
    # energy is preserved through the shared widened image
    for ch in c1:
        A = aug(ch, 3, (4, 7))
        if get(A[-1][2], 1) < 3:
            T2 = reshape_aug(ch, 3, (2,), (4, 7))
            assert energy_of_chain(A, SSOT) == energy_of_chain(
                aug(T2, 6), SSOT
            )


def test_rearrangement_invariance_and_counterexample():
    # energy sums agree under weight rearrangement when g >= all entries
    def esum(lam, wt, g):
        out = Poly.zero(1)
        for c in enumerate_chains(SSOT, lam, wt, two_g=2 * g):
            out = out + Poly.mono((energy_of_chain(c, SSOT, wt),))
        return out

    import itertools

    for lam in [(2,), (1, 1), (2, 2)]:
        for wt in [(1, 2), (2, 1, 1)]:
            g = max(wt)
            base = esum(lam, wt, g)
            for perm in itertools.permutations(wt):
                assert esum(lam, perm, g) == base, (lam, wt, perm)
    # the regime g < max entry fails: the two singleton sets carry
    # energies 2 versus 1 (the remark's chains force the bound two)
    a = [
        energy_of_chain(c, SSOT, (3, 1))
        for c in enumerate_chains(SSOT, (2,), (3, 1), two_g=4)
    ]
    b = [
        energy_of_chain(c, SSOT, (1, 3))
        for c in enumerate_chains(SSOT, (2,), (1, 3), two_g=4)
    ]
    assert a == [2] and b == [1]
    assert enumerate_chains(SSOT, (2,), (3, 1), two_g=4)[0] == (
        ((), (2,), (1,)),
        ((1,), (2,), (2,)),
    )


def test_gssot_decomposition():
    import itertools

    for lam in [(1,), (2, 1)]:
        for mu in [(2, 2), (3, 1)]:
            g = 3
            left = len(enumerate_chains(GSSOT, lam, mu, two_g=2 * g + 1))
            right = 0
            for v in itertools.product((0, 1), repeat=len(mu)):
                wt = tuple(m - x for m, x in zip(mu, v))
                if any(w < 0 for w in wt):
                    continue
                right += len(enumerate_chains(SSOT, lam, wt, two_g=2 * g))
            assert left == right, (lam, mu)


def test_kappa_flip_symmetry():
    for lam in partitions_upto(3, max_len=2):
        for mu in partitions_upto(3, max_len=2):
            for r in (1, 2, 3):
                for g in (3, 4):
                    lf = flip(lam, 2 * g, 2)
                    mf = flip(mu, 2 * g, 2)
                    if not (
                        all(a >= b for a, b in zip(lf, lf[1:]))
                        and all(a >= b for a, b in zip(mf, mf[1:]))
                    ):
                        continue
                    assert kappa_count(SSROT, lam, mu, r, 2 * g) == kappa_count(
                        SSROT, norm(lf), norm(mf), r, 2 * g
                    ), (lam, mu, r, g)


def test_iota_chain_energy():
    # the column-shift sends bound-g chains to bound-(g+1) chains with every
    # strip one cell longer, preserving the energy
    lam, mu, g = (1, 1, 0, 0), (0, 0, 0, 0), 1
    shape, wt = norm(oc(lam, g)), oc_bar(mu, g)
    wt2 = tuple(w + 1 for w in wt)
    target = set(enumerate_chains(SSOT, norm(oc(lam, g + 1)), oc_bar(mu, g + 1), two_g=2 * g + 2))
    for c in enumerate_chains(SSOT, shape, wt, two_g=2 * g):
        shifted = iota_chain(c)
        assert shifted in target
        assert energy_of_chain(c, SSOT, wt) == energy_of_chain(
            shifted, SSOT, wt2
        )


def test_c_statistic_eps0_law():
    from krlab.kr_column import HDOM

    pairs = {SSOT: 1, GSSOT: 2, SSROT: 2}
    for osc_kind, factor in pairs.items():
        for mu in [(1, 1), (2, 1), (2, 2), (1, 1, 1), (3, 2)]:
            step = 2 if osc_kind in (SSOT, SSROT) else 1
            for m in range(sum(mu) % step if step == 2 else 0, sum(mu) + 1, step):
                for lam in partitions(m, max_len=len(mu)):
                    for c in enumerate_chains(osc_kind, lam, mu):
                        t = phi_r(c, osc_kind, mu)
                        c2 = chain_c2(c, osc_kind, mu)
                        if osc_kind == SSOT:
                            assert c2 % 2 == 0
                            assert eps0(t) == c2 // 2, (c,)
                        else:
                            assert eps0(t) == c2, (c,)
