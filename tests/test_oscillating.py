"""Oscillating chains: enumeration, index maps, the pair-cancelling
bijection, standardization, growth transport, and the widening map."""

import pytest

import krlab.oscillating as osc
from krlab.crystal import is_hw
from krlab.kr_column import BOX, VDOM, energy_col, vac, vac_qt_energy
from krlab.kr_row import eps0
from krlab.letters import sort_word
from krlab.oscillating import (
    GSSOT,
    SSOT,
    SSROT,
    aug,
    aug_via_hw,
    chain_c2,
    cind,
    count_chains,
    deaug_last_row,
    energy_counts,
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
    conjugate,
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


def _cind_reference(strip):
    """cind by conjugates: column j is unbarred when it gains a cell from
    inner to mid, barred when it loses one from mid to outer."""
    inner, mid, outer = strip
    ci, cm, co = conjugate(inner), conjugate(mid), conjugate(outer)
    cols = range(1, get(mid, 0) + 1)
    word = [j for j in cols if get(cm, j - 1) == get(ci, j - 1) + 1]
    word += [-j for j in cols if get(cm, j - 1) == get(co, j - 1) + 1]
    return sort_word(word)


def test_cind_rows_match_conjugate_reference():
    total = 0
    for kind in (SSOT, GSSOT):
        for two_g in (None, 3, 6):
            for inner in partitions_upto(5, max_len=4):
                for r in range(5):
                    for strip in osc._strips_from(inner, r, kind, two_g):
                        assert cind(strip) == _cind_reference(strip), strip
                        total += 1
    assert total > 3000
    # trailing zero rows read as empty rows
    assert cind(((2, 1, 0), (3, 2, 0, 0), (3, 0))) == (2, 3, -2, -1)


def _std_reference(strip):
    """std by its own cell moves: an unbarred letter grows the first row
    shorter than its column, a barred one shrinks the last row reaching
    its column."""
    inner, mid, outer = strip
    seq = [norm(inner)]
    cur = list(inner) + [0]
    for x in cind(strip):
        if x > 0:
            i = 0
            while get(tuple(cur), i) >= x:
                i += 1
            if len(cur) <= i:
                cur.extend([0] * (i + 1 - len(cur)))
            cur[i] += 1
        else:
            i = len(cur) - 1
            while i >= 0 and get(tuple(cur), i) < -x:
                i -= 1
            cur[i] -= 1
        seq.append(norm(tuple(cur)))
    assert seq[-1] == norm(outer)
    return tuple(seq)


def test_std_matches_reference():
    total = 0
    for inner in partitions_upto(5):
        for r in range(6):
            for strip in osc._strips_from(inner, r, SSOT, None):
                assert std(strip) == _std_reference(strip), strip
                total += 1
    assert total == 1400
    with pytest.raises(ValueError, match="outer shape"):
        std(((1,), (1,), (2,)))


def test_chain_searches_refuse_a_shape_that_is_no_partition():
    # oc((6,), 4, 1) once gave (-2,), and both shapes below gave [] as if
    # no chain existed
    with pytest.raises(ValueError, match="exceeds g"):
        oc((6,), 4, 1)
    for shape in ((-2,), (1, 2), (2, -1)):
        for kind in (SSOT, GSSOT, SSROT):
            with pytest.raises(ValueError, match="not a partition"):
                enumerate_chains(kind, shape, (4,), two_g=8)
            with pytest.raises(ValueError, match="not a partition"):
                count_chains(kind, shape, (3,), two_g=8)
        for kind in (SSOT, GSSOT):
            with pytest.raises(ValueError, match="not a partition"):
                energy_counts(kind, shape, (3,), 8)


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
    assert enumerate_chains(SSOT, (), (0, 0)) == [(((), (), ()), ((), (), ()))]
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
    weights = [
        (), (1,), (2,), (1, 1, 1), (2, 1, 2), (0, 2, 1), (3, 0, 0), (2, 0, 3, 1), (1, 3, 2), (2, -1, 1),
        (1, 1, 1, 1), (1, 2, 1, 0, 1),
    ]
    bounds = [None, 2, 3, 4, 5]
    total = 0
    for weight in weights:
        for shape in partitions_upto(sum(weight), max_len=4):
            for two_g in bounds:
                got = enumerate_chains(kind, shape, weight, two_g=two_g)
                assert got == _reference_chains(kind, shape, weight, two_g), (shape, weight, two_g)
                assert count_chains(kind, shape, weight, two_g) == len(got), (shape, weight, two_g)
                total += len(got)
    assert total > 200


def test_energy_counts_match_chain_list():
    """The walk counts the (energy, vacancy) pairs energy_col and vac give
    the listed chains, at bounds g = 1..4 for SSOT and g = 3/2..9/2 for
    GSSOT, zero-weight strips included."""
    weights = [
        (), (1,), (2,), (1, 1, 1), (2, 1, 2), (0, 2, 1), (3, 0, 0), (2, 0, 3, 1), (1, 3, 2), (2, 2, 2),
        (1, 1, 1, 1), (2, 1, 1, 1),
    ]
    for kind, bounds in ((SSOT, (2, 4, 6, 8)), (GSSOT, (3, 5, 7, 9))):
        total = 0
        vacs = set()
        for weight in weights:
            for shape in partitions_upto(sum(weight), max_len=3):
                for two_g in bounds:
                    want = {}
                    for c in enumerate_chains(kind, shape, weight, two_g=two_g):
                        t = phi_c(c, kind, weight)
                        key = (energy_col(t), vac(t))
                        want[key] = want.get(key, 0) + 1
                    got = energy_counts(kind, shape, weight, two_g)
                    assert got == want, (kind, shape, weight, two_g)
                    total += sum(want.values())
                    vacs.update(v for _, v in want)
        assert total > 200 and len(vacs) > 3, kind
        assert energy_counts(kind, (1,), (2, -1), bounds[1]) == {}
    with pytest.raises(KeyError):
        energy_counts(SSROT, (1,), (1,), 2)


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


def test_strips_between_is_filtered_strips_from():
    """The last strip of a chain search, listed between its two ends, is
    the reference listing out of inner kept at one outer shape, in order."""
    shapes = partitions_upto(5, max_len=4)
    total = 0
    for kind in (SSOT, GSSOT, SSROT):
        for two_g in [None] + list(range(10)):
            for inner in shapes:
                for r in range(6):
                    ref = _reference_strips(inner, r, kind, two_g)
                    for outer in shapes:
                        got = osc._strips_between(inner, outer, r, kind, two_g)
                        want = [s for s in ref if s[2] == outer]
                        assert list(got) == want, (kind, two_g, inner, outer, r)
                        total += len(got)
    assert total > 9000
    got = osc._strips_between((2, 1), (2, 1), 2, SSOT, None)
    assert isinstance(got, tuple) and len(got) == 3
    assert osc._strips_between((2, 1), (2, 1), 2, SSOT, None) is got
    for _, mid, outer in got:
        assert osc._shapes[mid] is mid and osc._shapes[outer] is outer


def test_gssot_short_last_strip_at_even_bound():
    # A short GSSOT strip needs 2 mid_1 + 1 <= 2g, so an even 2g caps mid_1
    # at g - 1 on it: the one strip to (1,) has mid (1,).
    assert enumerate_chains(GSSOT, (1,), (2,), 2) == []
    assert enumerate_chains(GSSOT, (1,), (2,), 3) == [(((), (1,), (1,)),)]
    counts = [len(enumerate_chains(GSSOT, (2, 1), (2, 2, 1), t)) for t in (2, 3, 4, 5)]
    assert counts == [0, 0, 5, 8]


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


def _phi_r_reference(chain, kind, weight):
    """Each row factor built afresh: SSOT and GSSOT strips through gamma."""
    from krlab.kr_row import RowKR

    row_kind = osc.ROW_KIND[kind]
    factors = []
    for strip, cap in zip(reversed(chain), reversed(tuple(weight))):
        w = rind_rohs(strip) if kind == SSROT else rind_rohs(gamma(strip))
        factors.append(RowKR(row_kind, cap, w))
    return tuple(factors)


def test_phi_r_matches_uncached_factors():
    # the grid of test_c_statistic_eps0_law
    seen = 0
    for kind in (SSOT, GSSOT, SSROT):
        for mu in [(1, 1), (2, 1), (2, 2), (1, 1, 1), (3, 2)]:
            step = 1 if kind == GSSOT else 2
            for m in range(sum(mu) % step, sum(mu) + 1, step):
                for lam in partitions(m, max_len=len(mu)):
                    for c in enumerate_chains(kind, lam, mu):
                        assert phi_r(c, kind, mu) == _phi_r_reference(c, kind, mu), (kind, c)
                        seen += 1
    assert seen == 145


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


def _letter_counts(word):
    up, down = {}, {}
    for x in word:
        side = up if x > 0 else down
        side[abs(x)] = side.get(abs(x), 0) + 1
    return up, down


def _gamma_by_counts(strip):
    """gamma as it was computed before it read its rows off the shapes: by
    re-counting the letters of rind_ohs."""
    inner, mid, outer = strip
    up, down = _letter_counts(rind_ohs(strip))
    top = max(len(mid), 1)
    k = {i: min(up.get(i, 0), down.get(i, 0)) for i in range(1, top + 2)}
    zeta = [get(inner, i - 1) - (down.get(i, 0) - k[i] + k[i + 1]) for i in range(1, top + 1)]
    return (inner, norm(tuple(zeta)), outer)


def _gamma_inv_by_counts(strip, r):
    """gamma_inv as it was computed before: by re-counting rind_rohs."""
    inner, zeta, outer = strip
    word = rind_rohs(strip)
    up, down = _letter_counts(word)
    top = max(len(inner), len(outer), len(zeta), 1)
    m = {i: min(up.get(i, 0), down.get(i, 0)) for i in range(0, top + 2)}
    if r < len(word) or (r - len(word)) % 2:
        return None
    m[0] = (r - len(word)) // 2
    mid = [get(inner, i - 1) + up.get(i, 0) - m[i] + m[i - 1] for i in range(1, top + 2)]
    out = (inner, norm(tuple(mid)), outer)
    return out if osc.check_ohs(out) and strip_len(out) == r else None


# every triple of shapes with parts <= 4 and at most 3 rows
_BOX_SHAPES = partitions_upto(12, max_len=3, max_part=4)
_TRIPLES = [(a, b, c) for a in _BOX_SHAPES for b in _BOX_SHAPES for c in _BOX_SHAPES]


def test_gamma_matches_count_reference():
    strips = {s for inner in partitions_upto(6, max_len=4) for r in range(5) for s in osc._strips_from(inner, r, SSOT, None)}
    strips.update(t for t in _TRIPLES if osc.check_ohs(t))
    for s in strips:
        assert gamma(s) == _gamma_by_counts(s), s
    assert len(strips) == 2462


def test_gamma_inv_matches_count_reference():
    tested = 0
    for t in _TRIPLES:
        if osc.check_rohs(t):
            for r in range(6):
                want = _gamma_inv_by_counts(t, r)
                if want is None:
                    with pytest.raises(ValueError):
                        gamma_inv(t, r)
                else:
                    assert gamma_inv(t, r) == want, (t, r)
                    assert gamma(want) == t
                    tested += 1
    assert tested == 2209


def _refusal(f, *args):
    try:
        f(*args)
    except ValueError as e:
        return str(e)
    return None


def test_gamma_and_gamma_inv_refuse_inputs_outside_their_domain():
    non_ohs = non_rohs = 0
    for t in _TRIPLES:
        if not osc.check_ohs(t):
            assert _refusal(gamma, t) == "gamma needs an ohs", t
            non_ohs += 1
        if not osc.check_rohs(t):
            for r in range(6):
                assert _refusal(gamma_inv, t, r) == "gamma_inv needs an rohs", (t, r)
            non_rohs += 1
    assert non_ohs == non_rohs == 41325
    # both returned a value here before the domain check
    assert _refusal(gamma, ((), (), (1,))) == "gamma needs an ohs"
    assert _refusal(gamma_inv, ((1,), (2,), (1,)), 0) == "gamma_inv needs an rohs"


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
            except ValueError:
                pass
        assert len(preimages) == 1, (c, preimages)


def test_widening_refuses_bad_input():
    chain = enumerate_chains(SSOT, (2, 1), (2, 1, 2))[0]
    # a first strip of odd length + width has no one-row form
    with pytest.raises(ValueError, match="no first strip of length 4"):
        aug(chain, 1, (3, 1, 2))
    with pytest.raises(ValueError, match="no first strip of length 2"):
        deaug_last_row(enumerate_chains(SSOT, (2, 1, 1), (2, 2, 2))[0], (3, 2, 2))
    # the second strip starts at (1,), where the first one does not end
    broken = (((), (1,), (1,)), ((1,), (2,), (2,)), ((1,), (2,), (2,)))
    with pytest.raises(ValueError, match="does not start where the previous one ended"):
        aug(broken, 1)
    # a first strip away from () gives a last factor other than 1..k
    with pytest.raises(ValueError, match="is not 1..1"):
        aug_via_hw((((1,), (2,), (2,)),), 1)


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
