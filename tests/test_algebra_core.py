"""The Weyl-group oracle layer: positive roots, the q-analog counting
function, alternating sums, characters, and branching data."""

import itertools
import random
from collections import Counter

import pytest

from krlab.characters import (
    char_coeff,
    character,
    e_poly,
    lr_coef,
    m_hyperoct,
    ns_D,
    ps_D,
    pss_bar_D,
    schur,
    schur_expand,
    twisted_branching,
    twisted_branching_d,
)
from krlab.charge import charge, kostka_foulkes, reading_word, ssyt
from krlab.partitions import get, partitions, partitions_upto
from krlab.polynomials import Poly, WeightPoly
from krlab.qweight import (
    kl_A,
    kl_level_restricted,
    kl_poly,
    kl_qt_B,
    q_kostant,
    stable_kl,
    weyl_terms,
)
from krlab.roots import (
    apply_w,
    is_dominant,
    positive_roots,
    reflection_length,
    rho,
    weyl_dimension,
    weyl_group,
)


def dbl(v, n=None):
    n = n or len(v)
    return tuple(2 * get(v, i) for i in range(n))


def test_positive_roots_counts_and_rho():
    assert len(positive_roots("B", 3)) == 9
    assert len(positive_roots("C", 3)) == 9
    assert len(positive_roots("D", 3)) == 6
    assert rho("C", 3) == (6, 4, 2)
    assert rho("B", 3) == (5, 3, 1)
    assert set(positive_roots("B", 2)) == {(2, -2), (2, 2), (2, 0), (0, 2)}


def test_unsupported_type():
    with pytest.raises(ValueError):
        positive_roots("E", 6)


def test_sign_matches_reflection_length():
    for lie_type in ("A", "B", "C", "D"):
        for n in (2, 3):
            for w in weyl_group(lie_type, n):
                l = reflection_length(lie_type, n, w)
                assert (-1) ** l == w[2]


def test_q_kostant_base_cases():
    assert q_kostant("C", 2, (0, 0)) == Poly.one(1)
    # one-root system: 2 eps_1 used once
    assert q_kostant("C", 1, (4,)) == Poly.mono((1,))


def test_q_kostant_brute_force():
    # exhaustive expansion of beta = eps1 + eps2 in C2
    beta = (2, 2)
    roots = positive_roots("C", 2)
    best = {}
    maxm = 4
    total = Poly.zero(1)
    for ms in itertools.product(range(maxm), repeat=len(roots)):
        v = [0, 0]
        for m, r in zip(ms, roots):
            v[0] += m * r[0]
            v[1] += m * r[1]
        if tuple(v) == beta:
            total = total + Poly.mono((sum(ms),))
    assert q_kostant("C", 2, beta) == total


def test_kl_golden_values():
    assert kl_poly("C", 4, dbl((1, 1), 4), (0,) * 4) == Poly(
        1, {(6,): 1, (4,): 1, (2,): 1}
    )
    assert kl_qt_B(2, (2, 0), (0, 0)) == Poly(2, {(1, 1): 1, (1, 0): -1, (0, 1): 1})
    assert kl_qt_B(3, (3, 3, 3), (1, 1, 1)) == Poly(
        2, {(3, 3): 1, (3, 1): 1, (2, 1): 1, (1, 1): 1}
    )


def test_kl_c1_powers():
    for l in range(5):
        for m in range(5):
            p = kl_poly("C", 1, (2 * l,), (2 * m,))
            if l >= m and (l - m) % 2 == 0:
                assert p == Poly.mono(((l - m) // 2,))
            else:
                assert p.is_zero()


def test_kl_diagonal_and_parity_guard():
    assert kl_poly("B", 3, dbl((2, 1), 3), dbl((2, 1), 3)) == Poly.one(1)
    with pytest.raises(ValueError):
        kl_poly("B", 2, (3, 1), (2, 0))


def test_kl_q1_is_L_independent():
    for lam in partitions_upto(4, max_len=2):
        for mu in partitions_upto(4, max_len=2):
            a = kl_poly("C", 2, dbl(lam, 2), dbl(mu, 2)).subs_all_one()
            b = kl_level_restricted("C", 2, dbl(lam, 2), dbl(mu, 2)).subs_all_one()
            assert a == b
            assert a == char_coeff("C", 2, dbl(lam, 2), dbl(mu, 2))


def test_kl_qt_specializes():
    for lam in partitions_upto(3, max_len=2):
        for mu in partitions_upto(3, max_len=2):
            qt = kl_qt_B(2, dbl(lam, 2), dbl(mu, 2))
            assert qt.subs_t_q() == kl_poly("B", 2, dbl(lam, 2), dbl(mu, 2))


def test_q_kostant_nonnegative():
    for lam in partitions_upto(4, max_len=3):
        beta = dbl(lam, 3)
        p = q_kostant("B", 3, beta)
        assert all(v >= 0 for v in p.c.values())


def test_stable_kl():
    # stabilization: KL_{lam+k, mu+k} for large k equals the stable sum
    for lam in partitions_upto(3, max_len=2):
        for mu in partitions_upto(3, max_len=2):
            if (sum(lam) - sum(mu)) % 2:
                continue
            k = 3
            shifted = tuple(x + 2 * k for x in dbl(lam, 2))
            mshift = tuple(x + 2 * k for x in dbl(mu, 2))
            assert kl_poly("C", 2, shifted, mshift) == stable_kl(
                "C", 2, dbl(lam, 2), dbl(mu, 2)
            )


def _dominant_weights(lie_type, n, k):
    """Doubled dominant weights from partitions of size <= k: spin shifts
    in types B and D, and a negative last entry in type D."""
    out = set()
    for lam in partitions_upto(k, max_len=n):
        base = dbl(lam, n)
        for spin in (0, 1) if lie_type in ("B", "D") else (0,):
            w = tuple(x + spin for x in base)
            out.add(w)
            if lie_type == "D":
                out.add(w[:-1] + (-w[-1],))
    return sorted(w for w in out if is_dominant(lie_type, n, w))


def _full_sum(lie_type, n, lam, mu, tag, group):
    """Every term of the unpruned alternating sum over weyl_group(group)."""
    r = rho(lie_type, n)
    lam_rho = tuple(a + b for a, b in zip(lam, r))
    target = tuple(a + b for a, b in zip(mu, r))
    terms = Counter()
    total = Poly.zero(2 if tag == "qtB" else 1)
    for w in weyl_group(group, n):
        beta = tuple(a - b for a, b in zip(apply_w(w, lam_rho), target))
        terms[(beta, w[2])] += 1
        term = q_kostant(lie_type, n, beta, tag)
        total = total + (term if w[2] == 1 else -term)
    return terms, total


def _live(terms, lie_type, n):
    return Counter({t: m for t, m in terms.items() if q_kostant(lie_type, n, t[0])})


@pytest.mark.parametrize("lie_type", ["A", "B", "C", "D"])
def test_pruned_weyl_sum_matches_full_sum(lie_type):
    tags = ("one", "levelA", "qtB") if lie_type == "B" else ("one", "levelA")
    visited = full = 0
    for n in range(1 if lie_type != "D" else 2, 5):
        weights = _dominant_weights(lie_type, n, 4 if n < 4 else 3)
        for lam, mu in itertools.product(weights, repeat=2):
            if lam[0] % 2 != mu[0] % 2:
                continue
            for fn, group in ((kl_poly, lie_type), (stable_kl, "A")):
                pruned = Counter(weyl_terms(lie_type, n, lam, mu, group))
                for tag in tags:
                    terms, want = _full_sum(lie_type, n, lam, mu, tag, group)
                    assert fn(lie_type, n, lam, mu, tag) == want, (n, lam, mu, group, tag)
                # every visited leaf is a group element with its own det,
                # and every live term of the full sum is visited
                assert not pruned - terms, (n, lam, mu, group)
                assert _live(pruned, lie_type, n) == _live(terms, lie_type, n)
                visited += sum(pruned.values())
                full += sum(terms.values())
    assert visited < full / 4


def test_stable_kl_level_restricted_expansion():
    # the symmetric-group-only restricted sum expands over Kostka-Foulkes
    # polynomials against summed Littlewood-Richardson numbers
    from krlab.identities import p_diamond_member
    from krlab.kr_column import BOX, HDOM, VDOM
    from krlab.partitions import oc, size

    kinds = {"B": BOX, "C": HDOM, "D": VDOM}
    for lie_type in ("B", "C", "D"):
        n, g = 2, 2
        for lam in partitions_upto(2, max_len=n):
            for mu in partitions_upto(2, max_len=n):
                lhs = stable_kl(lie_type, n, dbl(lam, n), dbl(mu, n), "levelA")
                lam_hat = tuple(g - get(lam, n - 1 - i) for i in range(n))
                mu_hat = tuple(g - get(mu, n - 1 - i) for i in range(n))
                rhs = Poly.zero(1)
                for nu in partitions(sum(mu_hat), max_len=n):
                    c = sum(
                        lr_coef(nu, gamma, tuple(x for x in lam_hat if x))
                        for gamma in partitions_upto(
                            sum(mu_hat) - sum(lam_hat)
                        )
                        if size(gamma) + sum(lam_hat) == sum(mu_hat)
                        and p_diamond_member(kinds[lie_type], gamma)
                    )
                    if c:
                        rhs = rhs + c * kostka_foulkes(nu, mu_hat)
                assert lhs == rhs, (lie_type, lam, mu)
    # the worked instance: type C, lambda = (2,0), mu = 0, g = 2
    lhs = stable_kl("C", 2, (4, 0), (0, 0), "levelA")
    assert lhs == Poly(1, {(2,): 1, (1,): 1, (0,): 1})


def test_monotonicity_spot_check():
    for lam in partitions_upto(3, max_len=2):
        for mu in partitions_upto(3, max_len=2):
            a = kl_poly("C", 2, dbl(lam, 2), dbl(mu, 2))
            b = kl_poly(
                "C", 2, tuple(x + 2 for x in dbl(lam, 2)), tuple(x + 2 for x in dbl(mu, 2))
            )
            diff = b - a
            assert all(v >= 0 for v in diff.c.values()), (lam, mu)


def test_kostka_foulkes_values():
    assert kostka_foulkes((2, 1), (1, 1, 1)) == Poly(1, {(1,): 1, (2,): 1})
    assert kostka_foulkes((3, 1), (3, 1)) == Poly.one(1)


def test_kostka_foulkes_matches_type_A_oracle():
    random.seed(11)
    pool = [lam for lam in partitions_upto(6) if lam]
    for _ in range(40):
        lam = random.choice(pool)
        mus = [m for m in partitions_upto(6) if sum(m) == sum(lam)]
        mu = random.choice(mus)
        n = max(len(lam), len(mu))
        assert kostka_foulkes(lam, mu) == kl_A(n, dbl(lam, n), dbl(mu, n))


def test_character_basics():
    ch = character("C", 1, (2,))
    assert ch.c == {(2,): 1, (-2,): 1}
    assert character("C", 2, (2, 2)).eval_all_one() == 5
    assert weyl_dimension("C", 2, (2, 2)) == 5
    with pytest.raises(ValueError):
        character("C", 2, (0, 2))


def test_character_dimension_matches_weyl():
    for lie_type in ("B", "C", "D"):
        for lam in partitions_upto(3, max_len=2):
            if lie_type == "D" and len(lam) > 2:
                continue
            lam_d = dbl(lam, 2)
            assert character(lie_type, 2, lam_d).eval_all_one() == weyl_dimension(
                lie_type, 2, lam_d
            )


def test_character_D_negative_half_orbit():
    # invariance only under even sign changes
    ch = character("D", 2, (2, -2))
    assert ch.coeff((2, -2)) == 1
    assert ch.coeff((2, 2)) == 0
    assert ch.eval_all_one() == weyl_dimension("D", 2, (2, -2))


def test_twisted_branching_C1():
    for l in range(4):
        vals = {
            nu: twisted_branching_d("C", 1, (2 * l,), (2 * nu,), two_g=8)
            for nu in range(5)
        }
        expect = {nu: 1 for nu in range(l, -1, -2)}
        assert {k: v for k, v in vals.items() if v} == expect


def test_twisted_branching_g_independent():
    lam = dbl((2, 1), 2)
    a = twisted_branching("C", 2, lam, 4)
    b = twisted_branching("C", 2, lam, 6)
    # tables are indexed by oc(nu, g); compare through d values
    for nu in partitions_upto(3, max_len=2):
        nud = dbl(nu, 2)
        assert twisted_branching_d("C", 2, lam, nud, 4) == twisted_branching_d(
            "C", 2, lam, nud, 6
        )
    assert sum(a.values()) == sum(b.values())


def test_twisted_branching_weight_multiplicity():
    # sum over nu of K_{oc(nu),oc(mu)}(1) d_{lam,nu} = [x^mu] s_lam
    lie_type, n, g = "B", 2, 3
    for lam in partitions_upto(3, max_len=n):
        lam_d = dbl(lam, n)
        table = twisted_branching(lie_type, n, lam_d, 2 * g)
        for mu in partitions_upto(3, max_len=n):
            mu_hat = tuple(g - get(mu, n - 1 - i) for i in range(n))
            total = sum(
                d * kostka_foulkes(kappa, mu_hat).subs_all_one()
                for kappa, d in table.items()
            )
            assert total == char_coeff(lie_type, n, lam_d, dbl(mu, n))


def test_e_poly():
    n = 3
    assert e_poly(n, 0) == WeightPoly.one(n)
    assert e_poly(1, 1).c == {(2,): 1, (-2,): 1}
    with pytest.raises(ValueError):
        e_poly(2, 3)
    # the three character expressions agree
    for n in (2, 3, 4):
        for r in range(n + 1):
            ep = e_poly(n, r)
            c_side = WeightPoly(n, {})
            i = 0
            while r - 2 * i >= 0:
                c_side = c_side + character("C", n, dbl((1,) * (r - 2 * i), n))
                i += 1
            assert ep == c_side
            b_side = WeightPoly(n, {})
            for i in range(r + 1):
                term = character("B", n, dbl((1,) * (r - i), n))
                b_side = b_side + (term if i % 2 == 0 else -term)
            assert ep == b_side
            if r < n:
                assert ep == character("D", n, dbl((1,) * r, n))
            else:
                assert ep == character("D", n, dbl((1,) * n, n)) + character(
                    "D", n, dbl((1,) * (n - 1), n)[:-1] + (-2,)
                )


def test_weyl_D_factorization():
    for n in (2, 3):
        for lam in partitions_upto(3, max_len=n):
            lam_full = tuple(get(lam, i) + 1 for i in range(n))
            lhs = ns_D(n, dbl(lam_full, n)).shift((2,) * n)
            fac = WeightPoly.one(n)
            for i in range(n):
                key = [0] * n
                key[i] = 4
                fac = fac * WeightPoly(n, {tuple(key): 1, (0,) * n: -1})
            rhs = fac * character("C", n, dbl(lam, n))
            assert lhs == rhs


def test_pss_divisibility():
    for n in (2, 3):
        for lam in partitions_upto(2, max_len=n):
            pss_bar_D(n, tuple(get(lam, i) for i in range(n)))


def test_schur_expand_roundtrip():
    p = schur(3, (2, 1)) * schur(3, (2,))
    exp = schur_expand(p)
    back = WeightPoly(3, {})
    for lam, c in exp.items():
        back = back + c * schur(3, lam)
    assert back == p
    assert lr_coef((3, 2, 1), (2, 1), (2, 1)) == 2
