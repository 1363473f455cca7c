"""The Weyl-group oracle layer: positive roots, the q-analog counting
function, alternating sums, characters, and branching data."""

import hashlib
import itertools
import random
import tracemalloc
from collections import Counter
from functools import lru_cache

import pytest

from krlab.characters import (
    _dominant_candidates,
    _monomial_schur,
    _multiplicities,
    _rearrangements,
    char_coeff,
    character,
    e_poly,
    lr_coef,
    m_hyperoct,
    ns_D,
    orbit,
    ps_D,
    pss_bar_D,
    schur,
    schur_expand,
    twisted_branching,
    twisted_branching_d,
)
from krlab import clear_caches, qweight, roots
from krlab.charge import charge, kostka_foulkes, reading_word, ssyt
from krlab.partitions import get, is_partition, norm, partitions, partitions_upto
from krlab.polynomials import Poly, poly_str
from krlab.qweight import (
    kl_A,
    kl_level_restricted,
    kl_poly,
    kl_qt_B,
    q_kostant,
    simple_coords,
    stable_kl,
    weight_multiplicity,
    weyl_terms,
)
from krlab.roots import (
    apply_w,
    is_dominant,
    is_spin,
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


def test_rho_and_weyl_dimension_refuse_non_integral_input(monkeypatch):
    with pytest.raises(ValueError, match="not an integral weight of C1"):
        weyl_dimension("C", 1, (1,))
    # a root system whose positive roots sum to an odd vector has no rho
    monkeypatch.setattr(roots, "positive_roots", lambda lie_type, n: [(1, 0), (0, 2)])
    with pytest.raises(ValueError, match="do not sum to an even vector"):
        rho.__wrapped__("C", 2)


def test_unsupported_type():
    with pytest.raises(ValueError):
        positive_roots("E", 6)


def _is_dominant_three_scans(lie_type, n, w):
    """is_dominant as three scans of w: its spin test, its parity test and
    its descent test, the reference for the one-pass version."""
    if len(w) != n:
        return False
    spin = is_spin(w)
    if spin and not all(x % 2 for x in w):
        return False
    if not spin and any(x % 2 for x in w):
        return False
    if lie_type == "A":
        return not spin and all(a >= b for a, b in zip(w, w[1:]))
    if lie_type in ("B", "C"):
        if lie_type == "C" and spin:
            return False
        return all(a >= b for a, b in zip(w, w[1:])) and w[-1] >= 0
    if lie_type == "D":
        body = w[:-1] + (abs(w[-1]),)
        return all(a >= b for a, b in zip(body, body[1:])) and body[-1] >= 0
    raise ValueError(lie_type)


def test_is_dominant_matches_three_scan_reference():
    checked = 0
    for lie_type in ("A", "B", "C", "D"):
        for n in range(1, 5):
            for w in itertools.product(range(-4, 5), repeat=n):
                assert is_dominant(lie_type, n, w) == _is_dominant_three_scans(lie_type, n, w), (lie_type, w)
                checked += 1
    assert checked == 29520
    # a weight of another length, or of mixed parities, is refused before
    # the type is read
    assert not is_dominant("A", 3, (2, 0))
    assert not is_dominant("E", 2, (3, 2))
    with pytest.raises(ValueError):
        is_dominant("E", 2, (2, 0))
    with pytest.raises(ValueError):
        is_dominant("E", 2, (0, 2))


def test_type_D_rank_1_refused():
    # D_1 has no roots: 0 is not a weight of V(2), so no value may come back
    with pytest.raises(ValueError, match="type D needs rank >= 2"):
        positive_roots("D", 1)
    with pytest.raises(ValueError, match="type D needs rank >= 2"):
        kl_poly("D", 1, (4,), (0,))
    # lam - mu outside the root cone is refused too, not cut to 0, and so
    # is a beta outside it
    with pytest.raises(ValueError, match="type D needs rank >= 2"):
        kl_poly("D", 1, (0,), (4,))
    with pytest.raises(ValueError, match="type D needs rank >= 2"):
        q_kostant("D", 1, (-4,))


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


@pytest.mark.parametrize(
    "lam, digest",
    [
        ((4, 4, 2, 2, 0), "fd963158d45278a3f640b60ed1c425ff03b613909d72e7a411c93554c5159717"),
        ((2, 2, 1, 1, 0, 0), "0f2b48f0d4982737bb72cb778547de06d7084a4414201528511f05379b43c5b1"),
    ],
    ids=["C5", "C6"],
)
def test_kl_rank5_rank6_pinned(lam, digest):
    # KL^{C_n}_{lam,0}(q) at ranks 5 and 6, by the sha256 of its printed form
    n = len(lam)
    p = kl_poly("C", n, dbl(lam), (0,) * n)
    assert hashlib.sha256(poly_str(p, ("q",)).encode()).hexdigest() == digest


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


# (pairs the cone cut skips, non-dominant rows that are nonzero with lam - mu
# outside the root cone) on the grid below, per type
CONE_CUT = {"A": (900, 14), "B": (1524, 100), "C": (744, 28), "D": (4140, 156)}


@pytest.mark.parametrize("lie_type", ["A", "B", "C", "D"])
def test_cone_cut_skips_only_zero_sums(lie_type, monkeypatch):
    # the grid of test_pruned_weyl_sum_matches_full_sum: a dominant lam with
    # lam - mu outside the positive root cone returns 0 without walking W,
    # and that 0 is the full sum; the reversed weights, where not dominant,
    # still walk W, and some are nonzero outside the cone
    walks = []

    def counting(*args):
        walks.append(args)
        return weyl_terms(*args)

    monkeypatch.setattr(qweight, "weyl_terms", counting)
    tags = ("one", "levelA", "qtB") if lie_type == "B" else ("one", "levelA")
    cut = outside = 0
    for n in range(1 if lie_type != "D" else 2, 5):
        weights = _dominant_weights(lie_type, n, 4 if n < 4 else 3)
        for lam, mu in itertools.product(weights, repeat=2):
            if lam[0] % 2 != mu[0] % 2:
                continue
            for group in (lie_type, "A"):
                for tag in tags:
                    walked = len(walks)
                    got = qweight._alternating_sum(lie_type, n, lam, mu, tag, group)
                    if len(walks) == walked:
                        cut += 1
                        assert got == 0 == _full_sum(lie_type, n, lam, mu, tag, group)[1]
            if is_dominant(lie_type, n, lam[::-1]):
                continue
            for group in (lie_type, "A"):
                walked = len(walks)
                got = qweight._alternating_sum(lie_type, n, lam[::-1], mu, "one", group)
                assert len(walks) == walked + 1
                assert got == _full_sum(lie_type, n, lam[::-1], mu, "one", group)[1]
                d = simple_coords(lie_type, n, tuple(a - b for a, b in zip(lam[::-1], mu)))
                outside += bool(got) and (d is None or any(x < 0 for x in d))
    assert (cut, outside) == CONE_CUT[lie_type]


def test_narrow_fields_widen_to_the_same_results(monkeypatch):
    # forced one-bit coefficients, two-bit coordinates and no t-degree room
    # widen every field kind and give the results of the default widths;
    # (520,) has C1 simple coordinate 130, past an 8-bit field
    calls = [
        (kl_poly, ("C", 3, (8, 4, 4), (0, 0, 0))),
        (kl_poly, ("D", 4, (6, 4, 2, 0), (0,) * 4)),
        (kl_level_restricted, ("B", 3, (4, 4, 2), (0, 0, 0))),
        (kl_level_restricted, ("C", 3, (6, 2, 0), (2, 0, 0))),
        (kl_qt_B, (3, (7, 3, 1), (1, 1, 1))),
        (kl_qt_B, (4, (5, 3, 3, 1), (1, 1, 1, 1))),
        (q_kostant, ("C", 1, (520,))),
        (stable_kl, ("B", 3, (4, 2, 2), (0, 0, 0))),
    ]
    clear_caches()
    want = [fn(*args) for fn, args in calls]
    assert want[6] == Poly.mono((130,))
    monkeypatch.setattr(qweight, "_VEC_BITS", 3)
    monkeypatch.setattr(qweight, "_COEF_BITS", 2)
    monkeypatch.setattr(qweight, "_T_FIELDS", 1)
    clear_caches()
    assert [fn(*args) for fn, args in calls] == want
    widths = {key: (fill.vbits, fill.cbits, fill.tfields) for key, fill in qweight._memo.items()}
    assert widths[("C", 1, "one")] == (12, 2, 1)
    assert widths[("C", 3, "one")][1] > 2
    assert widths[("B", 4, "qtB")][1] > 2 and widths[("B", 4, "qtB")][2] > 1
    clear_caches()


def _ref_roots(lie_type, n, tag):
    """Positive roots in simple coordinates with their exponent vectors,
    non-simple roots first, then the simple roots' vectors in order."""
    roots = []
    for r in positive_roots(lie_type, n):
        if tag == "one":
            ev = (1,)
        elif tag == "levelA":
            # the positive roots with a negative entry are the e_i - e_j
            ev = (1,) if min(r) < 0 else (0,)
        else:
            ev = (1, 0) if sum(1 for x in r if x) == 2 else (0, 1)
        roots.append((simple_coords(lie_type, n, r), ev))
    simple = {c.index(1): ev for c, ev in roots if sum(c) == 1}
    others = sorted(((c, ev) for c, ev in roots if sum(c) != 1), key=lambda t: -sum(t[0]))
    return tuple(others), tuple(simple[i] for i in range(len(simple)))


def _ref_q_kostant(lie_type, n, beta, tag, memo):
    """The q-Kostant DP with Poly values: sum over the multiplicity m of
    each non-simple root in turn of q^{m L(a)} times the rest."""
    nvars = 2 if tag == "qtB" else 1
    others, simple_evs = _ref_roots(lie_type, n, tag)
    v = simple_coords(lie_type, n, tuple(beta))
    if v is None or any(x < 0 for x in v):
        return Poly.zero(nvars)

    def count(idx, v):
        key = (lie_type, n, tag, idx, v)
        if key in memo:
            return memo[key]
        if idx == len(others):
            e = [0] * nvars
            for m, ev in zip(v, simple_evs):
                for i in range(nvars):
                    e[i] += m * ev[i]
            out = Poly.mono(tuple(e))
        else:
            c, ev = others[idx]
            out = Poly.zero(nvars)
            cur = v
            m = 0
            while True:
                if m:
                    cur = tuple(a - b for a, b in zip(cur, c))
                    if any(x < 0 for x in cur):
                        break
                sub = count(idx + 1, cur)
                if sub:
                    out = out + sub.shift(tuple(m * x for x in ev))
                m += 1
        memo[key] = out
        return out

    return count(0, v)


def test_q_kostant_matches_poly_reference():
    # the dense coin-change DP against the Poly-valued recursion over root
    # multiplicities, on every beta of every alternating sum of the grid;
    # caches are cleared per type, so both cold and warm tables are read
    memo = {}
    for lie_type in ("A", "B", "C", "D"):
        clear_caches()
        tags = ("one", "levelA", "qtB") if lie_type == "B" else ("one", "levelA")
        for n in range(1 if lie_type != "D" else 2, 5):
            weights = _dominant_weights(lie_type, n, 4 if n < 4 else 3)
            for lam, mu in itertools.product(weights, repeat=2):
                if lam[0] % 2 != mu[0] % 2:
                    continue
                for fn, group in ((kl_poly, lie_type), (stable_kl, "A")):
                    terms = weyl_terms(lie_type, n, lam, mu, group)
                    for tag in tags:
                        want = Poly.zero(2 if tag == "qtB" else 1)
                        for beta, det in terms:
                            term = _ref_q_kostant(lie_type, n, beta, tag, memo)
                            assert q_kostant(lie_type, n, beta, tag) == term, (beta, tag)
                            want = want + (term if det == 1 else -term)
                        assert fn(lie_type, n, lam, mu, tag) == want, (n, lam, mu, group, tag)


def test_q_kostant_rejects_beta_of_wrong_length():
    # a short beta once read as a different vector: (4,) at rank 3 gave
    # 2q^3 + 2q^2, where (4, 0, 0) is q^5 + 2q^4 + 4q^3 + 2q^2 + q
    with pytest.raises(ValueError, match="length 1, not n = 3"):
        q_kostant("C", 3, (4,))
    with pytest.raises(ValueError, match="length 4, not n = 3"):
        q_kostant("B", 3, (2, 0, 0, 0))
    assert q_kostant("C", 3, (4, 0, 0)) == Poly(
        1, {(5,): 1, (4,): 2, (3,): 4, (2,): 2, (1,): 1}
    )


# states held after one cold call; the memo's layout must not change them
MEMO_STATES = [
    (kl_poly, ("C", 4, (8, 4, 4, 0), (0,) * 4), 6470),
    (kl_poly, ("B", 4, (6, 4, 2, 2), (0,) * 4), 5918),
    (kl_poly, ("D", 4, (6, 4, 2, 0), (0,) * 4), 1402),
    (kl_qt_B, (4, (7, 3, 1, 1), (1, 1, 1, 1)), 2015),
]


@pytest.mark.parametrize("fn,args,states", MEMO_STATES, ids=["C4", "B4", "D4", "qtB4"])
def test_memo_state_count_pinned(fn, args, states):
    clear_caches()
    fn(*args)
    assert len(qweight._memo) == states


def _memo_grid():
    calls = []
    for lie_type in ("B", "C", "D"):
        for lam in _dominant_weights(lie_type, 3, 4):
            if lam[0] % 2 == 0:
                calls.append((kl_poly, (lie_type, 3, lam, (0,) * 3)))
                calls.append((kl_level_restricted, (lie_type, 3, lam, (0,) * 3)))
            else:
                calls.append((kl_poly, (lie_type, 3, lam, (1,) * 3)))
    calls.append((kl_qt_B, (3, (4, 2, 2), (0, 0, 0))))
    return calls


def test_memo_fill_order_independent():
    calls = _memo_grid()
    clear_caches()
    forward = [fn(*args) for fn, args in calls]
    states = len(qweight._memo)
    clear_caches()
    backward = [fn(*args) for fn, args in reversed(calls)][::-1]
    assert backward == forward
    assert len(qweight._memo) == states > 0


def test_memo_equal_states_are_one_object():
    clear_caches()
    for fn, args in _memo_grid():
        fn(*args)
    for tables, values in qweight._memo.values():
        stored = [p for table in tables for p in table.values()]
        assert len({id(p) for p in stored}) == len(set(stored)) == len(values)
        assert all(values[p] is p for p in stored)


def test_memo_bytes_per_state():
    # one flat dict keyed by (type, n, tag, idx, v), with a tuple per state,
    # holds 267 traced bytes a state; tables per root index with shared
    # tuples hold about 166
    clear_caches()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kl_poly("C", 4, (8, 4, 4, 0), (0,) * 4)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / len(qweight._memo) < 210


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


def _charge_two_pass(word):
    """Charge as it was computed before the one-scan form: extract each
    standard subword by a cyclic scan, then find its letters again."""

    def charge_standard(sub):
        pos = {v: i for i, v in enumerate(sub)}
        idx = total = 0
        for v in range(2, len(sub) + 1):
            if pos[v] > pos[v - 1]:
                idx += 1
            total += idx
        return total

    word = list(word)
    total = 0
    while word:
        picked = []
        i = len(word) - 1
        for need in range(1, max(word) + 1):
            while word[i] != need or i in picked:
                i = i - 1 if i > 0 else len(word) - 1
            picked.append(i)
        total += charge_standard([word[j] for j in sorted(picked)])
        word = [x for j, x in enumerate(word) if j not in picked]
    return total


def test_charge_matches_two_pass_reference():
    words = 0
    for m in range(1, 8):
        for mu in partitions(m):
            letters = [v for v, c in enumerate(mu, start=1) for _ in range(c)]
            for word in set(itertools.permutations(letters)):
                assert charge(word) == _charge_two_pass(word), word
                words += 1
    assert words == 13390
    assert charge(()) == 0


@pytest.mark.parametrize("word", [(2,), (1, 2, 2), (1, 3), (0, 1), (1, -1)])
def test_charge_refuses_content_that_is_not_a_partition(word):
    with pytest.raises(ValueError, match="content must be a partition"):
        charge(word)


def test_kostka_foulkes_matches_type_A_oracle():
    random.seed(11)
    pool = [lam for lam in partitions_upto(6) if lam]
    for _ in range(40):
        lam = random.choice(pool)
        mus = [m for m in partitions_upto(6) if sum(m) == sum(lam)]
        mu = random.choice(mus)
        n = max(len(lam), len(mu))
        assert kostka_foulkes(lam, mu) == kl_A(n, dbl(lam, n), dbl(mu, n))
    # weights given as lists give the same value as tuples
    assert kl_A(2, [4, 0], [2, 2]) == kl_A(2, (4, 0), (2, 2)) == kostka_foulkes((2,), (1, 1))


def _orbit_reference(lie_type, n, w):
    """W.w as the image of w under every element of weyl_group."""
    return frozenset(apply_w(g, w) for g in weyl_group(lie_type, n))


@lru_cache(maxsize=None)
def _character_reference(lie_type, n, lam):
    """The Weyl character summed over the reference orbits, each dominant
    weight's multiplicity from the q = 1 oracle."""
    out = {}
    for nu in _dominant_candidates(lie_type, n, lam):
        m = weight_multiplicity(lie_type, n, lam, nu)
        for w in _orbit_reference(lie_type, n, nu):
            out[w] = out.get(w, 0) + m
    return Poly(n, out)


def _multiplicities_reference(lie_type, n, lam):
    """{nu: m} over the dominant candidates, m from the q = 1 oracle, m != 0."""
    pairs = ((nu, weight_multiplicity(lie_type, n, lam, nu)) for nu in _dominant_candidates(lie_type, n, lam))
    return {nu: m for nu, m in pairs if m}


def test_freudenthal_matches_oracle():
    # B, C and D at n <= 4, spin weights, type D's negative last entry and
    # D_2 included, and type A's partitions, each in the candidates' order
    cases = list(_dominant_grid(5, 4))
    cases += [("A", n, dbl(lam, n)) for n in range(1, 5) for lam in partitions_upto(5, max_len=n)]
    for lie_type, n, lam in cases:
        want = _multiplicities_reference(lie_type, n, lam)
        assert list(_multiplicities(lie_type, n, lam).items()) == list(want.items()), (lie_type, lam)
    assert len(cases) == 306 + 52
    assert sum(t == "D" and n == 2 for t, n, _ in cases) == 42
    # type A candidates are nonnegative: a weight below 0 is refused, not
    # given a character without it
    with pytest.raises(ValueError, match="nonnegative"):
        _multiplicities("A", 2, (0, -2))


def _monomial_schur_reference(n, top):
    """m_top built in full from its distinct rearrangements and straightened
    by schur_expand."""
    return schur_expand(Poly(n, dict.fromkeys(_rearrangements(top), 1)))


def test_monomial_schur_matches_full_straightening():
    tops = 0
    for n in range(1, 7):
        for kappa in partitions_upto(7, max_len=n):
            top = dbl(kappa, n)
            for key in (top, top[::-1]):
                want = _monomial_schur_reference(n, key)
                assert list(_monomial_schur(n, key).items()) == list(want.items()), (n, key)
            tops += 1
    assert tops == 183
    for top in ((3, 0), (2, -2), (0, 1), (4, -4)):
        with pytest.raises(ValueError, match="Schur span"):
            _monomial_schur_reference(2, top)
        with pytest.raises(ValueError, match="Schur span"):
            _monomial_schur(2, top)


def test_orbit_matches_weyl_group_reference():
    # dominant weights of B, C and D at n <= 5, spin weights and type D's
    # negative last entry included; type A's dominant weights; and every
    # vector of a small box, dominant or not, at n <= 3
    cases = list(_dominant_grid(6, 5))
    cases += [("A", n, dbl(lam, n)) for n in range(1, 6) for lam in partitions_upto(6, max_len=n)]
    for n in range(1, 4):
        for lie_type in "ABCD" if n > 1 else "ABC":
            cases += [(lie_type, n, w) for w in itertools.product(range(-3, 4), repeat=n)]
    for lie_type, n, w in cases:
        assert orbit(lie_type, n, w) == _orbit_reference(lie_type, n, w), (lie_type, w)
    assert len(cases) == 2304


def test_character_rank7_dimension():
    lam = (2, 2, 0, 0, 0, 0, 0)
    for lie_type in "BCD":
        assert character(lie_type, 7, lam).subs_all_one() == weyl_dimension(lie_type, 7, lam)


def test_character_basics():
    ch = character("C", 1, (2,))
    assert ch.c == {(2,): 1, (-2,): 1}
    assert character("C", 2, (2, 2)).subs_all_one() == 5
    assert weyl_dimension("C", 2, (2, 2)) == 5
    with pytest.raises(ValueError):
        character("C", 2, (0, 2))


def test_character_dimension_matches_weyl():
    for lie_type in ("B", "C", "D"):
        for lam in partitions_upto(3, max_len=2):
            if lie_type == "D" and len(lam) > 2:
                continue
            lam_d = dbl(lam, 2)
            assert character(lie_type, 2, lam_d).subs_all_one() == weyl_dimension(
                lie_type, 2, lam_d
            )


def test_character_D_negative_half_orbit():
    # invariance only under even sign changes
    ch = character("D", 2, (2, -2))
    assert ch.coeff((2, -2)) == 1
    assert ch.coeff((2, 2)) == 0
    assert ch.subs_all_one() == weyl_dimension("D", 2, (2, -2))


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


def _twisted_branching_reference(lie_type, n, lam, two_g):
    """The reference character, inverted, shifted by 2g and straightened."""
    return schur_expand(_character_reference(lie_type, n, lam).invert_vars().shift((two_g,) * n))


def _dominant_grid(max_size, max_n):
    """(type, n, lam) over B, C and D, n <= max_n, |lam| <= max_size, with
    spin weights in B and D and type D's negative last coordinate."""
    for n in range(1, max_n + 1):
        for lie_type in ("B", "C", "D"):
            if lie_type == "D" and n < 2:
                continue
            for lam in partitions_upto(max_size, max_len=n):
                plain = dbl(lam, n)
                spin = tuple(x + 1 for x in plain)
                for lam_d in (plain, spin) if lie_type != "C" else (plain,):
                    yield lie_type, n, lam_d
                    if lie_type == "D" and lam_d[-1]:
                        yield lie_type, n, lam_d[:-1] + (-lam_d[-1],)


def test_twisted_branching_matches_character_reference():
    cases = 0
    for lie_type, n, lam_d in _dominant_grid(5, 4):
        for two_g in range(abs(lam_d[0]), abs(lam_d[0]) + 5):
            try:
                want = _twisted_branching_reference(lie_type, n, lam_d, two_g)
            except ValueError:
                with pytest.raises(ValueError):
                    twisted_branching(lie_type, n, lam_d, two_g)
                continue
            assert twisted_branching(lie_type, n, lam_d, two_g) == want, (lie_type, n, lam_d, two_g)
            cases += 1
    assert cases == 918
    # below lam_1 both reject the weight: a key 2g - lam_1 is negative
    with pytest.raises(ValueError):
        twisted_branching("C", 2, (4, 2), 2)
    with pytest.raises(ValueError, match="not dominant"):
        twisted_branching("C", 2, (2, 4), 6)


def test_char_coeff_matches_character():
    triples = 0
    for lie_type, n, lam_d in _dominant_grid(4, 3):
        ch = _character_reference(lie_type, n, lam_d)
        assert character(lie_type, n, lam_d) == ch
        box = range(-abs(lam_d[0]) - 2, abs(lam_d[0]) + 3)
        for mu in itertools.product(box, repeat=n):
            triples += 1
            if is_spin(mu) != is_spin(lam_d):
                # no weight of lam_d has the other parity; char_coeff refuses it, as the oracle does
                assert ch.coeff(mu) == 0
                continue
            assert char_coeff(lie_type, n, lam_d, mu) == ch.coeff(mu), (lie_type, lam_d, mu)
        with pytest.raises(ValueError, match="mixed spin parity"):
            char_coeff(lie_type, n, lam_d, tuple(x + 1 for x in lam_d))
    assert triples == 237353
    with pytest.raises(ValueError, match="not dominant"):
        char_coeff("C", 2, (0, 2), (0, 2))


@pytest.mark.parametrize(
    "lam, mu, message",
    [
        ((2, 0), (2,), "weights must have length n"),
        ((2, 0), (2, 0, 0), "weights must have length n"),
        ((2,), (2,), "weights must have length n"),
        ((2, 0), (1, 1), "mixed spin parity"),
        ((1, 1), (2, 0), "mixed spin parity"),
    ],
)
def test_char_coeff_refuses_what_the_oracle_refuses(lam, mu, message):
    for fn in (char_coeff, weight_multiplicity):
        with pytest.raises(ValueError, match=message):
            fn("C", 2, lam, mu)


def test_e_poly():
    n = 3
    assert e_poly(n, 0) == Poly.one(n)
    assert e_poly(1, 1).c == {(2,): 1, (-2,): 1}
    with pytest.raises(ValueError):
        e_poly(2, 3)
    # the three character expressions agree
    for n in (2, 3, 4):
        for r in range(n + 1):
            ep = e_poly(n, r)
            c_side = Poly(n, {})
            i = 0
            while r - 2 * i >= 0:
                c_side = c_side + character("C", n, dbl((1,) * (r - 2 * i), n))
                i += 1
            assert ep == c_side
            b_side = Poly(n, {})
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
            fac = Poly.one(n)
            for i in range(n):
                key = [0] * n
                key[i] = 4
                fac = fac * Poly(n, {tuple(key): 1, (0,) * n: -1})
            rhs = fac * character("C", n, dbl(lam, n))
            assert lhs == rhs


def test_pss_divisibility():
    for n in (2, 3):
        for lam in partitions_upto(2, max_len=n):
            pss_bar_D(n, tuple(get(lam, i) for i in range(n)))


def _schur_expand_leading_term(wp):
    """Reference: subtract c s_lam for the largest remaining monomial."""
    rem = Poly(wp.nvars, dict(wp.c))
    out = {}
    while rem.c:
        key = max(rem.c)
        lam = tuple(a // 2 for a in key)
        assert all(a % 2 == 0 and a >= 0 for a in key) and is_partition(lam)
        c = rem.c[key]
        out[norm(lam)] = out.get(norm(lam), 0) + c
        rem = rem - c * schur(wp.nvars, norm(lam))
    return {k: v for k, v in out.items() if v}


def _schur_reference(n, lam):
    """The sum of x^content over every filling of lam with 1..n whose rows
    weakly increase and columns strictly increase, doubled keys."""
    cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
    out = {}
    for vals in itertools.product(range(n), repeat=len(cells)):
        t = dict(zip(cells, vals))
        rows = all(t[i, j] <= t[i, j + 1] for i, j in cells if (i, j + 1) in t)
        cols = all(t[i, j] < t[i + 1, j] for i, j in cells if (i + 1, j) in t)
        if rows and cols:
            key = tuple(2 * vals.count(k) for k in range(n))
            out[key] = out.get(key, 0) + 1
    return Poly(n, out)


def test_schur_matches_fillings_reference():
    for n in (1, 2, 3):
        for lam in partitions_upto(5):
            assert schur(n, lam) == _schur_reference(n, lam), (n, lam)


def test_schur_expand_matches_leading_term_reference():
    rng = random.Random(5)
    for n in range(1, 5):
        shapes = list(partitions_upto(5, max_len=n))
        for _ in range(40):
            wp = Poly(n, {})
            for lam in rng.sample(shapes, min(len(shapes), rng.randint(1, 4))):
                wp = wp + rng.randint(-3, 3) * schur(n, lam)
            assert schur_expand(wp) == _schur_expand_leading_term(wp)
    # s_(2) - s_(1,1) = m_(2): kappa = (1,1) is not a key, yet has a coefficient
    for n in (2, 3, 4):
        wp = schur(n, (2,)) - schur(n, (1, 1))
        assert (4,) + (0,) * (n - 1) in wp.c and (2, 2) + (0,) * (n - 2) not in wp.c
        assert schur_expand(wp) == {(2,): 1, (1, 1): -1}
        assert schur_expand(wp) == _schur_expand_leading_term(wp)
    assert schur_expand(Poly(3, {})) == {}
    assert schur_expand(Poly(2, {(0, 0): 7})) == {(): 7}


@pytest.mark.parametrize(
    "coeffs",
    [
        {(2, 0): 1},  # not symmetric: x_2 is missing
        {(2, 0): 1, (0, 2): 2},  # not symmetric: unequal coefficients
        {(1, 1): 1},  # odd exponent
        {(2, -2): 1, (-2, 2): 1},  # negative exponent
    ],
)
def test_schur_expand_rejects_outside_schur_span(coeffs):
    with pytest.raises(ValueError):
        schur_expand(Poly(2, coeffs))


def test_schur_expand_roundtrip():
    p = schur(3, (2, 1)) * schur(3, (2,))
    exp = schur_expand(p)
    back = Poly(3, {})
    for lam, c in exp.items():
        back = back + c * schur(3, lam)
    assert back == p
    assert lr_coef((3, 2, 1), (2, 1), (2, 1)) == 2
