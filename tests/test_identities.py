"""Theorem-level equivalences: the recurrence bijection, the involution
partition, the level-restriction triple, the filtered expansion, the q = 1
counts, and the symmetric-function identities behind them."""

import hashlib
import sys

import pytest

import krlab
from krlab import kr_row, oscillating, qweight
from krlab.characters import (
    char_coeff,
    character,
    e_poly,
    m_hyperoct,
    ps_D,
    pss_bar_D,
)
from krlab.identities import (
    DIAMOND,
    SUITES,
    ZETA,
    _hat,
    add_rohs_phi,
    involution_partition,
    level_formula,
    okada_K_B,
    okada_K_D,
    okada_M,
    q1_count,
    rohs_bounded_len,
    suite_tasks,
    thm_b_rhs,
    thm_c_rhs,
    xk_filter_table,
    xk_lhs,
    xk_rhs_unfiltered,
)
from krlab.kr_column import BOX, HDOM, VDOM, vac_qt_energy
from krlab.kr_row import RowKR, r_matrix_row
from krlab.oscillating import (
    GSSOT,
    SSOT,
    SSROT,
    enumerate_chains,
    energy_of_chain,
    hw_row_elements,
    kappa_count,
    phi_c,
)
from krlab.partitions import flip, get, norm, oc, oc_bar, partitions, partitions_upto, size
from krlab.polynomials import Poly, poly_str
from krlab.qweight import kl_qt_B
from krlab.charge import kostka_foulkes


def dbl(v, n, spin=False):
    return tuple(2 * get(v, i) + (1 if spin else 0) for i in range(n))


def test_thm_b_small_grid():
    for n in (1, 2):
        for lam in partitions_upto(3, max_len=n):
            for mu in partitions_upto(3, max_len=n):
                oracle = kl_qt_B(n, dbl(lam, n, True), dbl(mu, n, True))
                g = max(get(lam, 0), 1)
                assert thm_b_rhs(lam, mu, n, g) == oracle
    # t := q collapse has nonnegative coefficients
    p = thm_b_rhs((2, 1), (1,), 2, 2).subs_t_q()
    assert all(c > 0 for c in p.c.values())


def _thm_c_rhs_per_chain(lam, mu, n, g):
    """Theorem C's energy sum chain by chain, each chain split afresh: the
    reference for thm_c_rhs's single walk."""
    lam = tuple(get(lam, i) for i in range(n))
    mu = tuple(get(mu, i) for i in range(n))
    wt = oc_bar(mu, g, n)
    out = Poly.zero(1)
    for chain in enumerate_chains(SSOT, norm(oc(lam, g, n)), wt, two_g=2 * g):
        out = out + Poly.mono((energy_of_chain(chain, SSOT, wt),))
    return out


@pytest.mark.parametrize("n", (2, 3, 4))
def test_thm_c_walk_matches_per_chain_sum(n):
    """Every thm-c grid instance with |lam|, |mu| <= 4, at bounds g and g + 1."""
    tasks = suite_tasks("thm-c", 4, n)
    nonzero = 0
    for _, _, (n, lam, mu, g) in tasks:
        got = thm_c_rhs(lam, mu, n, g)
        assert got == _thm_c_rhs_per_chain(lam, mu, n, g), (lam, mu, g)
        nonzero += bool(got)
    assert nonzero > len(tasks) // 10


def _thm_b_rhs_per_chain(lam, mu, n, g):
    """Theorem B's q,t-energy sum chain by chain, each chain split afresh:
    the reference for thm_b_rhs's single walk."""
    lam = tuple(get(lam, i) for i in range(n))
    mu = tuple(get(mu, i) for i in range(n))
    wt = oc_bar(mu, g, n)
    out = Poly.zero(2)
    for chain in enumerate_chains(GSSOT, norm(oc(lam, g, n)), wt, two_g=2 * g + 1):
        out = out + vac_qt_energy(phi_c(chain, GSSOT, wt))
    return out


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_thm_b_walk_matches_per_chain_sum(n):
    """Every thm-b grid instance with |lam|, |mu| <= 4, at g = max(lam_1, 1)."""
    tasks = suite_tasks("thm-b", 4, n)
    nonzero = 0
    for _, _, (n, lam, mu, g) in tasks:
        got = thm_b_rhs(lam, mu, n, g)
        assert got == _thm_b_rhs_per_chain(lam, mu, n, g), (lam, mu, g)
        nonzero += bool(got)
    assert nonzero > len(tasks) // 10


@pytest.mark.parametrize(
    "lam, g, digest",
    [
        ((4, 4, 2, 2, 0), 4, "fd963158d45278a3f640b60ed1c425ff03b613909d72e7a411c93554c5159717"),
        ((3, 3, 2, 2, 1, 1, 0), 3, "bd961fa5774259ef4394635c899243ebfad88a44cc2d8073633076b5299324eb"),
    ],
    ids=["C5", "C7"],
)
def test_thm_c_rhs_rank5_rank7_pinned(lam, g, digest):
    # mu = 0; the C5 digest is that of the oracle's kl_poly at the same lam
    n = len(lam)
    p = thm_c_rhs(lam, (0,) * n, n, g)
    assert hashlib.sha256(poly_str(p, ("q",)).encode()).hexdigest() == digest


def test_lambda_shift_vectors():
    from krlab.identities import _lambda_i

    lam = (3, 2, 1, 1)
    assert _lambda_i(lam, 4, 1) == (2, 1, 1)
    assert _lambda_i(lam, 4, 2) == (4, 1, 1)
    assert _lambda_i(lam, 4, 3) == (4, 3, 1)
    assert _lambda_i(lam, 4, 4) == (4, 3, 2)


def test_add_rohs_bijection_and_energy():
    # the appended-strip bijection hits every bounded chain exactly once and
    # adds r + m to the energy
    n, g = 2, 4
    lam, mu = (3, 1), (1, 0)
    from krlab.identities import _lambda_i

    for i in (1, 2):
        total = get(lam, i - 1) - mu[0] + 1 - i
        if total < 0:
            continue
        li = _lambda_i(lam, n, i)
        gamma_w = tuple(g - mu[j] for j in range(1, n)) + (total,)
        target = enumerate_chains(
            SSOT, norm(oc(li, g, n - 1)), gamma_w, two_g=2 * g
        )
        built = set()
        for r in range(total % 2, total + 1, 2):
            m = (total - r) // 2
            for strip in rohs_bounded_len(li, r, n - 1):
                nu = strip[2]
                for chain in enumerate_chains(
                    SSOT,
                    norm(oc(nu, g, n - 1)),
                    oc_bar(mu[1:], g, n - 1),
                    two_g=2 * g,
                ):
                    new, wts = add_rohs_phi(i, strip, chain, lam, mu, n, g)
                    assert new in target, (strip, chain)
                    assert new not in built
                    built.add(new)
                    d0 = energy_of_chain(chain, SSOT, wts[:-1])
                    d1 = energy_of_chain(new, SSOT, wts)
                    assert d1 == d0 + r + m
        assert len(built) == len(target)


def test_involution_partition_example():
    gs = involution_partition((4, 2), (0, 0), 2, 7)
    assert len(gs[0]["chains"]) == 7
    assert len(gs[1]["chains"]) == 2
    assert len(gs[0]["g1"]) == 5
    assert gs[0]["g2"] == gs[1]["g1"]
    assert not gs[1]["g2"]
    # telescoping: the signed sum collapses onto the first block
    total = Poly.zero(1)
    for entry in gs:
        sign = 1 if entry["i"] % 2 == 1 else -1
        for ch in entry["g1"] | entry["g2"]:
            total = total + sign * Poly.mono(
                (energy_of_chain(ch, SSOT, (7, 7)),)
            )
    block = Poly.zero(1)
    for ch in gs[0]["g1"]:
        block = block + Poly.mono((energy_of_chain(ch, SSOT, (7, 7)),))
    assert total == block
    assert block == thm_c_rhs((4, 2), (0, 0), 2, 7)


def test_level_formula_triples():
    for lie_type in ("B", "C", "D"):
        for n in (1, 2):
            if lie_type == "D" and n < 2:
                continue
            for lam in partitions_upto(2, max_len=n):
                for mu in partitions_upto(2, max_len=n):
                    lam_d, mu_d = dbl(lam, n), dbl(mu, n)
                    g = max(get(lam, 0), get(mu, 0), 1)
                    lhs, mid, rhs = level_formula(lie_type, n, lam_d, mu_d, 2 * g)
                    assert lhs == mid == rhs, (lie_type, n, lam, mu)
    # diagonal gives one
    lhs, mid, rhs = level_formula("C", 2, (4, 2), (4, 2), 6)
    assert lhs == mid == rhs == Poly.one(1)


def test_level_formula_spin_and_negative():
    for lie_type in ("B", "D"):
        n = 2
        for lam in partitions_upto(2, max_len=n):
            for mu in partitions_upto(2, max_len=n):
                lam_d, mu_d = dbl(lam, n, True), dbl(mu, n, True)
                two_g = max(lam_d[0], mu_d[0], 1)
                lhs, mid, rhs = level_formula(lie_type, n, lam_d, mu_d, two_g)
                assert lhs == mid == rhs, (lie_type, lam, mu)
    lhs, mid, rhs = level_formula("D", 2, (4, -2), (2, 0), 4)
    assert lhs == mid == rhs


def test_xk_lhs_checks_listed_eps0(monkeypatch):
    # the level right side is xk_lhs at max_eps0 = zeta g; an element
    # listed above that bound is an error, not a term
    listed = hw_row_elements(HDOM, (2, 2), (2, 2), 4)
    assert xk_lhs(HDOM, (2, 2), (2, 2), 2) == level_formula("C", 2, (0, 0), (0, 0), 4)[2]
    over = [(chain, tensor, 3) for chain, tensor, _ in listed]
    monkeypatch.setattr("krlab.identities.hw_row_elements", lambda *args: over)
    with pytest.raises(ValueError, match="eps_0 3 over 2"):
        xk_lhs(HDOM, (2, 2), (2, 2), 2)
    assert xk_lhs(HDOM, (2, 2), (2, 2)).subs_all_one() == len(listed)


def test_level_q1_is_weight_multiplicity():
    for lie_type in ("B", "C", "D"):
        n = 2
        for lam in partitions_upto(2, max_len=n):
            for mu in partitions_upto(2, max_len=n):
                lam_d, mu_d = dbl(lam, n), dbl(mu, n)
                g = max(get(lam, 0), get(mu, 0), 1)
                _, _, rhs = level_formula(lie_type, n, lam_d, mu_d, 2 * g)
                assert rhs.subs_all_one() == char_coeff(lie_type, n, lam_d, mu_d)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bounded_hw_row_elements_match_filtered(n):
    # the level suite's grid, spin weights included: listing only g-bounded
    # chains gives the unbounded list filtered by the level bound, in order
    grid, _ = SUITES["level"]
    checked = 0
    for _, (lie_type, _, lam_d, mu_d, two_g) in grid(4, n):
        kind = DIAMOND[lie_type]
        lam_hat, mu_hat = _hat(lam_d, two_g, n), _hat(mu_d, two_g, n)
        bounded = hw_row_elements(kind, mu_hat, norm(lam_hat), two_g)
        unbounded = hw_row_elements(kind, mu_hat, norm(lam_hat))
        kept = [el for el in unbounded if 2 * el[2] <= ZETA[lie_type] * two_g]
        assert bounded == kept, (lie_type, lam_d, mu_d, two_g)
        checked += len(unbounded) > len(kept)
    assert n == 1 or checked > 0
    if n > 3:
        return
    # the xk suite's grid, as the filtered X = K sum selects: eps_0 <= M
    # for M = 0..5 is 2g = 2M for the horizontal-domino kind, 2g = M else
    xk_grid, _ = SUITES["xk"]
    for _, (kind, mu, lam) in xk_grid(4, n):
        unbounded = hw_row_elements(kind, mu, norm(lam))
        for bound in range(6):
            two_g = 2 * bound if kind == HDOM else bound
            kept = [el for el in unbounded if el[2] <= bound]
            assert hw_row_elements(kind, mu, norm(lam), two_g) == kept, (kind, mu, lam, bound)
            checked += len(unbounded) > len(kept)
    assert checked > 0


def test_xk_filter_table():
    for kind in (BOX, HDOM, VDOM):
        mu = (2, 1)
        for m in range(0, 4):
            if kind in (HDOM, VDOM) and (3 - m) % 2:
                continue
            for lam in partitions(m, max_len=2):
                stats = [e0 for _, _, e0 in hw_row_elements(kind, mu, lam)]
                if not stats:
                    continue
                top = max(stats)
                prev = None
                for M in range(0, top + 2):
                    table = xk_filter_table(kind, lam, mu, M)
                    assert all(v >= 0 for v in table.values())
                    if prev is not None:
                        for nu, v in prev.items():
                            assert table.get(nu, 0) >= v, (kind, lam, M)
                    prev = table
                # saturation reproduces the unfiltered expansion
                lhs = xk_lhs(kind, mu, lam)
                rebuilt = Poly.zero(1)
                for nu, v in xk_filter_table(kind, lam, mu, top).items():
                    rebuilt = rebuilt + v * kostka_foulkes(nu, mu)
                assert rebuilt == lhs == xk_rhs_unfiltered(kind, mu, lam)


def test_xk_filter_matches_twisted_branching():
    # saturated filtered coefficients recover the branching coefficients
    from krlab.characters import twisted_branching

    for lie_type, kind, zeta in (("C", HDOM, 1), ("B", BOX, 2), ("D", VDOM, 2)):
        n, g = 2, 2
        for lam in partitions_upto(2, max_len=n):
            lam_d = dbl(lam, n)
            lam_hat = tuple(g - get(lam, n - 1 - i) for i in range(n))
            mu_hat = (g, g)
            if kind in (HDOM, VDOM) and (size(mu_hat) - size(lam_hat)) % 2:
                continue
            table = xk_filter_table(kind, norm(lam_hat), mu_hat, zeta * g)
            branch = twisted_branching(lie_type, n, lam_d, 2 * g)
            branch = {
                k: v for k, v in branch.items() if v and size(k) == size(mu_hat)
            }
            assert table == branch, (lie_type, lam)


def test_q1_counts_all_types():
    for lie_type in ("B", "C", "D"):
        for n in (1, 2, 3):
            if lie_type == "D" and n < 2:
                continue
            for lam in partitions_upto(2, max_len=n):
                for mu in partitions_upto(2, max_len=n):
                    for spin in (False, True) if lie_type in ("B", "D") else (False,):
                        lam_d, mu_d = dbl(lam, n, spin), dbl(mu, n, spin)
                        two_g = max(lam_d[0], mu_d[0], 2)
                        if (two_g % 2) != (1 if spin else 0):
                            two_g += 1
                        cnt, mult = q1_count(lie_type, n, lam_d, mu_d, two_g)
                        assert cnt == mult, (lie_type, n, lam, mu, spin)


def test_q1_D_flip_is_negative_branch():
    # flipping the complement picks out the sign-flipped dominant weight
    n, g = 2, 3
    for lam in partitions_upto(2, max_len=n):
        if get(lam, n - 1) == 0:
            continue
        lam_d = dbl(lam, n)
        neg = lam_d[:-1] + (-lam_d[-1],)
        lam_hat = tuple(g - get(lam, n - 1 - i) for i in range(n))
        for mu in partitions_upto(2, max_len=n):
            mu_d = dbl(mu, n)
            mu_hat = tuple(g - get(mu, n - 1 - i) for i in range(n))
            flipped = norm(flip(lam_hat, 2 * g, n))
            from krlab.identities import count_chains
            from krlab.oscillating import SSROT

            assert count_chains(SSROT, flipped, mu_hat, 2 * g) == char_coeff(
                "D", n, neg, mu_d
            )


def test_kappa_lemmas():
    # dual Pieri multiplicities against the bounded strip counts, inside
    # the open box where the pair-cancelling argument is sharp (at the
    # wall lam_1 = g the two counts overlap)
    for g in (2, 3):
        for lam in partitions_upto(3, max_len=2):
            if get(lam, 0) >= g:
                continue
            for mu in partitions_upto(3, max_len=2):
                if get(mu, 0) >= g:
                    continue
                lamt, mut = (
                    tuple(__import__("krlab.partitions", fromlist=["conjugate"]).conjugate(lam)),
                    tuple(__import__("krlab.partitions", fromlist=["conjugate"]).conjugate(mu)),
                )
                for r in range(0, 4):
                    d = kappa_count(SSROT, lam, mu, r, 2 * g)
                    d_flip = kappa_count(SSROT, norm(flip(lam, 2 * g, 2)), mu, r, 2 * g)
                    rhs = okada_M(lamt, mut, g) * okada_K_D(lamt, mut, r, g)
                    assert d + d_flip == rhs, (lam, mu, r, g)
                    # minus version
                    rhs2 = kappa_count(SSOT, lam, mu, r, 2 * (g - 1)) - kappa_count(
                        SSOT, lam, mu, r - 2, 2 * (g - 1)
                    )
                    assert d - d_flip == rhs2, (lam, mu, r, g)
                    # spin connection
                    d_plus = kappa_count(SSROT, lam, mu, r, 2 * g + 1)
                    d_minus = kappa_count(
                        SSROT, norm(flip(lam, 2 * g + 1, 2)), mu, r, 2 * g + 1
                    )
                    b_diff = kappa_count(GSSOT, lam, mu, r, 2 * g) - kappa_count(
                        GSSOT, lam, mu, r - 1, 2 * g
                    )
                    if (size(lam) - size(mu) - r) % 2 == 0:
                        assert d_plus == b_diff, (lam, mu, r, g)
                        assert d_minus == 0 or d_plus - d_minus == b_diff
                    else:
                        assert d_minus == -b_diff or d_minus == b_diff * -1, (
                            lam, mu, r, g,
                        )
                        assert d_plus == 0


def test_okada_B_alternating_sum():
    # sum_i (-1)^i K^B(r - i) telescopes to the bounded gohs count
    from krlab.partitions import conjugate

    n = 3
    for lam in partitions_upto(3, max_len=n):
        for mu in partitions_upto(3, max_len=n):
            for r in range(0, 4):
                lhs = sum(
                    (-1) ** i * okada_K_B(conjugate(lam), conjugate(mu), r - i, n)
                    for i in range(r + 1)
                )
                sign = (-1) ** ((size(lam) - size(mu) - r) % 2)
                assert lhs == sign * kappa_count(GSSOT, lam, mu, r, 2 * n), (lam, mu, r)


def test_dual_pieri_type_B():
    for n in (2, 3):
        for r in range(1, n + 1):
            for mu in partitions_upto(2, max_len=n):
                mu_d = dbl(mu, n)
                lhs = character("B", n, dbl((1,) * r, n)) * character("B", n, mu_d)
                rhs = Poly(n, {})
                for m in range(size(mu) + r + 1):
                    for lam in partitions(m, max_len=n):
                        c = okada_K_B(lam, mu, r, n)
                        if c:
                            rhs = rhs + c * character("B", n, dbl(lam, n))
                assert lhs == rhs, (n, r, mu)


def test_dual_pieri_type_D():
    for n in (2, 3):
        for r in range(1, n + 1):
            for mu in partitions_upto(2, max_len=n):
                lhs = e_poly(n, r) * ps_D(n, dbl(mu, n))
                rhs = Poly(n, {})
                for m in range(size(mu) + r + 1):
                    for lam in partitions(m, max_len=n):
                        c = okada_M(lam, mu, n) * okada_K_D(lam, mu, r, n)
                        if c:
                            rhs = rhs + c * ps_D(n, dbl(lam, n))
                assert lhs == rhs, (n, r, mu)


def test_cauchy_type_B():
    for n, g in ((2, 2), (2, 3), (3, 2)):
        from krlab.partitions import conjugate

        lhs = {}
        rhs = {}
        boxes = [
            lam
            for m in range(n * g + 1)
            for lam in partitions(m, max_len=n)
            if get(lam, 0) <= g
        ]
        for lam in boxes:
            tilde = conjugate(oc(tuple(get(lam, i) for i in range(n)), g, n))
            sign = (-1) ** size(tilde)
            mx = m_hyperoct(n, dbl(lam, n))
            ep = Poly.one(g)
            for i in range(n):
                ep = ep * e_poly(g, g - get(lam, i))
            for kx, vx in mx.c.items():
                for kt, vt in ep.c.items():
                    key = (kx, kt)
                    lhs[key] = lhs.get(key, 0) + sign * vx * vt
            sx = character("B", n, dbl(lam, n))
            st = character("B", g, dbl(tilde, g))
            for kx, vx in sx.c.items():
                for kt, vt in st.c.items():
                    key = (kx, kt)
                    rhs[key] = rhs.get(key, 0) + sign * vx * vt
        lhs = {k: v for k, v in lhs.items() if v}
        rhs = {k: v for k, v in rhs.items() if v}
        assert lhs == rhs, (n, g)


def test_spin_cauchy_type_D():
    for n, g in ((2, 2),):
        from krlab.partitions import conjugate

        lhs = {}
        rhs = {}
        boxes = [
            lam
            for m in range(n * g + 1)
            for lam in partitions(m, max_len=n)
            if get(lam, 0) <= g
        ]
        for lam in boxes:
            lam_v = tuple(get(lam, i) for i in range(n))
            tilde = conjugate(oc(lam_v, g, n))
            tilde_v = tuple(get(tilde, i) for i in range(g))
            sign = (-1) ** size(tilde)
            mx = m_hyperoct(n, dbl(lam, n))
            ep = Poly.one(g)
            for i in range(n):
                ep = ep * e_poly(g, g - get(lam, i))
            for kx, vx in mx.c.items():
                for kt, vt in ep.c.items():
                    key = (kx, kt)
                    lhs[key] = lhs.get(key, 0) + sign * vx * vt
            sx = pss_bar_D(n, lam_v)
            st = pss_bar_D(g, tilde_v)
            for kx, vx in sx.c.items():
                for kt, vt in st.c.items():
                    key = (kx, kt)
                    rhs[key] = rhs.get(key, 0) + sign * vx * vt
        lhs = {k: v for k, v in lhs.items() if v}
        rhs = {k: v for k, v in rhs.items() if v}
        assert lhs == rhs, (n, g)


def _cache_sizes():
    """Entries held by every krlab memo table, by name."""
    out = {
        "oscillating._shapes": len(oscillating._shapes),
        "qweight._memo": len(qweight._memo),
        "kr_row._tables": len(kr_row._tables),
    }
    for name, mod in list(sys.modules.items()):
        if name.startswith("krlab."):
            for attr, fn in vars(mod).items():
                if hasattr(fn, "cache_info") and fn.__module__ == name:
                    out[name[len("krlab."):] + "." + attr] = fn.cache_info().currsize
    return out


def test_clear_caches_empties_every_cache():
    def compute():
        return (
            thm_c_rhs((2, 1), (1, 0), 2, 2),
            thm_b_rhs((1, 1), (0, 0), 2, 1),
            level_formula("B", 2, (3, 1), (1, 1), 3),
            q1_count("D", 3, (2, 2, 0), (0, 0, 0), 2),
            r_matrix_row(RowKR(HDOM, 2, (1, 2)), RowKR(HDOM, 1, (-1,))),
        )

    before = compute()
    warm = _cache_sizes()
    for name in ("oscillating._shapes", "qweight._memo", "kr_row._tables",
                 "oscillating._strips_from", "qweight.kl_poly",
                 "charge.kostka_foulkes", "characters.twisted_branching",
                 "kr_column.r_matrix_col", "oscillating._col_factor",
                 "kr_row._energy_row"):
        assert warm[name] > 0, name
    krlab.clear_caches()
    assert set(_cache_sizes().values()) == {0}
    assert compute() == before


def test_cache_sizes_reports_every_cleared_table():
    krlab.clear_caches()
    level_formula("C", 2, (2, 2), (0, 0), 4)
    sizes = krlab.cache_sizes()
    assert sizes == _cache_sizes()
    for name in ("oscillating._shapes", "oscillating._strips_from", "qweight._memo",
                 "kr_row._tables", "characters._monomial_schur", "characters.twisted_branching",
                 "charge.kostka_foulkes"):
        assert sizes[name] > 0, name
    krlab.clear_caches()
    assert set(krlab.cache_sizes().values()) == {0}
