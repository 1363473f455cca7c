"""The acceptance gate: every criterion at its stated size and tolerance,
one pass line per criterion.  Everything is exact arithmetic; run with
pytest -s to see the lines and timings.
"""

import itertools
import random
import time

from krlab.characters import lr_coef
from krlab.charge import kostka_foulkes
from krlab.crystal import is_hw
from krlab.identities import level_formula, q1_count, run_task, suite_tasks, thm_b_rhs
from krlab.kr_column import (
    BOX,
    VDOM,
    ColumnKR,
    energy_col,
    iota_col,
    r_matrix_col,
    split_col,
    split_image_hw,
    vac_qt_energy,
)
from krlab.kr_row import eps0
from krlab.letters import EMPTY, is_admissible, sort_word
from krlab.oscillating import (
    GSSOT,
    SSOT,
    SSROT,
    chain_c2,
    enumerate_chains,
    gamma,
    gamma_inv,
    phi_c,
    phi_r,
    strip_len,
)
from krlab.partitions import get, norm, partitions, partitions_upto, size
from krlab.polynomials import Poly
from krlab.qweight import kl_poly, kl_qt_B
from krlab.rsk import (
    alpha,
    bar,
    beta,
    bound_from_q,
    burge,
    phi_bc,
    phi_bc_stage1,
    q_entries,
    row_insert,
    tab,
    truncate,
)


def dbl(v, n, spin=False):
    return tuple(2 * get(v, i) + (1 if spin else 0) for i in range(n))


def _stamp(num, label, t0):
    print("ACCEPTANCE %2d [%s]: PASS (%.1fs)" % (num, label, time.time() - t0))


def test_criterion_01_oracle_golden_values():
    t0 = time.time()
    t1 = time.time()
    assert kl_poly("C", 4, (2, 2, 0, 0), (0, 0, 0, 0)) == Poly(
        1, {(6,): 1, (4,): 1, (2,): 1}
    )
    assert time.time() - t1 < 1.0
    t1 = time.time()
    assert kl_qt_B(3, (3, 3, 3), (1, 1, 1)) == Poly(
        2, {(3, 3): 1, (3, 1): 1, (2, 1): 1, (1, 1): 1}
    )
    assert time.time() - t1 < 1.0
    t1 = time.time()
    assert kl_qt_B(2, (2, 0), (0, 0)) == Poly(2, {(1, 1): 1, (1, 0): -1, (0, 1): 1})
    assert time.time() - t1 < 1.0
    _stamp(1, "oracle golden values", t0)


def _check_suite(suite, ranks, max_weight):
    """Check every instance of a verification suite's grid; the count."""
    checked = 0
    for n in ranks:
        for task in suite_tasks(suite, max_weight, n):
            assert run_task(task)["equal"], task[1]
            checked += 1
    return checked


def test_criterion_02_theorem_c_equivalence():
    t0 = time.time()
    checked = _check_suite("thm-c", (1, 2, 3, 4), 6)
    assert checked >= 2 * (27 * 27)
    _stamp(2, "theorem C equivalence, %d instances" % checked, t0)


def test_criterion_03_theorem_b_spin_equivalence():
    t0 = time.time()
    checked = _check_suite("thm-b", (1, 2, 3), 5)
    # t := q collapse has nonnegative coefficients
    p = thm_b_rhs((2, 1), (1,), 2, 2).subs_t_q()
    assert all(c > 0 for c in p.c.values())
    _stamp(3, "theorem B spin equivalence, %d instances" % checked, t0)


def test_criterion_04_morris_recurrences():
    t0 = time.time()
    checked = _check_suite("morris-c", (1, 2, 3, 4), 6)
    checked += _check_suite("morris-b", (1, 2, 3), 5)
    _stamp(4, "Morris recurrences, %d instances" % checked, t0)


GOLDEN_R = [
    (VDOM, 7, (-1,), 1, -1, (1,)),
    (VDOM, 7, (2, 4, -2), 1, 4, (1,)),
    (VDOM, 7, (2, 3, 4, 5, 6, 7, 8), 1, 8, (1, 2, 3, 4, 5, 6, 7)),
    (VDOM, 7, (2, 3, 4, 5, 6), 1, -7, (1, 2, 3, 4, 5, 6, 7)),
    (VDOM, 7, (2, 4, 5), 3, 2, (3, 4, 5)),
    (VDOM, 7, (2, 4, -2), 3, 1, (3, 4, -1)),
    (VDOM, 7, (1, 3, -3), -4, 2, (1, -4, -2)),
    (VDOM, 7, (1, 3, -2), -4, 3, (1, -4, -2)),
    (VDOM, 7, (1, 3, -3), -3, 2, (1, -3, -2)),
    (VDOM, 7, (1, 2, 3), -3, 3, (1, 2, -3)),
    (VDOM, 7, (1, 3, 5), -3, 5, (1, 4, -4)),
    (BOX, 7, (2, 3, 4), 1, EMPTY, (1, 2, 3, 4)),
    (BOX, 7, (2, 3, 4, 5, 6, 7, 8), 1, 8, (1, 2, 3, 4, 5, 6, 7)),
    (BOX, 7, (2, -2), 1, -2, (1, 2)),
]


def all_columns(kind, cap, maxmag):
    letters = list(range(1, maxmag + 1)) + [-m for m in range(1, maxmag + 1)]
    lens = range(0, cap + 1) if kind == BOX else range(cap % 2, cap + 1, 2)
    out = []
    for k in lens:
        for combo in itertools.combinations(letters, k):
            w = sort_word(combo)
            if is_admissible(w):
                out.append(ColumnKR(kind, cap, w))
    return out


def test_criterion_05_r_matrix_suite():
    t0 = time.time()
    for kind, cap, uw, c, el, erw in GOLDEN_R:
        l, r, _ = r_matrix_col(ColumnKR(kind, cap, uw), c)
        assert (l, r.word) == (el, tuple(erw)), (uw, c)
    pairs = 0
    for kind in (BOX, VDOM):
        for a in (2, 3, 4, 5, 6):
            boxes = ([EMPTY] if kind == BOX else []) + [
                x for m in range(1, 6) for x in (m, -m)
            ]
            table = {}
            for u in all_columns(kind, a, 5):
                for c in boxes:
                    l, r, _ = r_matrix_col(u, c)
                    key = (l, r.word)
                    assert key not in table, (u.word, c)
                    table[key] = (u, c)
                    s1 = split_col(
                        (u, ColumnKR(kind, 1, () if c is EMPTY else (c,)))
                    )
                    s2 = split_col(
                        (ColumnKR(kind, 1, () if l is EMPTY else (l,)), r)
                    )
                    assert s1 == s2, (u.word, c)
                    pairs += 1
    _stamp(5, "R-matrix golden and splitting invariance, %d pairs" % pairs, t0)


def test_criterion_06_splitting_closed_forms():
    t0 = time.time()
    c = lambda kind, cap, word: ColumnKR(kind, cap, tuple(word))
    assert split_col((c(VDOM, 4, (4, -4)), c(VDOM, 3, (1, 2, 3)))) == (
        -1, 1, 3, 2, 1, -1, 1,
    )
    assert split_col((c(VDOM, 4, ()), c(VDOM, 3, (1, 2, 3)))) == (
        -1, 1, -4, 4, 3, 2, 1,
    )
    assert split_col(
        (c(VDOM, 4, (1, 2, -4, -3)), c(VDOM, 4, (1, 2)), c(VDOM, 4, (1, 2, 3, 4)))
    ) == (2, 1, -3, -4, 2, 1, -1, 1, 4, 3, 2, 1)
    pool = []
    for kind in (BOX, VDOM):
        for a in (2, 3, 4, 5, 6):
            for b in (2, 3, 4):
                for nlen in range(0, min(b, 4) + 1):
                    if kind == VDOM and (b - nlen) % 2:
                        continue
                    up = ColumnKR(kind, b, tuple(range(1, nlen + 1)))
                    for u in all_columns(kind, a, 6):
                        if is_hw((u, up)):
                            pool.append((u, up))
    random.seed(20)
    sample = random.sample(pool, 200)
    for u, up in sample:
        assert split_image_hw(u, up) == split_col((u, up)), (u, up)
    _stamp(6, "splitting closed forms, 200 random highest weight pairs", t0)


def _hw_chains(kind, mu):
    osc = SSOT if kind == VDOM else GSSOT
    step = 2 if kind == VDOM else 1
    for m in range(size(mu) % step if step == 2 else 0, size(mu) + 1, step):
        for lam in partitions(m, max_len=len(mu)):
            for chain in enumerate_chains(osc, lam, mu):
                yield lam, phi_c(chain, osc, mu)


def test_criterion_07_energy_laws():
    t0 = time.time()
    weights = [mu for mu in partitions_upto(8, max_len=3) if mu]
    random.seed(21)
    for mu in random.sample(weights, 10):
        for lam, t in _hw_chains(VDOM, mu):
            assert energy_col(t) == energy_col(iota_col(t)), (mu, lam)
    # widening the rightmost staircase factor under the stated hypothesis
    for kind in (VDOM, BOX):
        for mu, m in (((1, 3, 3), 2), ((2, 3, 4), 1), ((1, 4), 2), ((0, 2, 2), 2)):
            for lam, t in _hw_chains(kind, mu):
                last = t[-1]
                k = len(last.word)
                if last.word != tuple(range(1, k + 1)):
                    continue
                widened = t[:-1] + (
                    ColumnKR(kind, last.cap + m, tuple(range(1, k + m + 1))),
                )
                assert energy_col(t) == energy_col(widened), (kind, mu, lam)
    # increments: r + m for vertical dominoes, q^r t^m for single boxes
    inc_checked = 0
    for kind in (VDOM, BOX):
        for mu in ((3, 3), (4, 4), (3, 3, 3)):
            n = len(mu)
            for lam, t in _hw_chains(kind, mu):
                if len(norm(lam)) != n:
                    continue
                ln = norm(lam)[-1]
                heads = range(0, ln)
                for r in heads:
                    mtop = (ln - r - 1) // 2 if kind == VDOM else ln - r - 1
                    for m in range(0, mtop + 1):
                        full_len = r + (2 * m if kind == VDOM else m)
                        if full_len == 0 or full_len >= ln:
                            continue
                        letters = [
                            x
                            for mm in range(ln + 1, ln + r + 2)
                            for x in (mm, -mm)
                        ]
                        for combo in itertools.combinations(letters, r):
                            vw = sort_word(combo)
                            if not is_admissible(vw):
                                continue
                            v = ColumnKR(kind, full_len, vw)
                            fullt = (v,) + t
                            if not is_hw(fullt):
                                continue
                            if kind == VDOM:
                                assert energy_col(fullt) == energy_col(t) + r + m
                            else:
                                assert energy_col(fullt) == energy_col(t) + 2 * r + m
                                assert vac_qt_energy(fullt) == vac_qt_energy(
                                    t
                                ).shift((r, m))
                            inc_checked += 1
    assert inc_checked > 40
    _stamp(7, "energy laws, %d increment instances" % inc_checked, t0)


def all_gsot(n):
    out = []

    def rec(chain):
        if len(chain) == n + 1:
            out.append(tuple(chain))
            return
        cur = chain[-1]
        nxts = {cur}
        for i in range(len(cur) + 1):
            grown = list(cur) + [0]
            grown[i] += 1
            if all(a >= b for a, b in zip(grown, grown[1:])):
                nxts.add(norm(tuple(grown)))
        for i in range(len(cur)):
            shrunk = list(cur)
            shrunk[i] -= 1
            if shrunk[i] >= 0 and all(a >= b for a, b in zip(shrunk, shrunk[1:])):
                nxts.add(norm(tuple(shrunk)))
        for nxt in sorted(nxts):
            rec(chain + [nxt])

    rec([()])
    return out


def test_criterion_08_bijection_suites():
    t0 = time.time()
    # pair-cancelling round trip
    import krlab.oscillating as osc

    for inner in partitions_upto(5, max_len=3):
        for r in (1, 2, 3):
            for s in osc._strips_from(inner, r, SSOT, None):
                assert gamma_inv(gamma(s), strip_len(s)) == s
    # column and row index maps are injections onto highest weight elements
    # with the boundedness statistic matching the affine one
    for kind, osc_kind, factor in (
        (VDOM, SSOT, 2),
        (BOX, GSSOT, 1),
        (None, SSROT, 1),
    ):
        for mu in [(1, 1), (2, 1), (2, 2), (1, 1, 1), (3, 2), (2, 2, 1), (2, 2, 2)]:
            if size(mu) > 6:
                continue
            step = 2 if osc_kind in (SSOT, SSROT) else 1
            for m in range(size(mu) % step, size(mu) + 1, step):
                for lam in partitions(m, max_len=len(mu)):
                    chains = enumerate_chains(osc_kind, lam, mu)
                    imgs = set()
                    for ch in chains:
                        t = (
                            phi_c(ch, osc_kind, mu)
                            if osc_kind != SSROT
                            else phi_r(ch, osc_kind, mu)
                        )
                        assert is_hw(t), ch
                        imgs.add(tuple(f.word for f in t))
                        tr = phi_r(ch, osc_kind, mu)
                        c2 = chain_c2(ch, osc_kind, mu)
                        if osc_kind == SSOT:
                            assert eps0(tr) * 2 == c2, ch
                        else:
                            assert eps0(tr) == c2, ch
                    assert len(imgs) == len(chains), (lam, mu)
    # the oscillating correspondence: worked example and counts
    G = ((), (1,), (2,), (2, 1), (1, 1), (1, 1), (2, 1), (2,), (3,), (3, 1))
    T, I = phi_bc_stage1(G)
    assert (T, I) == (((3, 6, 8), (9,)), ((4, 2), (5, 5), (7, 1)))
    P, Q = phi_bc(G)
    assert P == ((1, 2, 4, 7), (3, 5, 8), (6,), (9,))
    for n in (1, 2, 3, 4, 5):
        chains = all_gsot(n)
        by_shape = {}
        for g in chains:
            by_shape.setdefault(norm(g[-1]), []).append(g)
        for lam, gs in by_shape.items():
            images = set()
            for g in gs:
                p, q = phi_bc(g)
                images.add((p, q_entries(q)))
            assert len(images) == len(gs)
            expect = 0
            for mu in partitions(n, max_len=n):
                syt = kostka_foulkes(mu, (1,) * n).subs_all_one()
                coef = sum(
                    lr_coef(mu, gamma_p, lam)
                    for gamma_p in partitions_upto(n - size(lam))
                    if size(gamma_p) + size(lam) == size(mu)
                )
                expect += syt * coef
            assert len(gs) == expect, (n, lam)
    # Burge worked example
    assert burge(((4, 2), (5, 5), (7, 3))) == ((2, 4, 7), (3, 5))
    assert burge(((4, 2), (5, 5), (7, 3))) == tab(bar(((4, 2), (5, 5), (7, 3))))
    # truncation law on 500 random tableaux
    rng = random.Random(22)
    for _ in range(500):
        t = ()
        for v in rng.sample(range(1, 40), rng.randint(1, 10)):
            t = row_insert(t, v)
        for k in range(0, 6):
            assert alpha(truncate(t, 2 * k + 1)) == truncate(alpha(t), k + 1)
            if k:
                assert beta(truncate(t, 2 * k)) == truncate(beta(t), k)
    # column criterion equals the boundedness statistic up to n = 6
    for n in (4, 5, 6):
        for g in all_gsot(n):
            strips = []
            for a, b in zip(g, g[1:]):
                mid = a if size(a) >= size(b) else b
                strips.append((a, mid, b))
            c2 = chain_c2(strips, GSSOT, (1,) * n)
            _, q = phi_bc(g)
            lam = norm(g[-1])
            for two_g in range(max(c2 - 2, 0), c2 + 3):
                assert bound_from_q(q, lam, two_g) == (c2 <= two_g), (g, two_g)
    _stamp(8, "bijection suites", t0)


def test_criterion_09_level_restricted_and_xk():
    t0 = time.time()
    checked = _check_suite("level", (1, 2, 3), 4)
    # the spin weights lambda = mu = 0 at 2g = 1, below the grid's default
    # bound of 2g = 3
    for lie_type in ("B", "D"):
        for n in (2, 3):
            lhs, mid, rhs = level_formula(lie_type, n, (1,) * n, (1,) * n, 1)
            assert lhs == mid == rhs, (lie_type, n)
            checked += 1
    xk_checked = _check_suite("xk", (4,), 6)
    _stamp(9, "level restriction (%d) and X=K (%d)" % (checked, xk_checked), t0)


def test_criterion_10_q1_and_function_identities():
    t0 = time.time()
    q1_checked = 0
    for lie_type in ("B", "C", "D"):
        for n in (1, 2, 3):
            if lie_type == "D" and n < 2:
                continue
            for g in (1, 2, 3):
                for lam in partitions_upto(3, max_len=n):
                    if get(lam, 0) > g:
                        continue
                    for mu in partitions_upto(3, max_len=n):
                        if get(mu, 0) > g:
                            continue
                        for spin in (
                            (False, True) if lie_type in ("B", "D") else (False,)
                        ):
                            lam_d = dbl(lam, n, spin)
                            mu_d = dbl(mu, n, spin)
                            two_g = 2 * g + (1 if spin else 0)
                            cnt, mult = q1_count(lie_type, n, lam_d, mu_d, two_g)
                            assert cnt == mult, (lie_type, n, g, lam, mu, spin)
                            q1_checked += 1
    # the symmetric-function side: run the dedicated suites
    from test_identities import (
        test_cauchy_type_B,
        test_dual_pieri_type_B,
        test_dual_pieri_type_D,
        test_spin_cauchy_type_D,
    )
    from test_algebra_core import test_e_poly, test_weyl_D_factorization

    test_cauchy_type_B()
    test_dual_pieri_type_B()
    test_dual_pieri_type_D()
    test_spin_cauchy_type_D()
    test_weyl_D_factorization()
    test_e_poly()
    _stamp(10, "q=1 identities (%d) and function suites" % q1_checked, t0)
