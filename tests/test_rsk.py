"""Insertion algorithms, two-line arrays, the oscillating correspondence,
and the word rewriting family."""

import hashlib
import itertools
import random

import pytest

from krlab.charge import reading_word
from krlab.kr_row import RowKR, eps0
from krlab.kr_column import VDOM
from krlab.oscillating import SSROT, enumerate_chains, phi_r
from krlab.partitions import norm, partitions, size
from krlab.rsk import (
    alpha,
    bar,
    beta,
    bound_from_q,
    burge,
    check_tl,
    column_delete,
    column_insert,
    column_insert_word,
    column_reading_word,
    hat,
    inverse_burge,
    is_distinct_tableau,
    lseq,
    phi_bc,
    phi_bc_stage1,
    plactic_neighbors,
    plactic_rewrite,
    q_entries,
    row_delete,
    row_insert,
    row_insert_word,
    second,
    tab,
    tab_shape,
    theta_1n,
    truncate,
)


def random_tableau(rng, n, top=40):
    vals = rng.sample(range(1, top), n)
    t = ()
    for v in vals:
        t = row_insert(t, v)
    return t


def test_row_column_insert_agree():
    w = (3, 5, 2, 4, 7)
    assert row_insert_word((), w) == column_insert_word(w, ())
    rng = random.Random(0)
    for _ in range(100):
        w = tuple(rng.sample(range(1, 30), rng.randint(1, 9)))
        assert row_insert_word((), w) == column_insert_word(w, ())


def test_insertion_deletion_inverse():
    rng = random.Random(1)
    for _ in range(100):
        t = random_tableau(rng, rng.randint(2, 9))
        x = max(max(r) for r in t) + rng.randint(1, 4)
        t2 = row_insert(t, x)
        cell = _new_corner(t, t2)
        t3, y = row_delete(t2, cell)
        assert (t3, y) == (t, x)
        t2c = column_insert(x, t)
        cellc = _new_corner(t, t2c)
        t3c, yc = column_delete(t2c, cellc)
        assert (t3c, yc) == (t, x)


def _new_corner(old, new):
    for r in range(len(new)):
        for c in range(len(new[r])):
            if r >= len(old) or c >= len(old[r]):
                return (r, c)
    raise AssertionError


def test_non_corner_deletion_raises():
    t = ((1, 3), (2,))
    with pytest.raises(ValueError):
        row_delete(t, (0, 0))
    # column deletion reaches the same check through the transpose
    with pytest.raises(ValueError):
        column_delete(t, (0, 0))
    t = ((1, 3, 4), (2,))
    with pytest.raises(ValueError):
        column_delete(t, (0, 1))
    assert column_delete(t, (0, 2)) == (((1, 4), (3,)), 2)


def test_row_insert_five_row_display():
    # the printed insertion chain 652 then 74 into (1 3 8 / 9)
    t = ((1, 3, 8), (9,))
    t = row_insert_word(t, (6, 5, 2))
    assert t == ((1, 2, 5), (3,), (6,), (8,), (9,))
    t = row_insert_word(t, (7, 4))
    assert t == ((1, 2, 4, 7), (3, 5), (6,), (8,), (9,))


def test_greene_first_row():
    rng = random.Random(2)
    for _ in range(200):
        w = tuple(rng.sample(range(1, 20), rng.randint(1, 8)))
        t = row_insert_word((), w)
        best = 0
        for k in range(1, len(w) + 1):
            for sub in itertools.combinations(w, k):
                if all(a < b for a, b in zip(sub, sub[1:])):
                    best = max(best, k)
        assert len(t[0]) == best


def test_two_line_arrays():
    I = ((4, 2), (5, 5), (7, 6))
    assert check_tl(I)
    assert bar(I) == ((2, 4), (4, 2), (5, 5), (6, 7), (7, 6))
    assert hat(I) == ((4, 2), (7, 6))
    assert tab(bar(I)) == ((2, 4), (5, 7), (6,))
    assert hat(((3, 3),)) == ()


def test_burge_examples():
    I = ((4, 2), (5, 5), (7, 3))
    assert burge(I) == ((2, 4, 7), (3, 5))
    assert burge(I) == tab(bar(I))
    assert burge(((5, 5),)) == ((5,),)


def test_burge_exhaustive_and_inverse():
    values = range(1, 9)
    cnt = 0
    for r in (1, 2, 3):
        for tops in itertools.combinations(values, r):
            for bots in itertools.product(values, repeat=r):
                I = tuple(zip(tops, bots))
                if not check_tl(I):
                    continue
                t = burge(I)
                assert t == tab(bar(I)), I
                assert inverse_burge(t) == I, I
                cnt += 1
    assert cnt > 500


def test_alpha_beta_worked_example():
    T = ((1, 2, 7, 9, 10, 13), (3, 4, 11, 14, 15), (5, 8, 12), (6,))
    assert alpha(T) == ((1, 2, 7), (3, 4, 12), (5, 8), (6,))
    assert beta(T) == ((1, 5, 7), (3, 8), (6,))


def test_alpha_shape_and_equality():
    rng = random.Random(3)
    for _ in range(100):
        t = random_tableau(rng, rng.randint(1, 9))
        sh = tab_shape(t)
        asha = tab_shape(alpha(t))
        bshb = tab_shape(beta(t))
        assert asha == tuple((x + 1) // 2 for x in sh)
        assert bshb == norm(tuple(x // 2 for x in sh))
        I = inverse_burge(t)
        if all(j != i for j, i in I):
            assert alpha(t) == beta(t)
    # odd single row: first row length k + 1
    row = ((1, 3, 5, 7, 9),)
    assert tab_shape(alpha(row))[0] == 3


def test_truncation_law():
    rng = random.Random(4)
    for _ in range(500):
        t = random_tableau(rng, rng.randint(1, 10))
        width = tab_shape(t)[0]
        assert truncate(t, width + 2) == t
        for k in range(0, 6):
            assert alpha(truncate(t, 2 * k + 1)) == truncate(alpha(t), k + 1)
            if k:
                assert beta(truncate(t, 2 * k)) == truncate(beta(t), k)


def test_second_lseq():
    w = (8, 3, 2, 1, 5, 4, 7, 6)
    assert second(w) == (8, 3, 2, 5, 7)
    assert lseq(w) == (3, 5, 6)
    assert second((3, 8, 5, 2, 1, 6, 4, 7)) == (8, 3, 2, 5)
    assert second((1, 2, 3)) == ()


def _second_reference(word):
    """second by full row insertion: the least first-row entry above each
    letter, watched on the whole tableau."""
    out = []
    t = ()
    for x in word:
        if t and any(v > x for v in t[0]):
            out.append(min(v for v in t[0] if v > x))
        t = row_insert(t, x)
    return tuple(out)


def _lseq_reference(word):
    """lseq with the first-row columns read off full row insertion."""
    t = ()
    cols = []
    for x in word:
        row = t[0] if t else ()
        cols.append(next((i for i, v in enumerate(row) if v > x), len(row)) + 1)
        t = row_insert(t, x)
    ell = cols[-1]
    idx = [None] * (ell + 1)
    idx[ell] = len(word) - 1
    for k in range(ell, 1, -1):
        idx[k - 1] = next(i for i in range(idx[k]) if word[i] < word[idx[k]] and cols[i] == k - 1)
    return tuple(word[idx[k]] for k in range(1, ell + 1))


def test_second_lseq_match_reference():
    for n in range(1, 8):
        for w in itertools.permutations(range(1, n + 1)):
            assert second(w) == _second_reference(w), w
            assert lseq(w) == _lseq_reference(w), w


def test_phi_bc_worked_example():
    # the nine-step chain with one stall and two shrinks; the shrink at step
    # seven row-deletes the corner and pops the displaced first-row entry
    # (the bijectivity and criterion suites below force this reading)
    G = ((), (1,), (2,), (2, 1), (1, 1), (1, 1), (2, 1), (2,), (3,), (3, 1))
    T, I = phi_bc_stage1(G)
    assert T == ((3, 6, 8), (9,))
    assert I == ((4, 2), (5, 5), (7, 1))
    assert tab(bar(I)) == ((1, 2, 4, 7), (5,))
    P, Q = phi_bc(G)
    assert P == ((1, 2, 4, 7), (3, 5, 8), (6,), (9,))
    assert q_entries(Q) == (
        (0, 3, 4),
        (1, 1, 2),
        (1, 2, 3),
        (2, 0, 1),
        (3, 0, 1),
    )
    # c(G) = 3: bounded exactly when 2g >= 6
    for two_g in range(4, 9):
        assert bound_from_q(Q, (3, 1), two_g) == (two_g >= 6)


def test_phi_bc_degenerate_constant_chain():
    G = ((), (), (), ())
    T, I = phi_bc_stage1(G)
    assert T == ()
    assert I == ((1, 1), (2, 2), (3, 3))
    P, Q = phi_bc(G)
    assert tab_shape(P) == (2, 1) or P  # inserted diagonal pairs
    assert all(v % 2 == 1 for (_, _), v in Q.items())


def all_gsot(n):
    """One-cell chains of length n from the empty shape."""
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
            if shrunk[i] >= 0 and all(
                a >= b for a, b in zip(shrunk, shrunk[1:])
            ):
                nxts.add(norm(tuple(shrunk)))
        for nxt in sorted(nxts):
            rec(chain + [nxt])

    rec([()])
    return out


def test_phi_bc_bijectivity_counts():
    from krlab.characters import lr_coef
    from krlab.partitions import conjugate, partitions_upto

    for n in (3, 4, 5):
        chains = all_gsot(n)
        by_shape = {}
        for G in chains:
            by_shape.setdefault(norm(G[-1]), []).append(G)
        for lam, gs in by_shape.items():
            images = set()
            total = 0
            for G in gs:
                P, Q = phi_bc(G)
                assert is_distinct_tableau(P)
                images.add((P, q_entries(Q)))
            assert len(images) == len(gs)
            # count SYT(mu) x transposed LR fillings over all gamma
            expect = 0
            for mu in partitions(n, max_len=n):
                syt = len(_syt(mu))
                if not syt:
                    continue
                coef = 0
                for gamma in partitions_upto(n - size(lam)):
                    if size(gamma) + size(lam) != size(mu):
                        continue
                    coef += lr_coef(mu, gamma, lam)
                expect += syt * coef
            assert len(gs) == expect, (n, lam)


def _syt(shape):
    from krlab.charge import ssyt

    return ssyt(shape, (1,) * size(shape))


def test_bound_criterion_equals_c_statistic():
    from krlab.oscillating import GSSOT, chain_c2

    for n in (3, 4, 5, 6):
        for G in all_gsot(n):
            strips = []
            for a, b in zip(G, G[1:]):
                mid = a if size(a) >= size(b) else b
                strips.append((a, mid, b))
            c2 = chain_c2(strips, GSSOT, (1,) * n)
            P, Q = phi_bc(G)
            lam = norm(G[-1])
            for two_g in range(max(c2 - 2, 0), c2 + 3):
                assert bound_from_q(Q, lam, two_g) == (c2 <= two_g), (G, two_g)


def test_gsot_aux_first_row_gap():
    # inserting T versus alpha(T): first rows differ by at most k
    rng = random.Random(6)
    for _ in range(200):
        t = random_tableau(rng, rng.randint(1, 9), top=25)
        p = random_tableau(rng, rng.randint(1, 6), top=60)
        w1 = column_reading_word(t)
        r1 = len(row_insert_word(p, w1)[0])
        wa = column_reading_word(alpha(t))
        ra = len(row_insert_word(p, wa)[0])
        k = tab_shape(t)[0]
        if k % 2:
            assert r1 - ra <= (k - 1) // 2
        else:
            wb = column_reading_word(beta(t))
            rb = len(row_insert_word(p, wb)[0])
            assert r1 - rb <= k // 2


def test_theta_and_plactic():
    w = (-1, -2, 2, 1)
    tw = theta_1n(w, 4)
    assert tw == (4, 3, -3, -4)
    nb = plactic_neighbors(tw, 4)
    assert (4, 4, -4, -4) in nb
    rewritten = plactic_rewrite(tw, "R4", 1, 4)
    assert rewritten == (4, 4, -4, -4)
    with pytest.raises(ValueError):
        plactic_rewrite((1, 2, 3), "R4", 0, 4)


def test_plactic_neighbors_pinned():
    # every word of length 3 and 4 over the n = 2 alphabet and of length 3
    # over n = 3, with its whole neighbour set; digest of the output of the
    # former separate matchers of plactic_rewrite and plactic_neighbors
    lines = []
    total = 0
    for n, lengths in ((2, (3, 4)), (3, (3,))):
        letters = list(range(1, n + 1)) + [-i for i in range(n, 0, -1)]
        for ln in lengths:
            for w in itertools.product(letters, repeat=ln):
                nb = sorted(plactic_neighbors(w, n))
                total += len(nb)
                lines.append("%d %r %r" % (n, w, nb))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert total == 392
    assert digest == "5653b491b4e360cc4d199d816c750688a9f388f9bfadb56ce061617e8d0e6c86"


def test_plactic_preserves_eps0():
    # the affine statistic is constant on theta-images of highest weight
    # elements lying in one rewrite class; single rewrites may leave the
    # highest weight family, so whole classes are walked
    from krlab.crystal import is_hw

    for ln in (3, 4):
        n = ln
        for G in all_gsot(ln):
            strips = []
            ok = True
            for a, b in zip(G, G[1:]):
                if a == b:
                    ok = False
                    break
                # reverse strips sit below both endpoint shapes
                mid = a if size(a) < size(b) else b
                strips.append((a, mid, b))
            if not ok:
                continue
            chain = tuple(strips)
            t = phi_r(chain, SSROT, (1,) * ln)
            word = tuple(f.word[0] for f in t)
            e0 = eps0(t)
            img = theta_1n(word, n)
            seen = {img}
            frontier = [img]
            while frontier:
                nxt = []
                for w in frontier:
                    for nbr in plactic_neighbors(w, n):
                        if nbr in seen:
                            continue
                        seen.add(nbr)
                        nxt.append(nbr)
                frontier = nxt
            for w in seen:
                back = theta_1n(w, n)
                t2 = tuple(RowKR(VDOM, 1, (x,)) for x in back)
                if is_hw(t2):
                    assert eps0(t2) == e0, (word, w)


def test_plactic_worked_example():
    # theta of bar1 (x) bar2 (x) 2 (x) 1 rewrites to n n bar-n bar-n, and
    # both preimages carry the same statistic
    n = 4
    w = (-1, -2, 2, 1)
    tw = theta_1n(w, n)
    other = (4, 4, -4, -4)
    assert other in plactic_neighbors(tw, n)
    t1 = tuple(RowKR(VDOM, 1, (x,)) for x in w)
    t2 = tuple(RowKR(VDOM, 1, (x,)) for x in theta_1n(other, n))
    assert eps0(t1) == eps0(t2) == 2
