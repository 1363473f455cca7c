"""Column crystals: R-matrix case rules, splitting, energies, iota."""

import copy
import itertools
import pickle
import random

import pytest

import krlab
from krlab import kr_column, kr_row, oscillating
from krlab.crystal import CTX_INF, apply_e, apply_f, ctx_C, hw, is_hw, word_weight
from krlab.kr_column import (
    BOX,
    HDOM,
    VDOM,
    ColumnKR,
    energy_chain,
    energy_col,
    iota_col,
    iota_factor,
    local_H,
    r_matrix_col,
    split_col,
    split_factor,
    split_image_hw,
    split_step_energy,
    tol_midd,
    vac,
    vac_qt_energy,
)
from krlab.identities import thm_b_rhs, thm_c_rhs
from krlab.kr_row import RowKR, enumerate_row, r_matrix_row
from krlab.letters import EMPTY, is_admissible, key, prec, sort_word
from krlab.partitions import partitions_upto
from krlab.polynomials import Poly


def C(kind, cap, word):
    return ColumnKR(kind, cap, tuple(word))


GOLDEN_CASES = [
    (VDOM, 7, (-1,), 1, -1, (1,), "1-1"),
    (VDOM, 7, (2, 4, -2), 1, 4, (1,), "1-2"),
    (VDOM, 7, (2, 3, 4, 5, 6, 7, 8), 1, 8, (1, 2, 3, 4, 5, 6, 7), "1-3"),
    (VDOM, 7, (2, 3, 4, 5, 6), 1, -7, (1, 2, 3, 4, 5, 6, 7), "1-4"),
    (VDOM, 7, (2, 4, 5), 3, 2, (3, 4, 5), "2-1"),
    (VDOM, 7, (2, 4, -2), 3, 1, (3, 4, -1), "2-2"),
    (VDOM, 7, (1, 3, -3), -4, 2, (1, -4, -2), "3-1"),
    (VDOM, 7, (1, 3, -2), -4, 3, (1, -4, -2), "3-2"),
    (VDOM, 7, (1, 3, -3), -3, 2, (1, -3, -2), "4-1"),
    (VDOM, 7, (1, 2, 3), -3, 3, (1, 2, -3), "4-2"),
    (VDOM, 7, (1, 3, 5), -3, 5, (1, 4, -4), "4-2"),
    (BOX, 7, (2, 3, 4), 1, EMPTY, (1, 2, 3, 4), "box-1-1"),
    (BOX, 7, (2, 3, 4, 5, 6, 7, 8), 1, 8, (1, 2, 3, 4, 5, 6, 7), "box-1-2"),
    (BOX, 7, (2, -2), 1, -2, (1, 2), "box-1-2"),
]


def test_r_matrix_golden():
    for kind, cap, uw, c, el, erw, etag in GOLDEN_CASES:
        l, r, tag = r_matrix_col(C(kind, cap, uw), c)
        assert (l, r.word, tag) == (el, tuple(erw), etag), (uw, c)


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


def one_boxes(kind, maxmag):
    letters = list(range(1, maxmag + 1)) + [-m for m in range(1, maxmag + 1)]
    return ([EMPTY] if kind == BOX else []) + letters


def test_r_matrix_weight_preserving_and_involutive():
    for kind in (BOX, VDOM):
        for a in (2, 3, 4, 5, 6):
            table = {}
            for u in all_columns(kind, a, 5):
                for c in one_boxes(kind, 5):
                    l, r, _ = r_matrix_col(u, c)
                    src = word_weight(u.word + (() if c is EMPTY else (c,)), 9)
                    dst = word_weight(
                        (() if l is EMPTY else (l,)) + r.word, 9
                    )
                    assert src == dst, (u, c)
                    key = (l, r.word)
                    assert key not in table, (u, c, table[key])
                    table[key] = (u.word, c)


def _col_image(u, box):
    """R on a (column, one-box factor) pair, as a pair of factors, and the
    case tag that fired."""
    letter, r, case = r_matrix_col(u, box.word[0] if box.word else EMPTY)
    return (C(u.kind, 1, () if letter is EMPTY else (letter,)), r), case


def test_r_matrix_commutes_with_crystal_operators():
    # R is a crystal isomorphism: on every pair of an admissible column of
    # capacity 2..n and a one-box factor, letters up to n, R(x(b)) = x(R(b))
    # for x = e_i and f_i, unbounded (i <= n + 1) and at type C rank n
    # (i <= n), for n = 3 and 4, and x(b) is defined exactly when x(R(b))
    # is.  The domain stops at capacity n: at capacity n + 1, case 1-4 adds
    # the letters n + 1 and -(n + 1), which lie outside the C_n alphabet.
    cases = set()
    checks = 0
    for kind in (BOX, VDOM):
        for n in (3, 4):
            for ctx, top in ((CTX_INF, n + 1), (ctx_C(n), n)):
                for a in range(2, n + 1):
                    for u in all_columns(kind, a, n):
                        for c in one_boxes(kind, n):
                            b = (u, C(kind, 1, () if c is EMPTY else (c,)))
                            img, case = _col_image(*b)
                            cases.add((kind, case))
                            for i in range(1, top + 1):
                                for op in (apply_e, apply_f):
                                    x, y = op(b, i, ctx), op(img, i, ctx)
                                    assert (x is None) == (y is None), (b, i, ctx)
                                    if x is not None:
                                        assert _col_image(*x)[0] == y, (b, i, ctx)
                                    checks += 1
    assert checks == 70456
    assert len(cases) == 18
    # past the domain: at capacity n + 1, 2..n (x) 1 is case 1-4 and its image
    # holds n + 1 and -(n + 1)
    for n in (3, 4):
        (box, col), case = _col_image(C(VDOM, n + 1, range(2, n + 1)), C(VDOM, 1, (1,)))
        assert (box.word, col.word, case) == ((-n - 1,), tuple(range(1, n + 2)), "1-4")


def test_splitting_invariance_under_R():
    for kind in (BOX, VDOM):
        for a in (2, 3, 4):
            for u in all_columns(kind, a, 4):
                for c in one_boxes(kind, 4):
                    l, r, _ = r_matrix_col(u, c)
                    s1 = split_col(
                        (u, ColumnKR(kind, 1, () if c is EMPTY else (c,)))
                    )
                    s2 = split_col(
                        (ColumnKR(kind, 1, () if l is EMPTY else (l,)), r)
                    )
                    assert s1 == s2, (u.word, c)


def test_split_worked_examples():
    assert split_col((C(VDOM, 4, (4, -4)), C(VDOM, 3, (1, 2, 3)))) == (
        -1, 1, 3, 2, 1, -1, 1,
    )
    assert split_col((C(VDOM, 4, ()), C(VDOM, 3, (1, 2, 3)))) == (
        -1, 1, -4, 4, 3, 2, 1,
    )
    assert split_col(
        (C(VDOM, 4, (1, 2, -4, -3)), C(VDOM, 4, (1, 2)), C(VDOM, 4, (1, 2, 3, 4)))
    ) == (2, 1, -3, -4, 2, 1, -1, 1, 4, 3, 2, 1)


def test_split_image_closed_form_examples():
    u, up = C(VDOM, 4, (4, -4)), C(VDOM, 3, (1, 2, 3))
    assert tol_midd(u, up) == (2, 2)
    assert split_image_hw(u, up) == split_col((u, up))
    u2 = C(VDOM, 4, ())
    assert split_image_hw(u2, up) == split_col((u2, up))
    u3 = C(VDOM, 4, (1, 4))
    assert split_image_hw(u3, up) == (1, -1, 1, 4, 3, 2, 1)


def hw_pairs(kind, a, b, maxn):
    """Highest weight pairs u (x) [1..n] of the closed-form shape."""
    out = []
    for n in range(0, min(b, maxn) + 1):
        if kind == VDOM and (b - n) % 2:
            continue
        up = ColumnKR(kind, b, tuple(range(1, n + 1)))
        for u in all_columns(kind, a, maxn + 2):
            if not is_hw((u, up)):
                continue
            try:
                split_image_hw(u, up)
            except ValueError:
                continue
            out.append((u, up))
    return out


def test_split_image_matches_procedure_randomized():
    random.seed(5)
    pool = []
    for kind in (BOX, VDOM):
        for a in (2, 3, 4, 5, 6):
            for b in (2, 3, 4):
                pool.extend(hw_pairs(kind, a, b, 4))
    sample = random.sample(pool, 200)
    for u, up in sample:
        assert split_image_hw(u, up) == split_col((u, up)), (u, up)


def test_split_image_rejects_non_hw():
    u = C(VDOM, 3, (2, 3, 4))
    up = C(VDOM, 3, (1, 2, 3))
    assert not is_hw((u, up))
    with pytest.raises(ValueError):
        split_image_hw(u, up)


def test_local_H_values():
    assert local_H(key(-1), key(1), VDOM) == 2
    assert local_H(key(2), key(2), VDOM) == 0
    assert local_H(key(EMPTY), key(EMPTY), BOX) == 1
    assert local_H(key(1), key(EMPTY), BOX) == 1
    assert local_H(key(EMPTY), key(1), BOX) == 0
    with pytest.raises(ValueError):
        local_H(key(EMPTY), key(1), VDOM)


def _local_H_on_letters(x, y, kind):
    """The local-energy rule on letters with prec, as it read before
    local_H took key ranks: the reference for the rank form."""
    if kind == VDOM:
        if x is EMPTY or y is EMPTY:
            raise ValueError("no empty factor in vertical-domino chains")
        if x == -1 and y == 1:
            return 2
        return 1 if prec(y, x) else 0
    if kind == BOX:
        if x is EMPTY and y is EMPTY:
            return 1
        if x is EMPTY:
            return 0
        if y is EMPTY:
            return 1
        return 1 if prec(y, x) else 0
    if kind == HDOM:
        if x is EMPTY or y is EMPTY:
            raise ValueError("no empty factor in horizontal-domino chains")
        if x == 0 or y == 0:
            raise ValueError("zero letters do not reach energy chains")
        return 1 if prec(y, x) else 0
    raise ValueError(kind)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return ("raises", str(e))


_LETTERS = (EMPTY, 0) + tuple(s * m for m in range(1, 5) for s in (1, -1))


def test_local_H_on_ranks_matches_letter_rule():
    for kind in (BOX, VDOM, HDOM, "other"):
        for x, y in itertools.product(_LETTERS, repeat=2):
            want = _outcome(_local_H_on_letters, x, y, kind)
            assert _outcome(local_H, key(x), key(y), kind) == want, (kind, x, y)


def test_energy_chain_matches_letter_rule():
    rng = random.Random(23)
    for kind, alphabet in ((BOX, _LETTERS), (VDOM, _LETTERS[1:]), (HDOM, _LETTERS[2:])):
        for _ in range(300):
            chain = tuple(rng.choice(alphabet) for _ in range(rng.randrange(0, 9)))
            want = sum(
                (2 if kind == BOX else 1) * i * _local_H_on_letters(x, y, kind)
                for i, (x, y) in enumerate(zip(chain, chain[1:]), 1)
            ) + (chain.count(EMPTY) if kind == BOX else 0)
            assert energy_chain(chain, kind) == want, (kind, chain)


def test_energy_chain_examples():
    assert energy_chain((1, 1, -1, 1), VDOM) == 6
    assert energy_chain((-1, 1, 1, 1), VDOM) == 2
    assert energy_chain((EMPTY, EMPTY, EMPTY), BOX) == 9
    assert energy_chain((1, 2, 3), VDOM) == 0


def test_energy_col_single_factor():
    # single factor energy is (cap - len) / kind size
    for kind, dd in ((BOX, 1), (VDOM, 2)):
        for cap in (2, 3, 4):
            for u in all_columns(kind, cap, 3):
                d = energy_col((u,))
                assert d == (cap - len(u.word)) // dd, (kind, u)


def test_energy_col_examples():
    mk = lambda ws: tuple(C(VDOM, 1, w) for w in ws)
    assert energy_col(mk([(1,), (1,), (-1,), (1,)])) == 6
    assert energy_col(mk([(1,), (-1,), (1,), (1,)])) == 4
    assert energy_col(mk([(-1,), (1,), (1,), (1,)])) == 2


def test_energy_constant_on_components():
    # energy is constant on classical components: every pair of columns of
    # capacities 1..3 with letters of magnitude <= 4, both kinds, under f_i
    # for i = 1..5
    from krlab.crystal import apply_f

    pairs = checks = 0
    for kind in (BOX, VDOM):
        cols = [u for cap in (1, 2, 3) for u in all_columns(kind, cap, 4)]
        for u, v in itertools.product(cols, repeat=2):
            d = energy_col((u, v))
            pairs += 1
            for i in range(1, 6):
                img = apply_f((u, v), i)
                if img is not None:
                    assert energy_col(img) == d, (u, v, i)
                    checks += 1
    assert (pairs, checks) == (25105, 45930)


def test_qt_energy_examples():
    mk = lambda ws: tuple(C(BOX, 1, w) for w in ws)
    assert vac_qt_energy(mk([(), (), ()])) == Poly.mono((3, 3))
    assert vac_qt_energy(mk([(-1,), (1,), ()])) == Poly.mono((3, 1))
    assert vac_qt_energy(mk([(), (-1,), (1,)])) == Poly.mono((2, 1))
    assert vac_qt_energy(mk([(-1,), (), (1,)])) == Poly.mono((1, 1))
    full = (C(BOX, 2, (1, 2)), C(BOX, 1, (1,)))
    assert vac_qt_energy(full) == Poly.one(2)


def test_qt_exponents_refuse_an_odd_gap():
    assert kr_column.qt_exponents(5, 1) == (2, 1)
    with pytest.raises(ValueError, match="odd energy-vacancy gap"):
        kr_column.qt_exponents(4, 1)


def test_padding_of_a_splitting_chain():
    assert kr_column._padding(BOX, 2) == (EMPTY, EMPTY)
    assert kr_column._padding(VDOM, 4) == (-1, 1, -1, 1)
    for boxes in (3, -2):
        with pytest.raises(ValueError, match="even number of boxes"):
            kr_column._padding(VDOM, boxes)


def test_vac_invariant_under_R():
    random.seed(9)
    pairs = [
        (u, c)
        for u in all_columns(BOX, 4, 4)
        for c in one_boxes(BOX, 4)
    ]
    for u, c in random.sample(pairs, 500):
        l, r, _ = r_matrix_col(u, c)
        v1 = u.vacancy() + (1 if c is EMPTY else 0)
        v2 = r.vacancy() + (1 if l is EMPTY else 0)
        assert v1 == v2


def test_iota():
    assert iota_factor(C(VDOM, 6, (2, 4, -4, -3))).word == (1, 3, 5, -5, -4)
    assert iota_factor(C(BOX, 3, ())).word == (1,)
    # energy preserved on highest weight tensors
    from krlab.oscillating import SSOT, enumerate_chains, phi_c, iota_chain

    for mu in [(2, 1), (2, 2), (3, 1), (2, 2, 1), (3, 2, 1), (2, 2, 2, 2)]:
        for lam_size in range(sum(mu) % 2, sum(mu) + 1, 2):
            from krlab.partitions import partitions

            for lam in partitions(lam_size, max_len=len(mu)):
                for chain in enumerate_chains(SSOT, lam, mu):
                    t = phi_c(chain, SSOT, mu)
                    assert energy_col(t) == energy_col(iota_col(t)), (mu, lam)


def test_column_word_stored_as_tuple():
    # a list word is stored as its tuple, so the factor is the one built
    # from the tuple, and steps through the same step tables
    u = ColumnKR(BOX, 2, [1, 2])
    assert u == C(BOX, 2, (1, 2)) and hash(u) == hash(C(BOX, 2, (1, 2)))
    want = energy_col((C(BOX, 2, (1, 2)), C(BOX, 1, (1,))))
    assert energy_col((u, ColumnKR(BOX, 1, [1]))) == want


def test_r_matrix_col_raises_on_every_call():
    # errors are not memoized: a bad pair raises each time it is asked for
    bad = C(BOX, 1, (1,))
    for _ in range(3):
        with pytest.raises(ValueError, match="capacity >= 2"):
            r_matrix_col(bad, 1)


def test_r_matrix_col_cache_matches_fresh():
    """Every step-table entry the Theorem C walk fills on C3, |lam|,|mu| <=
    4: the stored entry equals col_step worked out again on empty caches."""
    krlab.clear_caches()
    for lam in partitions_upto(4, max_len=3):
        for mu in partitions_upto(4, max_len=3):
            g = max(lam[0] if lam else 0, 1)
            for gg in (g, g + 1):
                thm_c_rhs(lam, mu, 3, gg)
    warm = {
        ((u.kind, u.cap, u.word), c): entry
        for u in list(kr_column._factors.values())
        if type(u) is ColumnKR
        for c, entry in u.steps.items()
    }
    assert len(warm) > 50
    krlab.clear_caches()
    for (fields, c), entry in warm.items():
        assert kr_column.col_step(ColumnKR(*fields), c) == entry, (fields, c)
    assert kr_column.step_entries() == len(warm)


def test_carried_energy_matches_split_chain(monkeypatch):
    """Every (chain, factor) step the Theorem C (vertical domino) and B
    (single box) walks take on C3 / B3, |lam|,|mu| <= 4, at g and g + 1:
    the energy carried by step tables equals energy_chain of the split
    chain, and so does the energy handed in for the chain itself."""
    krlab.clear_caches()
    seen = {}
    # (kind, each split chain the walks build) -> a tensor that splits to it
    tensors = {(kind, ()): () for kind in (BOX, VDOM)}

    def recording(chain, energy, u, build=True, fill=kr_column.col_step):
        out = split_step_energy(chain, energy, u, build, fill)
        seen[chain, energy, u, build] = out
        if out[0] is not None:
            tensors[u.kind, out[0]] = (u,) + tensors[u.kind, chain]
        return out

    monkeypatch.setattr(oscillating, "split_step_energy", recording)
    for lam in partitions_upto(4, max_len=3):
        for mu in partitions_upto(4, max_len=3):
            g = max(lam[0] if lam else 0, 1)
            for gg in (g, g + 1):
                thm_c_rhs(lam, mu, 3, gg)
                thm_b_rhs(lam, mu, 3, gg)
    kinds = set()
    for (chain, energy, u, build), (split, carried) in seen.items():
        want = split_col((u,) + tensors[u.kind, chain])
        assert energy == energy_chain(chain, u.kind), (chain, u)
        assert carried == energy_chain(want, u.kind), (chain, u)
        assert split == (None if u.cap > 0 and not build else want), (chain, u, build)
        kinds.add((u.kind, u.cap > 1, build))
    assert len(seen) > 900
    assert kinds == {(kind, long, build) for kind in (BOX, VDOM) for long in (False, True) for build in (False, True)}


def _letter(box):
    return box.word[0] if box.word else EMPTY


def test_step_table_entry():
    # a step entry R(u (x) c) = c' (x) u' stores (c', u', h), h the energy
    # the step adds: energy_chain((c',) + u'.splitting) less that of the
    # letter c and of the splitting of u'; columns through col_step, the
    # rows of B^{1,2} and B^{1,3} through row_step
    krlab.clear_caches()
    for cap in (2, 3):
        columns = [
            (u, c, r_matrix_col(u, c)[:2], kr_column.col_step)
            for kind in (BOX, VDOM)
            for u in all_columns(kind, cap, 3)
            for c in one_boxes(kind, 3)
        ]
        rows = [
            (u, _letter(c), (_letter(c2), u2), lambda u, c: kr_row.row_step(u, c, 3))
            for kind in (BOX, HDOM, VDOM)
            for u in enumerate_row(kind, cap, 3)
            for c in enumerate_row(kind, 1, 3)
            for c2, u2 in (r_matrix_row(u, c),)
        ]
        assert len(rows) > 100
        for u, c, (c2, u2), step in columns + rows:
            assert u.split_energy == energy_chain(u.splitting, u.kind)
            assert type(u) is RowKR or u.splitting == split_factor(u)
            h = energy_chain((c2,) + u2.splitting, u.kind) - energy_chain((c,), u.kind) - u2.split_energy
            assert step(u, c) == (c2, u2, h)
            assert u.steps[c] == (c2, u2, h)
    krlab.clear_caches()


# ---------------------------------------------------------------------------
# interned factors


def test_equal_fields_give_one_factor():
    assert ColumnKR(BOX, 3, [1, 2]) is ColumnKR(BOX, 3, (1, 2))
    assert RowKR(HDOM, 3, [1, 1, -2]) is RowKR(HDOM, 3, (1, 1, -2))
    assert C(VDOM, 4, (2, -2)).with_letters((-2, 2)) is C(VDOM, 4, (2, -2))
    assert repr(ColumnKR(BOX, 2, [1, 2])) == "ColumnKR(kind='box', cap=2, word=(1, 2))"
    assert repr(RowKR(BOX, 2, (0,))) == "RowKR(kind='box', cap=2, word=(0,))"


def test_factors_equal_across_clear_caches():
    old = (ColumnKR(VDOM, 3, (2,)), RowKR(BOX, 2, (1, -1)))
    krlab.clear_caches()
    assert len(kr_column._factors) == 0
    new = (ColumnKR(VDOM, 3, (2,)), RowKR(BOX, 2, (1, -1)))
    for u, v in zip(old, new):
        assert u is not v and u == v and hash(u) == hash(v)
        assert {u: 1}[v] == 1
        assert u != type(u)(u.kind, u.cap + 2, u.word)


def test_factors_survive_pickle_and_copy():
    for u in (ColumnKR(BOX, 3, (1, -2)), RowKR(VDOM, 2, (0, -1)), RowKR(BOX, 0, ())):
        for v in (pickle.loads(pickle.dumps(u)), copy.copy(u), copy.deepcopy(u)):
            assert v == u and hash(v) == hash(u) and type(v) is type(u)
        krlab.clear_caches()
        v = pickle.loads(pickle.dumps(u))
        assert v == u and v is type(u)(u.kind, u.cap, u.word)


def test_factor_fields_are_read_only():
    u = ColumnKR(BOX, 2, (1,))
    for name, value in (("kind", VDOM), ("cap", 3), ("word", (2,)), ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(u, name, value)
    with pytest.raises(AttributeError):
        del u.word
    assert (u.kind, u.cap, u.word) == (BOX, 2, (1,))


BAD_FACTORS = [
    (ColumnKR, "hdom", 2, (1,), "no column rules for kind 'hdom'"),
    (ColumnKR, BOX, 3, (0,), "column words have no zero letter"),
    (ColumnKR, VDOM, 4, (1, -1), "inadmissible column word (1, -1)"),
    (ColumnKR, BOX, 1, [1, 2], "word longer than capacity"),
    (ColumnKR, VDOM, 3, (1, 2), "vertical-domino column needs cap - len even"),
    (ColumnKR, BOX, 3, (2, 1), "column word 2,1 is not strictly increasing"),
    (ColumnKR, BOX, 3, (1, 1), "column word 1,1 is not strictly increasing"),
    (RowKR, "col", 1, (1,), "unknown row kind 'col'"),
    (RowKR, BOX, 1, (1, 1), "single-box row needs 0 <= len <= cap"),
    (RowKR, HDOM, 3, (1, 1), "horizontal-domino row needs len = cap mod 2"),
    (RowKR, VDOM, 3, (1, 1), "vertical-domino row needs len = cap"),
    (RowKR, BOX, 2, (0, 0), "at most one zero letter"),
    (RowKR, HDOM, 1, (0,), "the horizontal-domino alphabet has no zero letter"),
    (RowKR, BOX, 2, [-2, 1], "row word -2,1 is not weakly increasing"),
]


@pytest.mark.parametrize("cls, kind, cap, word, message", BAD_FACTORS)
def test_bad_factor_raises_and_is_not_stored(cls, kind, cap, word, message):
    before = dict(kr_column._factors)
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            cls(kind, cap, word)
        assert str(info.value) == message
    assert kr_column._factors == before


def test_column_never_equals_row():
    for kind, cap, word in ((BOX, 2, (1, 2)), (VDOM, 1, (1,)), (BOX, 0, ())):
        u, v = ColumnKR(kind, cap, word), RowKR(kind, cap, word)
        assert u != v and v != u and not u == v
        assert len({u, v}) == 2
