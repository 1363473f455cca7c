"""Row crystals: affine statistics, raising/lowering, R-matrix properties,
splitting, energy, and the X = K identity."""

import itertools
import random

import pytest

import krlab
from krlab import kr_row
from krlab.crystal import apply_e, apply_f, is_hw, word_weight
from krlab.identities import run_task, suite_tasks
from krlab.kr_column import BOX, HDOM, VDOM, ColumnKR, split_col
from krlab.kr_row import (
    RMatrixTable,
    RowKR,
    e0_row,
    energy_row,
    enumerate_row,
    eps0,
    eps0_row,
    f0_row,
    phi0,
    phi0_row,
    r_matrix_row,
    row_ctx,
    row_rank,
    split_row,
    tensor_e0,
    tensor_f0,
)
from krlab.letters import sort_word
from krlab.oscillating import hw_row_elements
from krlab.partitions import conjugate, nn, norm, partitions, partitions_upto, size
from krlab.polynomials import Poly


def test_word_constraints():
    with pytest.raises(ValueError):
        RowKR(HDOM, 3, (1, 1))  # parity violation
    with pytest.raises(ValueError):
        RowKR(VDOM, 3, (1, 1))  # length must equal capacity
    with pytest.raises(ValueError):
        RowKR(BOX, 2, (1, 1, 2))
    # each factor checks its own word order, last
    with pytest.raises(ValueError, match="row word -2,1 is not weakly increasing"):
        RowKR(BOX, 2, (-2, 1))
    for word in ((1, 1), (2, 1)):
        with pytest.raises(ValueError, match="column word %d,%d is not strictly increasing" % word):
            ColumnKR(BOX, 3, word)
    with pytest.raises(ValueError, match="single-box row needs"):
        RowKR(BOX, 1, (2, 1))
    with pytest.raises(ValueError, match="longer than capacity"):
        ColumnKR(BOX, 1, (2, 1))


def test_zero_letter_only_in_odd_rank_alphabets():
    # the zero letter is the middle of the type B alphabet, which the
    # single-box and vertical-domino rows use; type C and columns have none
    assert RowKR(BOX, 2, (1, 0)).word == (1, 0)
    assert RowKR(VDOM, 2, (1, 0)).word == (1, 0)
    with pytest.raises(ValueError, match="no zero letter"):
        RowKR(HDOM, 1, (0,))
    with pytest.raises(ValueError, match="at most one zero"):
        RowKR(BOX, 2, (0, 0))
    for kind in (BOX, VDOM):
        with pytest.raises(ValueError, match="no zero letter"):
            ColumnKR(kind, 3, (0,) if kind == BOX else (0, 1, 2))


def test_eps0_closed_forms():
    # unpaired counts for hdom and box, plain counts for vdom
    assert eps0_row(RowKR(HDOM, 3, (1,))) == 2
    assert eps0_row(RowKR(HDOM, 3, (1, 1, -1))) == 1
    assert eps0_row(RowKR(BOX, 3, (1, 1))) == 5
    assert eps0_row(RowKR(BOX, 3, (1, -1))) == 1
    assert eps0_row(RowKR(VDOM, 2, (1, -1))) == 1
    assert eps0_row(RowKR(VDOM, 3, (1, 2, -1))) == 2
    # the worked tensor value
    assert eps0((RowKR(BOX, 3, (1, -1)), RowKR(BOX, 3, (1, 1)))) == 5
    assert eps0((RowKR(HDOM, 3, (1, 1, -1)), RowKR(HDOM, 3, (1,)))) == 2
    # full-length words of letters above one
    assert eps0_row(RowKR(HDOM, 2, (2, 3))) == 0
    assert eps0_row(RowKR(BOX, 2, (2, 3))) == 0


def test_affine_axioms_single_factor():
    for kind in (BOX, HDOM, VDOM):
        for s in (1, 2, 3):
            for b in enumerate_row(kind, s, 3):
                e, p = eps0_row(b), phi0_row(b)
                assert p >= 0
                cur = b
                for _ in range(e):
                    cur = e0_row(cur)
                    assert cur is not None
                assert e0_row(cur) is None
                cur = b
                for _ in range(p):
                    cur = f0_row(cur)
                    assert cur is not None
                assert f0_row(cur) is None
                if e0_row(b) is not None:
                    assert f0_row(e0_row(b)) == b
                    assert eps0_row(e0_row(b)) == e - 1
                if f0_row(b) is not None:
                    assert e0_row(f0_row(b)) == b


# The 0-arrows as branch rules per kind, as they were stated before lowering
# and phi_0 came from the duality and the horizontal domino from two boxes.
def _ref_counts(b):
    return tuple(sum(1 for x in b.word if x == v) for v in (1, -1, 2, -2))


def _ref_edit(w, drop=(), add=()):
    out = list(w)
    for v in drop:
        out.remove(v)
    return sort_word(out + list(add))


def _ref_zero_pairing(kind, wt):
    z1, z2 = wt
    if kind == HDOM:
        return -z1
    if kind == BOX:
        return -2 * z1
    return -z1 - z2


def _ref_phi0_row(b):
    x1, xb1, x2, xb2 = _ref_counts(b)
    return eps0_row(b) + _ref_zero_pairing(b.kind, (x1 - xb1, x2 - xb2))


def _ref_eps0_hdom(b):
    x1, xb1, _, _ = _ref_counts(b)
    return max(x1 - xb1, 0) + (b.cap - len(b.word)) // 2


def _ref_e0_hdom(b):
    x1, xb1, _, _ = _ref_counts(b)
    w, d = b.word, x1 - xb1
    if d >= 2:
        return RowKR(b.kind, b.cap, _ref_edit(w, drop=(1, 1)))
    if d == 1:
        return RowKR(b.kind, b.cap, _ref_edit(w, drop=(1,), add=(-1,)))
    if len(w) + 2 <= b.cap:
        return RowKR(b.kind, b.cap, _ref_edit(w, add=(-1, -1)))
    return None


def _ref_f0_row(b):
    x1, xb1, x2, xb2 = _ref_counts(b)
    w = b.word
    if b.kind == HDOM:
        d = x1 - xb1
        if d >= 0:
            if len(w) + 2 <= b.cap:
                return RowKR(b.kind, b.cap, _ref_edit(w, add=(1, 1)))
            return None
        if d == -1:
            return RowKR(b.kind, b.cap, _ref_edit(w, drop=(-1,), add=(1,)))
        return RowKR(b.kind, b.cap, _ref_edit(w, drop=(-1, -1)))
    if b.kind == BOX:
        if x1 - xb1 >= 0:
            if len(w) < b.cap:
                return RowKR(b.kind, b.cap, _ref_edit(w, add=(1,)))
            return None
        return RowKR(b.kind, b.cap, _ref_edit(w, drop=(-1,)))
    if x2 >= xb2:
        if xb1 > 0:
            return RowKR(b.kind, b.cap, _ref_edit(w, drop=(-1,), add=(2,)))
        return None
    return RowKR(b.kind, b.cap, _ref_edit(w, drop=(-2,), add=(1,)))


@pytest.mark.parametrize("kind", [BOX, HDOM, VDOM])
def test_zero_arrows_match_branch_rules(kind):
    # lowering and phi_0 through the duality, the horizontal domino as two
    # single-box steps: the same values as the per-kind rules on every row
    for n in range(2, 6):
        for s in range(1, 6):
            for b in enumerate_row(kind, s, n):
                assert f0_row(b) == _ref_f0_row(b), b
                assert phi0_row(b) == _ref_phi0_row(b), b
                if kind == HDOM:
                    assert e0_row(b) == _ref_e0_hdom(b), b
                    assert eps0_row(b) == _ref_eps0_hdom(b), b


def test_zero_weight_shift():
    # wt(e0 b) - wt(b): -2 eps1 (hdom), -eps1 (box), -eps1-eps2 (vdom)
    shifts = {HDOM: (-2, 0), BOX: (-1, 0), VDOM: (-1, -1)}
    for kind in (BOX, HDOM, VDOM):
        for s in (1, 2, 3):
            for b in enumerate_row(kind, s, 3):
                nb = e0_row(b)
                if nb is None:
                    continue
                w0 = word_weight(b.word, 3)
                w1 = word_weight(nb.word, 3)
                d = tuple(a - c for a, c in zip(w1, w0))
                assert d[:2] == shifts[kind] and d[2] == 0, (kind, b)


def test_affine_axioms_tensor():
    for kind in (BOX, HDOM, VDOM):
        rows = enumerate_row(kind, 2, 2)
        boxes = enumerate_row(kind, 1, 2)
        for u in rows:
            for c in boxes:
                t = (u, c)
                e = eps0(t)
                cur = t
                for _ in range(e):
                    cur = tensor_e0(cur)
                    assert cur is not None, t
                assert tensor_e0(cur) is None, t
                if tensor_e0(t) is not None:
                    assert tensor_f0(tensor_e0(t)) == t
                p = phi0(t)
                cur = t
                for _ in range(p):
                    cur = tensor_f0(cur)
                    assert cur is not None, t
                assert tensor_f0(cur) is None, t


def test_r_matrix_properties():
    for kind in (BOX, HDOM, VDOM):
        for s in (2, 3):
            n = 4
            table = RMatrixTable(kind, s, n)
            images = {}
            for u in enumerate_row(kind, s, n):
                for c in enumerate_row(kind, 1, n):
                    img = table.apply(u, c)
                    assert word_weight(u.word + c.word, n) == word_weight(
                        img[0].word + img[1].word, n
                    )
                    assert eps0((u, c)) == eps0(img)
                    assert phi0((u, c)) == phi0(img)
                    images[(u, c)] = img
            assert len(set(images.values())) == len(images)
            # round trip through the inverse table
            inv = {v: k for k, v in images.items()}
            for (u, c), (c2, u2) in images.items():
                assert inv[(c2, u2)] == (u, c)


def test_r_matrix_anchor():
    for kind in (BOX, HDOM, VDOM):
        for s in (2, 3):
            u = RowKR(kind, s, (1,) * s)
            c = RowKR(kind, 1, (1,))
            img = r_matrix_row(u, c)
            assert img == (c, u)


def test_r_matrix_bfs_agrees():
    for kind in (BOX, HDOM, VDOM):
        s, n = 2, 3
        bfs = RMatrixTable(kind, s, n).bfs_map()
        table = RMatrixTable(kind, s, n)
        for u in enumerate_row(kind, s, n):
            for c in enumerate_row(kind, 1, n):
                assert bfs[(u, c)] == table.apply(u, c), (u, c)


@pytest.mark.parametrize("kind", [BOX, HDOM, VDOM])
def test_r_matrix_table_matches_bfs_in_any_order(kind):
    # path filling stores images met on earlier queries; a fresh table
    # queried in shuffled order must still give the reference map, without
    # falling back to it
    for s in (2, 3, 4):
        for n in (3, 4):
            ref = RMatrixTable(kind, s, n).bfs_map()
            table = RMatrixTable(kind, s, n)
            table.bfs_map = lambda: pytest.fail("fell back to bfs_map")
            pairs = list(ref)
            random.Random(10 * s + n).shuffle(pairs)
            for u, c in pairs:
                assert table.apply(u, c) == ref[u, c], (u, c)
            assert table.map == ref


def test_target_index_matches_full_scan():
    # only highest weight rows are paired; the full scan pairs every row
    for kind in (BOX, HDOM, VDOM):
        for n in (2, 3, 4):
            ctx = row_ctx(kind, n)
            for s in (1, 2, 3, 4):
                full = {}
                for c in enumerate_row(kind, 1, n):
                    for u in enumerate_row(kind, s, n):
                        if is_hw((c, u), ctx):
                            key = (word_weight(c.word + u.word, n), eps0((c, u)))
                            full.setdefault(key, set()).add((c, u))
                index = RMatrixTable(kind, s, n)._target_index()
                assert {k: set(v) for k, v in index.items()} == full, (kind, s, n)
                assert all(len(v) == len(set(v)) for v in index.values())


def test_yang_baxter():
    # with R trivial on equal one-box factors the two routes coincide
    for kind in (BOX, HDOM, VDOM):
        s, n = 2, 3
        table = RMatrixTable(kind, s, n)
        rows = enumerate_row(kind, s, n)[:40]
        boxes = enumerate_row(kind, 1, n)
        for u in rows:
            for c in boxes[:6]:
                for d in boxes[:6]:
                    c1, u1 = table.apply(u, c)
                    d1, u2 = table.apply(u1, d)
                    # route through the left swap first is the same walk
                    assert table.apply(u, c) == (c1, u1)
                    assert table.apply(u1, d) == (d1, u2)


def test_n_stability():
    # a pair has one image at every rank at least row_rank of its letters,
    # which is what lets one held table per (kind, s) serve every query
    for kind in (BOX, HDOM, VDOM):
        for s in (2, 3, 4):
            low, high = RMatrixTable(kind, s, 4), RMatrixTable(kind, s, 5)
            for u in enumerate_row(kind, s, 2):
                for c in enumerate_row(kind, 1, 2):
                    assert low.apply(u, c) == high.apply(u, c), (kind, u, c)


def test_row_tables_shared_across_ranks():
    # one table per (kind, s): a query of higher rank replaces the held
    # table, and a query of lower rank uses it, in either order
    one = RowKR(BOX, 1, (1,))
    high = RowKR(BOX, 2, (1, 3))
    low = [RowKR(BOX, 2, w) for w in ((1, 1), (1, -1), (-1, -1))]
    for queries in ([high] + low, low + [high]):
        krlab.clear_caches()
        for u in queries:
            pair = (u, one)
            n = row_rank(u.word + one.word)
            assert r_matrix_row(*pair) == RMatrixTable(BOX, 2, n).bfs_map()[pair], u
        assert [(key, t.n) for key, t in kr_row._tables.items()] == [((BOX, 2), 5)]
    krlab.clear_caches()


def test_level_pass_builds_one_row_table_per_kind_and_capacity(monkeypatch):
    # a rank-3 level pass holds one table per (kind, s), s = 2, 3, 4, in
    # any task order; in the grid's own order it also builds each once
    built = []

    class Counted(RMatrixTable):
        def __init__(self, kind, s, n):
            built.append((kind, s, n))
            super().__init__(kind, s, n)

    monkeypatch.setattr(kr_row, "RMatrixTable", Counted)
    tasks = suite_tasks("level", 4, 3)
    orders = [tasks] + [random.Random(seed).sample(tasks, len(tasks)) for seed in (1, 2, 3)]
    for i, order in enumerate(orders):
        krlab.clear_caches()
        built.clear()
        assert all(run_task(task).equal for task in order)
        assert len(kr_row._tables) == 9, i
        if i == 0:
            assert len(built) == 9
    krlab.clear_caches()


def test_split_row_single_factors():
    assert split_row((RowKR(HDOM, 3, (1, 2, 3)),)) == (1, 2, 3)
    assert split_row((RowKR(BOX, 3, (2,)),))[0] == -1
    # emits one empty box at a = k + 1
    assert split_row((RowKR(BOX, 2, (2,)),))[0] is None
    for kind, dd in ((BOX, 1), (HDOM, 2)):
        for s in (2, 3, 4):
            for b in enumerate_row(kind, s, 2):
                assert energy_row((b,)) == (s - len(b.word)) // dd


def test_split_rejects_mixed_kinds():
    # rows and columns split through one routine, which checks kinds
    with pytest.raises(ValueError, match="mixed kinds"):
        split_row((RowKR(BOX, 2, (1,)), RowKR(HDOM, 2, (1, 1))))
    with pytest.raises(ValueError, match="mixed kinds"):
        split_col((ColumnKR(BOX, 2, (1,)), ColumnKR(VDOM, 2, (1, 2))))


def test_energy_row_minimal_on_ones():
    for kind in (BOX, HDOM, VDOM):
        for mu in [(2, 1), (2, 2), (3, 1)]:
            ones = tuple(RowKR(kind, m, (1,) * m) for m in reversed(mu))
            base = energy_row(ones)
            assert base == 0
            for lam, tensors in _all_hw(kind, mu):
                for t in tensors:
                    assert energy_row(t) >= 0
    # a list word is stored as a tuple, so the memoized energy still hashes it
    assert energy_row((RowKR(BOX, 2, [1, 2]),)) == energy_row((RowKR(BOX, 2, (1, 2)),)) == 0


def _all_hw(kind, mu):
    out = []
    smax = sum(mu)
    lo = smax % 2 if kind in (HDOM, VDOM) else 0
    step = 2 if kind in (HDOM, VDOM) else 1
    for m in range(lo, smax + 1, step):
        for lam in partitions(m, max_len=len(mu)):
            rows = [t for _, t, _ in hw_row_elements(kind, mu, lam)]
            out.append((lam, rows))
    return out


def test_hw_row_counts_match_chain_counts():
    from krlab.oscillating import GSSOT, SSOT, SSROT, enumerate_chains

    osc = {HDOM: SSOT, BOX: GSSOT, VDOM: SSROT}
    for kind in (BOX, HDOM, VDOM):
        for mu in [(1, 1), (2, 1), (2, 2)]:
            for lam, rows in _all_hw(kind, mu):
                assert len(rows) == len(
                    enumerate_chains(osc[kind], lam, mu)
                )
                for t in rows:
                    assert len(set(rows)) == len(rows)


def test_hw_single_element():
    rows = hw_row_elements(HDOM, (3,), (3,))
    assert len(rows) == 1
    chain, t, e0 = rows[0]
    assert t[0].word == (1, 1, 1)
    assert e0 == eps0(t) == 3


def test_xk_identity():
    from krlab.characters import lr_coef
    from krlab.charge import kostka_foulkes

    def member(kind, gamma):
        if kind == BOX:
            return True
        if kind == HDOM:
            return all(x % 2 == 0 for x in gamma)
        return all(x % 2 == 0 for x in conjugate(gamma))

    for kind in (BOX, HDOM, VDOM):
        dd = 1 if kind == BOX else 2
        for mu in [(1, 1), (2, 1), (1, 1, 1), (2, 2), (3, 2), (2, 2, 1)]:
            if sum(mu) > 6:
                continue
            for m in range(0, sum(mu) + 1):
                if kind in (HDOM, VDOM) and (sum(mu) - m) % 2:
                    continue
                for lam in partitions(m, max_len=len(mu)):
                    lhs = Poly.zero(1)
                    for chain, t, e0 in hw_row_elements(kind, mu, lam):
                        d = energy_row(t)
                        num = 2 * nn(mu) + (size(mu) - size(lam)) - dd * d
                        assert num % 2 == 0
                        lhs = lhs + Poly.mono((num // 2,))
                    rhs = Poly.zero(1)
                    for nu in partitions(size(mu), max_len=len(mu)):
                        c = sum(
                            lr_coef(nu, gamma, lam)
                            for gamma in partitions(size(mu) - m)
                            if member(kind, gamma)
                        )
                        if c:
                            rhs = rhs + c * kostka_foulkes(nu, mu)
                    assert lhs == rhs, (kind, mu, lam)
