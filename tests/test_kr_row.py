"""Row crystals: affine statistics, raising/lowering, R-matrix properties,
splitting, energy, and the X = K identity."""

import itertools
import random
import re
from collections import Counter

import pytest

import krlab
from krlab import kr_column, kr_row
from krlab.crystal import apply_e, apply_f, hw, is_hw, raise_step, signature, signature_left, word_weight
from krlab.identities import run_task, suite_tasks
from krlab.kr_column import BOX, HDOM, VDOM, ColumnKR, energy_chain, split_col
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
from krlab.letters import EMPTY, sort_word
from krlab.oscillating import hw_row_elements, row_energy_counts
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


def _affine_ops(kind, n):
    """e_i and f_i for i = 1..n at row_ctx, then e_0 and f_0, on tensors."""
    ctx = row_ctx(kind, n)
    ops = []
    for i in range(1, n + 1):
        ops.append(lambda b, i=i: apply_e(b, i, ctx))
        ops.append(lambda b, i=i: apply_f(b, i, ctx))
    return ops + [tensor_e0, tensor_f0]


def bfs_map(kind, s, n):
    """The reference R-matrix: the whole map, propagated from the anchor
    1^s (x) 1 -> 1 (x) 1^s along every classical and affine operator."""
    ones = RowKR(kind, s, (1,) * s)
    one = RowKR(kind, 1, (1,))
    start = (ones, one)
    table = {start: (one, ones)}
    frontier = [start]
    ops = _affine_ops(kind, n)
    while frontier:
        nxt = []
        for src in frontier:
            img = table[src]
            for op in ops:
                a = op(src)
                if a is None:
                    continue
                bimg = op(img)
                assert bimg is not None, "affine graphs disagree"
                if a in table:
                    assert table[a] == bimg, "inconsistent affine propagation"
                    continue
                table[a] = bimg
                nxt.append(a)
        frontier = nxt
    return table


def generic_apply(table, u, c):
    """RMatrixTable.apply walked with the generic crystal operators: raise
    with crystal.raise_step, lower with crystal.apply_f, storing the same
    path entries in table.map."""
    t = (u, c)
    img = table.map.get(t)
    if img is not None:
        return img
    path = []
    top = t
    while top not in table.map:
        step = raise_step(top, table.ctx)
        if step is None:
            break
        path.append((top, step[0]))
        top = step[1]
    img = table.map.get(top)
    if img is None:
        (img,) = table.targets[table._key(top)]
        table.map[top] = img
    for b, i in reversed(path):
        img = apply_f(img, i, table.ctx)
        assert img is not None
        table.map[b] = img
    return img


def test_r_matrix_bfs_agrees():
    for kind in (BOX, HDOM, VDOM):
        s, n = 2, 3
        bfs = bfs_map(kind, s, n)
        table = RMatrixTable(kind, s, n)
        for u in enumerate_row(kind, s, n):
            for c in enumerate_row(kind, 1, n):
                assert bfs[(u, c)] == table.apply(u, c), (u, c)


@pytest.mark.parametrize("kind", [BOX, HDOM, VDOM])
def test_r_matrix_table_matches_bfs_in_any_order(kind):
    # path filling stores images met on earlier queries; a fresh table
    # queried in shuffled order must still give the reference map
    for s in (2, 3, 4):
        for n in (3, 4):
            ref = bfs_map(kind, s, n)
            table = RMatrixTable(kind, s, n)
            pairs = list(ref)
            random.Random(10 * s + n).shuffle(pairs)
            for u, c in pairs:
                assert table.apply(u, c) == ref[u, c], (u, c)
            assert table.map == ref


@pytest.mark.parametrize("kind", [BOX, HDOM, VDOM])
def test_letter_walk_matches_generic_walk(kind):
    # the table raises and lowers a pair on its letters; the generic walk
    # over the tensor gives the same images and stores the same entries,
    # query by query, the path entries included
    for s in (1, 2, 3):
        for n in (3, 4):
            table, ref = RMatrixTable(kind, s, n), RMatrixTable(kind, s, n)
            pairs = [(u, c) for u in enumerate_row(kind, s, n) for c in enumerate_row(kind, 1, n)]
            random.Random(100 * s + n).shuffle(pairs)
            for u, c in pairs:
                assert table.apply(u, c) == generic_apply(ref, u, c), (u, c)
                assert len(table.map) == len(ref.map), (u, c)
            assert table.map == ref.map, (kind, s, n)
            assert len(table.map) == len(pairs)


@pytest.mark.parametrize("kind, count", [(BOX, 37320), (HDOM, 18160), (VDOM, 25026)])
def test_r_matrix_commutes_with_crystal_operators(kind, count):
    # R is the affine crystal isomorphism B^{1,s} (x) B^{1,1} -> B^{1,1} (x)
    # B^{1,s} (Schilling and Tingley 2012): on every pair, R(x(b)) = x(R(b))
    # for every e_i, f_i and e_0, f_0, and x(b) is defined exactly when
    # x(R(b)) is
    checks = 0
    for n in (3, 4):
        ops = _affine_ops(kind, n)
        for s in (1, 2, 3):
            table = RMatrixTable(kind, s, n)
            for u in enumerate_row(kind, s, n):
                for c in enumerate_row(kind, 1, n):
                    img = table.apply(u, c)
                    for op in ops:
                        a, b = op((u, c)), op(img)
                        assert (a is None) == (b is None), (op, u, c)
                        if a is not None:
                            assert table.apply(*a) == b, (op, u, c)
                        checks += 1
    assert checks == count


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
                index = RMatrixTable(kind, s, n).targets
                assert {k: set(v) for k, v in index.items()} == full, (kind, s, n)
                assert all(len(v) == len(set(v)) for v in index.values())


def test_hw_rows_are_the_rows_of_ones():
    # classically B^{1,s} is the sum of B(k varpi_1) over its row lengths k,
    # so its highest weight rows are 1^k, the only rows the index builds
    for kind in (BOX, HDOM, VDOM):
        for n in (2, 3, 4, 5):
            ctx = row_ctx(kind, n)
            for s in (1, 2, 3, 4, 5):
                rows = enumerate_row(kind, s, n)
                hw_rows = {u for u in rows if is_hw(u, ctx)}
                ones = {RowKR(kind, s, (1,) * k) for k in {len(u.word) for u in rows}}
                assert hw_rows == ones, (kind, s, n)


def test_target_index_has_one_target_per_key():
    # so RMatrixTable.apply matches every component at these ranks
    keys = 0
    for kind in (BOX, HDOM, VDOM):
        for s in range(1, 9):
            for n in range(2, 11):
                index = RMatrixTable(kind, s, n).targets
                assert all(len(targets) == 1 for targets in index.values()), (kind, s, n)
                keys += len(index)
    assert keys == 2232


def test_apply_refuses_a_key_without_one_target():
    # a highest weight element whose key has no target, or two, is refused
    # with the count and the element, not matched some other way
    pair = (RowKR(BOX, 2, (1, 2)), RowKR(BOX, 1, (-1,)))
    top = hw(pair, row_ctx(BOX, 3))
    assert [f.word for f in top] == [(1, 1), (1,)]
    for count in (0, 2):
        table = RMatrixTable(BOX, 2, 3)
        key = table._key(top)
        table.targets[key] = table.targets[key] * count
        message = "%d R-matrix targets for the highest weight element 1,1 (x) 1" % count
        with pytest.raises(ValueError, match=re.escape(message)):
            table.apply(*pair)
        assert table.map == {}
    assert RMatrixTable(BOX, 2, 3).apply(*pair) == bfs_map(BOX, 2, 3)[pair]


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
            assert r_matrix_row(*pair) == bfs_map(BOX, 2, n)[pair], u
        assert [(key, t.n) for key, t in kr_row._tables.items()] == [((BOX, 2), 5)]
    krlab.clear_caches()
    # a replaced table starts with the old images of the pairs within the
    # old rank, and each equals the image at the new rank
    for kind in (BOX, HDOM, VDOM):
        for s in (2, 3):
            old = kr_row._table(kind, s, 3)
            for u in enumerate_row(kind, s, 3):
                for c in enumerate_row(kind, 1, 3):
                    old.apply(u, c)
            kept = {t: img for t, img in old.map.items() if row_rank(t[0].word + t[1].word) <= 3}
            assert kept
            new = kr_row._table(kind, s, 5)
            assert new.n == 5 and new.map == kept, (kind, s)
            full = bfs_map(kind, s, 5)
            assert all(full[t] == img for t, img in kept.items()), (kind, s)
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
        assert all(run_task(task)["equal"] for task in order)
        assert len(kr_row._tables) == 9, i
        if i == 0:
            assert len(built) == 9
    krlab.clear_caches()


def test_level_walk_builds_each_row_table_once_in_any_order(monkeypatch):
    # the level walk steps at one rank per instance, row_rank of its chain
    # length, so a rank-3 pass never replaces a table, whatever the order
    built = []

    class Counted(RMatrixTable):
        def __init__(self, kind, s, n):
            built.append((kind, s, n))
            super().__init__(kind, s, n)

    monkeypatch.setattr(kr_row, "RMatrixTable", Counted)
    tasks = suite_tasks("level-mid", 4, 3)
    for seed in (2, 6, 9):
        krlab.clear_caches()
        built.clear()
        assert all(run_task(task)["equal"] for task in random.Random(seed).sample(tasks, len(tasks)))
        assert len(built) == len(kr_row._tables) == 9, seed
    krlab.clear_caches()


def test_split_row_one_r_matrix_call_per_step(monkeypatch):
    # a factor of capacity above one passes one letter of the chain to its
    # right per step, read from its step table; a missing entry is one
    # RMatrixTable.apply call, so a split makes one call per new step-table
    # entry of such a factor (a one-box factor steps by the identity and
    # calls none), and splitting the same tensor again makes none
    def entries():
        return sum(len(u.steps) for u in kr_column._factors.values() if type(u) is RowKR and u.cap > 1)

    calls = []
    real_apply = RMatrixTable.apply

    def counted_apply(table, u, c):
        calls.append((u, c))
        return real_apply(table, u, c)

    monkeypatch.setattr(RMatrixTable, "apply", counted_apply)
    krlab.clear_caches()
    for kind in (BOX, HDOM, VDOM):
        rows = {s: enumerate_row(kind, s, 2) for s in (1, 2, 3)}
        for caps in ((2, 2), (3, 1, 2), (1, 3), (2, 1, 3, 2), (3, 2, 3, 2, 1)):
            tensor = tuple(rows[s][(7 * i) % len(rows[s])] for i, s in enumerate(caps))
            calls.clear()
            before = entries()
            chain = split_row(tensor)
            assert len(calls) == entries() - before, (kind, caps)
            assert len(calls) <= sum(sum(caps[j + 1:]) for j, s in enumerate(caps) if s > 1)
            calls.clear()
            assert split_row(tensor) == chain
            assert not calls, (kind, caps)
    assert entries() > 0
    krlab.clear_caches()


def test_one_box_steps_are_the_identity_r_matrix():
    # R on B^{1,1} (x) B^{1,1} is the identity: the row R-matrix tables of
    # capacity 1, matched by highest weight elements, fix every pair of
    # one-box factors of each kind at ranks 3, 4 and 5.  So a one-box
    # factor's step entry at c holds (its letter, the one-box factor of c,
    # h), h as store_step defines it, for rows and columns alike
    def letter(box):
        return box.word[0] if box.word else EMPTY

    krlab.clear_caches()
    pairs = 0
    for n in (3, 4, 5):
        for kind in (BOX, HDOM, VDOM):
            table = RMatrixTable(kind, 1, n)
            boxes = enumerate_row(kind, 1, n)
            columns = [ColumnKR(kind, 1, b.word) for b in boxes if kind != HDOM and 0 not in b.word]
            for u in boxes:
                for c in boxes:
                    assert table.apply(u, c) == (u, c), (kind, n, u, c)
                    pairs += 1
            for us, step in ((boxes, lambda u, x: kr_row.row_step(u, x, n)), (columns, kr_column.col_step)):
                for u in us:
                    for c in us:
                        x = letter(c)
                        h = energy_chain((letter(u),) + c.splitting, kind) - energy_chain((x,), kind) - c.split_energy
                        assert step(u, x) == u.steps[x] == (letter(u), c, h), (kind, n, u, c)
    assert pairs == 759
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
    # a capacity-0 factor of either class splits to the empty chain, of
    # energy 0, and drops out of a tensor
    for cls, kinds, split in ((RowKR, (BOX, HDOM, VDOM), split_row), (ColumnKR, (BOX, VDOM), split_col)):
        for kind in kinds:
            zero, one = cls(kind, 0, ()), cls(kind, 1, (1,))
            assert (zero.splitting, zero.split_energy) == ((), 0), (cls, kind)
            assert split((zero,)) == ()
            assert split((zero, one, zero)) == split((one,)) == (1,)


def test_row_split_caches_cleared_and_rebuilt():
    # the one-box factors and the row step tables are kept until
    # clear_caches, and energies computed afresh after a clear are the same
    smoke = [
        ((BOX, 3, (2, 0)), (BOX, 2, (-1,)), (BOX, 2, (1, -3))),
        ((VDOM, 3, (1, 2, -1)), (VDOM, 2, (3, -2)), (VDOM, 2, (2, 2))),
        ((HDOM, 4, (1, 2)), (HDOM, 2, (-2, -1)), (HDOM, 2, (1, 3))),
    ]
    tensors = [tuple(RowKR(*f) for f in t) for t in smoke]
    for kind in (BOX, HDOM, VDOM):
        rows = enumerate_row(kind, 2, 2)
        tensors += [(u, v) for u in rows[::3] for v in rows[::5]]
    krlab.clear_caches()
    before = [energy_row(t) for t in tensors]
    assert before[:3] == [10, 5, 6]
    sizes = krlab.cache_sizes()
    assert sizes["kr_row._box"] > 0 and sizes["kr_row.steps"] > 0
    krlab.clear_caches()
    sizes = krlab.cache_sizes()
    assert sizes["kr_row._box"] == sizes["kr_row.steps"] == 0
    assert [energy_row(t) for t in tensors] == before
    krlab.clear_caches()


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
    # a list word is stored as its tuple, so the factor is the one built
    # from the tuple
    assert energy_row((RowKR(BOX, 2, [1, 2]),)) == energy_row((RowKR(BOX, 2, (1, 2)),)) == 0


def test_signature_left_folds_to_signature():
    # folding the factors' (phi, eps) from the right, one signature_left
    # each, gives the signature rule's (phi, eps) of the whole tensor
    pairs = list(itertools.product(range(3), repeat=2))
    for length in range(5):
        for tensor in itertools.product(pairs, repeat=length):
            reduced = (0, 0)
            for pair in reversed(tensor):
                reduced = signature_left(pair, reduced)
            eps, phi, _, _ = signature(tensor)
            assert reduced == (phi, eps), tensor


def test_carried_row_energy_matches_energy_row():
    # the level walk carries each prefix's energy through the row factors'
    # step tables and its (phi_0, eps_0) through signature_left; per
    # element it gives what energy_row and eps0 give on the tensor
    # hw_row_elements lists, bounded and unbounded, zero capacities too
    krlab.clear_caches()
    elements = 0
    for kind in (BOX, HDOM, VDOM):
        for n in (2, 3, 4):
            for mu in partitions_upto(4, max_len=n):
                weight = mu + (0,) * (n - len(mu))
                for lam in partitions_upto(4, max_len=n):
                    for two_g in (None, 2, 3, 4):
                        listed = hw_row_elements(kind, weight, lam, two_g)
                        want = Counter((energy_row(t), eps0(t)) for _, t, _ in listed)
                        assert row_energy_counts(kind, weight, lam, two_g) == want, (kind, weight, lam, two_g)
                        elements += len(listed)
    assert elements > 1500
    assert kr_column.step_entries(RowKR) > 0
    krlab.clear_caches()


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
