"""Letters, column admissibility, red/unred, and tensor crystal operators."""

import itertools

from krlab.crystal import (
    CTX_INF,
    apply_e,
    apply_f,
    column_tensor,
    ctx_B,
    ctx_C,
    ctx_D,
    eps,
    hw,
    is_hw,
    letter_table,
    phi,
    raise_step,
    wtpair,
)
from krlab.kr_column import BOX, HDOM, VDOM, ColumnKR
from krlab.kr_row import RowKR
from krlab.letters import EMPTY, MID, _worst_pair, is_admissible, key, prec, red, sort_word, unred


def strict_words(maxmag, length):
    letters = [m for m in range(1, maxmag + 1)] + [-m for m in range(1, maxmag + 1)]
    for combo in itertools.combinations(letters, length):
        yield sort_word(combo)


def test_admissibility_examples():
    assert not is_admissible((1, -1))
    assert not is_admissible((1, 2, -2))
    assert not is_admissible((1, 3, -3, -2))
    assert is_admissible((2, -2))


def test_red_examples():
    assert red((1, -1)) == ()
    assert red((1, 2, 3, -3)) == (1, 2)
    assert red((1, 2, -2)) == (1,)
    assert red((1, 2, -1)) == (2,)
    for w in strict_words(4, 3):
        assert is_admissible(red(w))
        if is_admissible(w):
            assert red(w) == w


def _is_admissible_reference(w):
    s = set(w)
    for x in w:
        if x > 0 and -x in s:
            below = sum(1 for c in w if prec(c, x))
            above = sum(1 for c in w if prec(-x, c))
            if below + above >= x - 1:
                return False
    return True


def _red_reference(w):
    """red with its own scoring loop: delete the pair of largest excess
    below + above - i (at least -1), smallest i on ties, until none."""
    w = sort_word(w)
    while True:
        s = set(w)
        best = None
        for x in sorted(c for c in w if c > 0 and -c in s):
            below = sum(1 for c in w if prec(c, x))
            above = sum(1 for c in w if prec(-x, c))
            score = below + above - x
            if score >= -1 and (best is None or score > best[0]):
                best = (score, x)
        if best is None:
            return w
        w = tuple(c for c in w if c not in (best[1], -best[1]))


def test_admissible_and_red_match_reference():
    total = 0
    for length in range(11):
        for w in strict_words(5, length):
            assert is_admissible(w) == _is_admissible_reference(w), w
            assert red(w) == _red_reference(w), w
            total += 1
    assert total == 2 ** 10


def _worst_pair_by_prec(w):
    """_worst_pair as stated with one prec call per letter pair."""
    s = set(w)
    worst = None
    for x in sorted(c for c in s if c > 0 and -c in s):
        below = sum(1 for c in w if prec(c, x))
        above = sum(1 for c in w if prec(-x, c))
        excess = below + above - x
        if excess >= -1 and (worst is None or excess > worst[0]):
            worst = (excess, x)
    return None if worst is None else worst[1]


def test_worst_pair_on_ranks_matches_prec():
    # every word, repeated letters too, of letters 0 < |x| <= 4 up to
    # length 6, in increasing and in decreasing order
    letters = sort_word([m for m in range(1, 5)] + [-m for m in range(1, 5)])
    total = 0
    for length in range(7):
        for combo in itertools.combinations_with_replacement(letters, length):
            for w in (combo, combo[::-1]):
                want = _worst_pair_by_prec(w)
                assert _worst_pair(w) == want, w
                assert is_admissible(w) == (want is None), w
                v = sort_word(w)
                while (x := _worst_pair_by_prec(v)) is not None:
                    v = tuple(c for c in v if c not in (x, -x))
                assert red(w) == v, w
            total += 1
    assert total == 3003


def test_unred():
    assert unred((), 0) == ()
    assert unred((), 1) == (1, -1)
    assert unred((1, 2), 1) == (1, 2, 3, -3)
    for length in (1, 2, 3):
        for w in strict_words(5, length):
            if not is_admissible(w):
                continue
            for r in (1, 2):
                big = unred(w, r)
                assert red(big) == w
                assert len(big) == len(w) + 2 * r


def test_tensor_e_example():
    assert apply_e((-1, 2, 1), 1) == (-2, 2, 1)


def _flat(t):
    """The factors of a nested tensor, left to right."""
    if not isinstance(t, tuple):
        return (t,)
    return tuple(f for x in t for f in _flat(x))


def _check_axioms(t, i, ctx=CTX_INF):
    e, p = eps(t, i, ctx), phi(t, i, ctx)
    assert p - e == wtpair(t, i, ctx)
    ft, et = apply_f(t, i, ctx), apply_e(t, i, ctx)
    assert (ft is None) == (p == 0)
    assert (et is None) == (e == 0)
    if ft is not None:
        assert apply_e(ft, i, ctx) == t
    if et is not None:
        assert apply_f(et, i, ctx) == t
    # eps and phi count the steps of e and f before annihilation
    for op, steps in ((apply_e, e), (apply_f, p)):
        cur = t
        for _ in range(steps):
            cur = op(cur, i, ctx)
            assert cur is not None, (t, i, ctx)
        assert op(cur, i, ctx) is None, (t, i, ctx)


def test_axioms_on_tensors():
    letters = [1, 2, 3, -3, -2, -1]
    for t in itertools.product(letters, repeat=3):
        for i in range(1, 4):
            _check_axioms(t, i)
    # finite ranks; in type B at i = n the zero letter has eps = phi = 1
    # and the letter -n has eps = 2
    for ctx, letters in (
        (ctx_B(2), [1, 2, 0, -2, -1]),
        (ctx_C(2), [1, 2, -2, -1]),
        (ctx_D(3), [1, 2, 3, -3, -2, -1]),
    ):
        for t in itertools.product(letters, repeat=3):
            for i in range(1, ctx[1] + 1):
                _check_axioms(t, i, ctx)
    # letters, EMPTY, column and row KR factors; every bracketing of a
    # triple gives the same statistics and, flattened, the same result
    pools = (
        (CTX_INF, [2, -1, None, ColumnKR(VDOM, 2, (1, 2)),
                   ColumnKR(BOX, 3, (2, -2)), RowKR(BOX, 2, (1, 3))]),
        (ctx_C(2), [1, -2, ColumnKR(BOX, 2, (1, -2)), ColumnKR(BOX, 2, (2, -2)),
                    RowKR(HDOM, 2, (1, -1)), RowKR(HDOM, 3, (2, 2, -2))]),
        (ctx_B(2), [0, -2, None, RowKR(BOX, 2, (0, -2)),
                    RowKR(VDOM, 2, (2, 0)), RowKR(BOX, 3, (1, -1))]),
    )
    for ctx, pool in pools:
        top = ctx[1] or 4
        for a, b, c in itertools.product(pool, repeat=3):
            flat = (a, b, c)
            for i in range(1, top + 1):
                _check_axioms(flat, i, ctx)
                for nested in (((a, b), c), (a, (b, c))):
                    _check_axioms(nested, i, ctx)
                    assert eps(nested, i, ctx) == eps(flat, i, ctx)
                    assert phi(nested, i, ctx) == phi(flat, i, ctx)
                    for op in (apply_e, apply_f):
                        got, want = op(nested, i, ctx), op(flat, i, ctx)
                        assert (got is None) == (want is None)
                        if got is not None:
                            assert _flat(got) == want, (nested, i, ctx)


def test_hw_by_search():
    # greedy highest weight agrees with exhaustive raising search at a
    # finite rank, where every component has a top
    from krlab.crystal import ctx_C

    ctx = ctx_C(4)
    letters = [1, 2, 3, 4, -4, -3, -2, -1]
    import random

    random.seed(3)
    for _ in range(40):
        t = tuple(random.choice(letters) for _ in range(3))
        target = hw(t, ctx)
        assert is_hw(target, ctx)
        seen = {t}
        frontier = [t]
        tops = set()
        while frontier:
            nxt = []
            for b in frontier:
                raised = False
                for i in range(1, 5):
                    eb = apply_e(b, i, ctx)
                    if eb is not None:
                        raised = True
                        if eb not in seen:
                            seen.add(eb)
                            nxt.append(eb)
                if not raised:
                    tops.add(b)
            frontier = nxt
        assert tops == {target}


def test_hw_column_tensor_example():
    # hw(N (x) 12 (x) 123) = 4 (x) 12 (x) 123 for N large
    t = (
        ColumnKR(VDOM, 1, (7,)),
        ColumnKR(VDOM, 2, (1, 2)),
        ColumnKR(VDOM, 3, (1, 2, 3)),
    )
    top = hw(t)
    assert tuple(f.word for f in top) == ((4,), (1, 2), (1, 2, 3))


def test_raise_step_is_smallest_index_raising():
    # raise_step applies e_i for the smallest i that acts, and iterating it
    # walks the path hw records
    for ctx, letters in (
        (ctx_C(3), [1, 2, 3, -3, -2, -1]),
        (ctx_B(3), [1, 2, 3, 0, -3, -2, -1]),
    ):
        for t in itertools.product(letters, repeat=3):
            step = raise_step(t, ctx)
            ups = [(i, apply_e(t, i, ctx)) for i in range(1, 4)]
            ups = [(i, up) for i, up in ups if up is not None]
            assert step == (ups[0] if ups else None)
            record = []
            top = hw(t, ctx, record=record)
            b, walked = t, []
            while step is not None:
                walked.append(step[0])
                b = step[1]
                step = raise_step(b, ctx)
            assert (b, walked) == (top, record)


# The letter crystals written out rule by rule, as they were before the
# arrow table: the reference the table is checked against.
def _ref_eps(x, i, ctx):
    fam, n = ctx
    if x is EMPTY:
        return 0
    if fam != "inf" and i == n:
        if fam == "C":
            return 1 if x == -n else 0
        if fam == "D":
            return 1 if x in (-n, -(n - 1)) else 0
        return (0, 1, 2)[(x == 0) + 2 * (x == -n)]
    return 1 if (x == i + 1 or x == -i) else 0


def _ref_phi(x, i, ctx):
    fam, n = ctx
    if x is EMPTY:
        return 0
    if fam != "inf" and i == n:
        if fam == "C":
            return 1 if x == n else 0
        if fam == "D":
            return 1 if x in (n, n - 1) else 0
        return (0, 1, 2)[(x == 0) + 2 * (x == n)]
    return 1 if (x == i or x == -(i + 1)) else 0


def _ref_e(x, i, ctx):
    fam, n = ctx
    if x is EMPTY:
        return None
    if fam != "inf" and i == n:
        if fam == "C":
            return n if x == -n else None
        if fam == "D":
            if x == -n:
                return n - 1
            if x == -(n - 1):
                return n
            return None
        if x == 0:
            return n
        if x == -n:
            return 0
        return None
    if x == i + 1:
        return i
    if x == -i:
        return -(i + 1)
    return None


def _ref_f(x, i, ctx):
    fam, n = ctx
    if x is EMPTY:
        return None
    if fam != "inf" and i == n:
        if fam == "C":
            return -n if x == n else None
        if fam == "D":
            if x == n - 1:
                return -n
            if x == n:
                return -(n - 1)
            return None
        if x == 0:
            return -n
        if x == n:
            return 0
        return None
    if x == i:
        return i + 1
    if x == -(i + 1):
        return -i
    return None


def test_letter_table_matches_reference():
    # every letter of each alphabet, EMPTY included, at every index
    cases = [(CTX_INF, 7, range(-8, 9))]
    for n in range(1, 6):
        unbarred = list(range(1, n + 1))
        barred = [-x for x in unbarred]
        cases += [
            (ctx_B(n), n, unbarred + [0] + barred),
            (ctx_C(n), n, unbarred + barred),
            (ctx_D(n), n, unbarred + barred),
        ]
    for ctx, top, letters in cases:
        for i in range(1, top + 1):
            table = letter_table(i, ctx)
            for x in list(letters) + [EMPTY]:
                want = (
                    (_ref_phi(x, i, ctx), _ref_eps(x, i, ctx)),
                    _ref_e(x, i, ctx),
                    _ref_f(x, i, ctx),
                )
                assert table.get(x, ((0, 0), None, None)) == want, (ctx, i, x)


def test_red_commutes_with_operators():
    # red is a crystal morphism: red(e_i v) = e_i(red v), nulls matching
    for length in (1, 2, 3, 4, 5):
        for w in strict_words(5, length):
            rw = red(w)
            for i in range(1, 7):
                a = apply_e(column_tensor(w), i)
                b = apply_e(column_tensor(rw), i) if rw else None
                if a is None:
                    assert b is None, (w, i)
                else:
                    wa = sort_word(a)
                    assert len(set(wa)) == len(wa), (w, i)
                    assert b is not None and red(wa) == sort_word(b), (w, i)


def _tuple_key(x):
    """The letter order as the tuple key it was first written with."""
    if x is EMPTY:
        return (-1, 0)
    if x > 0:
        return (0, x)
    if x == 0:
        return (1, 0)
    return (2, x)


def test_integer_letter_rank_matches_tuple_key():
    letters = [EMPTY, 0] + [s * m for m in range(1, 10) for s in (1, -1)]
    assert key(EMPTY) == -1 and key(0) == MID and key(-3) == 2 * MID - 3
    for x in letters:
        for y in letters:
            assert prec(x, y) == (_tuple_key(x) < _tuple_key(y)), (x, y)
    words = [tuple(letters[i:] + letters[:i]) for i in range(len(letters))]
    words += [tuple(reversed(w)) for w in words]
    for w in words:
        assert sort_word(w) == tuple(sorted(w, key=_tuple_key))
        for k in range(1, len(w) + 1):
            assert max(w[:k], key=key) == max(w[:k], key=_tuple_key)
