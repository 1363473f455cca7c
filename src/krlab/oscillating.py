"""Oscillating horizontal strips and their chained tableaux, with the
index maps into KR crystals and the jeu-de-taquin style Aug machinery.

A strip is a triple (inner, mid, outer) of partition tuples; SSOT / GSSOT
chains grow the mid shape from the inner one by a horizontal strip and then
shrink to the outer one, SSROT chains shrink first.  Chains are tuples of
strips; weights are nonnegative integer vectors, one strip per entry.
"""

from functools import lru_cache

from .crystal import hw
from .kr_column import BOX, HDOM, VDOM, ColumnKR, energy_col
from .letters import red, sort_word
from .partitions import (
    conjugate,
    get,
    horizontal_strips_above,
    horizontal_strips_below,
    is_horizontal_strip,
    norm,
    size,
)

SSOT = "ssot"
GSSOT = "gssot"
SSROT = "ssrot"


def strip_len(strip):
    inner, mid, outer = strip
    return 2 * size(mid) - size(inner) - size(outer)


def check_ohs(strip):
    inner, mid, outer = strip
    return is_horizontal_strip(mid, inner) and is_horizontal_strip(mid, outer)


def check_rohs(strip):
    inner, mid, outer = strip
    return is_horizontal_strip(inner, mid) and is_horizontal_strip(outer, mid)


def bound2(strip, kind, r=None):
    """Twice the minimal g making the strip g-bounded."""
    inner, mid, outer = strip
    if kind == SSOT:
        return 2 * get(mid, 0)
    if kind == GSSOT:
        full = (strip_len(strip) == r) if r is not None else True
        return 2 * get(mid, 0) + (0 if full else 1)
    if kind == SSROT:
        return get(inner, 0) + (get(outer, 0) - get(mid, 0)) + max(
            get(inner, 1), get(outer, 1)
        )
    raise ValueError(kind)


def chain_c2(chain, kind, lengths):
    """Twice the statistic c(T) for a chain."""
    out = 0
    for strip, r in zip(chain, lengths):
        out = max(out, bound2(strip, kind, r))
    return out


# Partitions inside cached strips, one tuple object per distinct value;
# emptied together with the _strips_from cache by krlab.clear_caches().
_shapes = {}


@lru_cache(maxsize=None)
def _strips_from(inner, r, kind, two_g):
    """All strips of length r starting at inner, bounded by g (2g given).

    Cached on (inner, r, kind, two_g) for the life of the process, or until
    krlab.clear_caches(); the result is a tuple shared by every caller, and
    equal mid and outer partitions across cached strips are one object.
    """
    intern = _shapes.setdefault
    out = []
    if kind in (SSOT, GSSOT):
        cap = two_g // 2 if two_g is not None else (get(inner, 0) + r)
        for mid in horizontal_strips_above(inner, cap=cap):
            up = size(mid) - size(inner)
            if up > r:
                continue
            for outer in horizontal_strips_below(mid):
                ln = up + (size(mid) - size(outer))
                if kind == SSOT:
                    if ln != r:
                        continue
                    if two_g is not None and 2 * get(mid, 0) > two_g:
                        continue
                else:
                    if ln not in (r, r - 1):
                        continue
                    if two_g is not None:
                        need = 2 * get(mid, 0) + (0 if ln == r else 1)
                        if need > two_g:
                            continue
                out.append((inner, intern(mid, mid), intern(outer, outer)))
    elif kind == SSROT:
        for mid in horizontal_strips_below(inner):
            down = size(inner) - size(mid)
            if down > r:
                continue
            cap = get(mid, 0) + r  # outer_1 - mid_1 <= r
            for outer in horizontal_strips_above(mid, cap=cap):
                ln = down + (size(outer) - size(mid))
                if ln != r:
                    continue
                if two_g is not None and bound2((inner, mid, outer), kind) > two_g:
                    continue
                out.append((inner, intern(mid, mid), intern(outer, outer)))
    else:
        raise ValueError(kind)
    out.sort(key=lambda s: (s[1], s[2]))
    return tuple(out)


def enumerate_chains(kind, shape, weight, two_g=None):
    """All SSOT / GSSOT / SSROT of the given shape and weight vector.

    two_g is twice the bound g (None enumerates the whole set); chains come
    in a deterministic order, outermost strip choices lexicographic.

    A branch at strip i is cut before its strips are generated when the
    size gap |shape| - |inner| exceeds the remaining weight sum, since a
    strip of length r changes the size by at most r; for SSOT and SSROT
    also when that sum minus the gap is odd, since the change has r's
    parity.  GSSOT strips may have length r - 1, so only the size bound
    applies to them.  Cutting only empty branches keeps the output order.
    """
    shape = norm(shape)
    weight = tuple(weight)
    if kind not in (SSOT, GSSOT, SSROT):
        raise ValueError(kind)
    if any(w < 0 for w in weight):
        return []
    target = size(shape)
    rem = [0] * (len(weight) + 1)  # rem[i]: weight sum of strips i, i+1, ...
    for i in range(len(weight) - 1, -1, -1):
        rem[i] = rem[i + 1] + weight[i]
    exact = kind != GSSOT
    out = []

    def rec(i, inner, acc):
        if i == len(weight):
            if inner == shape:
                out.append(tuple(acc))
            return
        gap = abs(target - size(inner))
        if gap > rem[i] or (exact and (rem[i] - gap) % 2):
            return
        for strip in _strips_from(inner, weight[i], kind, two_g):
            acc.append(strip)
            rec(i + 1, strip[2], acc)
            acc.pop()

    rec(0, (), [])
    return out


def cind(strip):
    """Column indices: unbarred for cells added inner->mid, barred for cells
    removed mid->outer; valid for ohs strips."""
    inner, mid, outer = strip
    ci = conjugate(inner)
    cm = conjugate(mid)
    co = conjugate(outer)
    word = []
    top = get(mid, 0)
    for j in range(1, top + 1):
        if get(cm, j - 1) == get(ci, j - 1) + 1:
            word.append(j)
    for j in range(1, top + 1):
        if get(cm, j - 1) == get(co, j - 1) + 1:
            word.append(-j)
    return sort_word(word)


def rind_ohs(strip):
    """Row indices of an ohs, as a sorted multiset word."""
    inner, mid, outer = strip
    word = []
    for i in range(len(mid)):
        word.extend([i + 1] * (get(mid, i) - get(inner, i)))
        word.extend([-(i + 1)] * (get(mid, i) - get(outer, i)))
    return sort_word(word)


def rind_rohs(strip):
    """Row indices of an rohs: barred rows lose cells from the inner shape,
    unbarred rows gain cells toward the outer shape."""
    inner, mid, outer = strip
    word = []
    for i in range(max(len(inner), len(outer))):
        word.extend([i + 1] * (get(outer, i) - get(mid, i)))
        word.extend([-(i + 1)] * (get(inner, i) - get(mid, i)))
    return sort_word(word)


def _counts(word):
    up = {}
    down = {}
    for x in word:
        if x > 0:
            up[x] = up.get(x, 0) + 1
        else:
            down[-x] = down.get(-x, 0) + 1
    return up, down


def gamma(strip):
    """The pair-cancelling bijection from an ohs to an rohs.

    Every matched (i, bar-i) pair slides down one row; pairs in row one
    disappear.
    """
    inner, mid, outer = strip
    up, down = _counts(rind_ohs(strip))
    top = max(len(mid), 1)
    k = {i: min(up.get(i, 0), down.get(i, 0)) for i in range(1, top + 2)}
    zeta = []
    for i in range(1, top + 1):
        b_bar = down.get(i, 0) - k.get(i, 0) + k.get(i + 1, 0)
        zeta.append(get(inner, i - 1) - b_bar)
    zeta = norm(tuple(zeta))
    out = (inner, zeta, outer)
    if not check_rohs(out):
        raise ValueError("gamma produced an invalid rohs")
    return out


def gamma_inv(strip, r):
    """Inverse of gamma onto ohs strips of length r."""
    inner, zeta, outer = strip
    word = rind_rohs(strip)
    up, down = _counts(word)
    top = max(len(inner), len(outer), len(zeta), 1)
    m = {i: min(up.get(i, 0), down.get(i, 0)) for i in range(1, top + 2)}
    k2 = r - len(word)
    if k2 < 0 or k2 % 2:
        raise ValueError("length mismatch")
    k = k2 // 2
    mid = []
    for i in range(1, top + 2):
        a_up = up.get(i, 0) - m.get(i, 0) + (m.get(i - 1, 0) if i > 1 else k)
        mid.append(get(inner, i - 1) + a_up)
    mid = norm(tuple(mid))
    out = (inner, mid, outer)
    if not check_ohs(out) or strip_len(out) != r:
        raise ValueError("gamma_inv produced an invalid ohs")
    return out


def phi_c(chain, kind=SSOT, weight=None):
    """Column-index image: a classical highest weight tensor of ColumnKR
    factors, last strip leftmost."""
    col_kind = VDOM if kind == SSOT else BOX
    if weight is None:
        weight = tuple(strip_len(s) for s in chain)
    factors = []
    for strip, cap in zip(reversed(chain), reversed(tuple(weight))):
        factors.append(ColumnKR(col_kind, cap, red(cind(strip))))
    return tuple(factors)


def phi_r(chain, kind, weight=None):
    """Row-index image into the row crystals; SSOT and GSSOT go through
    gamma, SSROT reads its strips directly."""
    from .kr_row import RowKR

    row_kind = {SSOT: HDOM, GSSOT: BOX, SSROT: VDOM}[kind]
    if weight is None:
        # strip_len measures an ohs; an rohs has the negated length
        sign = -1 if kind == SSROT else 1
        weight = tuple(sign * strip_len(s) for s in chain)
    factors = []
    for strip, cap in zip(reversed(chain), reversed(tuple(weight))):
        if kind == SSROT:
            w = rind_rohs(strip)
        else:
            w = rind_rohs(gamma(strip))
        factors.append(RowKR(row_kind, cap, w))
    return tuple(factors)


def std(strip):
    """Standardization: the one-cell-at-a-time shape path of an ohs."""
    inner, mid, outer = strip
    word = cind(strip)
    seq = [norm(inner)]
    cur = list(inner) + [0]
    for x in word:
        if x > 0:
            col = x
            i = 0
            while get(tuple(cur), i) >= col:
                i += 1
            if len(cur) <= i:
                cur.extend([0] * (i + 1 - len(cur)))
            cur[i] += 1
        else:
            col = -x
            i = len(cur) - 1
            while i >= 0 and get(tuple(cur), i) < col:
                i -= 1
            cur[i] -= 1
        seq.append(norm(tuple(cur)))
    assert seq[-1] == norm(outer)
    return tuple(seq)


def sp(strip):
    """The letter tensor of the standardization, largest letter leftmost."""
    return tuple(reversed(cind(strip)))


def fg_step(mu, lam, zeta):
    """One growth step: transport the mu -> lam cell move across zeta.

    Adding picks the largest column b <= a with an addable zeta-corner,
    removing the smallest b >= a with a removable one; the transported
    shape stays a horizontal strip over lam.
    """
    mu, lam, zeta = norm(mu), norm(lam), norm(zeta)
    if not is_horizontal_strip(zeta, mu):
        raise ValueError("zeta/mu must be a horizontal strip")
    dsz = size(lam) - size(mu)
    if dsz == 1:
        a = _changed_column(lam, mu)
        for b in range(a, 0, -1):
            eta = _add_in_column(zeta, b)
            if eta is not None:
                if not is_horizontal_strip(eta, lam):
                    raise ValueError("growth step left the strip family")
                return eta
        raise ValueError("no growth column found")
    if dsz == -1:
        a = _changed_column(mu, lam)
        for b in range(a, get(zeta, 0) + 1):
            eta = _remove_in_column(zeta, b)
            if eta is not None:
                if not is_horizontal_strip(eta, lam):
                    raise ValueError("growth step left the strip family")
                return eta
        raise ValueError("no shrink column found")
    raise ValueError("shapes must differ by one cell")


def _changed_column(big, small):
    for i in range(len(big)):
        if get(big, i) != get(small, i):
            return get(big, i)
    raise ValueError("equal shapes")


def _add_in_column(zeta, col):
    out = list(zeta) + [0]
    for i in range(len(out)):
        if get(tuple(out), i) == col - 1 and (i == 0 or out[i - 1] >= col):
            out[i] += 1
            return norm(tuple(out))
    return None


def _remove_in_column(zeta, col):
    out = list(zeta)
    for i in range(len(out) - 1, -1, -1):
        if out[i] == col and (i == len(out) - 1 or out[i + 1] < col):
            out[i] -= 1
            return norm(tuple(out))
    return None


def fg_sequence(seq, zeta):
    """Transport a whole one-cell path across zeta."""
    out = [norm(zeta)]
    for prev, cur in zip(seq, seq[1:]):
        out.append(fg_step(prev, cur, out[-1]))
    return tuple(out)


def _chain_from_path(first_strip, path, lengths):
    """Cut a glued one-cell path back into strips with the given lengths.

    Within each block additions come first, so the peak is the largest
    shape of the block.
    """
    chain = [first_strip]
    pos = 0
    for r in lengths:
        sub = path[pos : pos + r + 1]
        peak = max(sub, key=size)
        chain.append((norm(path[pos]), norm(peak), norm(path[pos + r])))
        pos += r
    return tuple(chain)


def _glued_std(chain_tail):
    full = []
    for s in chain_tail:
        block = std(s)
        if full:
            assert full[-1] == block[0]
            full.extend(block[1:])
        else:
            full.extend(block)
    return full


def aug(chain, r, weight=None):
    """Aug(T, r): widen the first strip by r and transport the rest.

    Computed by the growth rule on the glued standardizations; the result
    has weight (mu_1 + r, mu_2, ...).
    """
    if weight is None:
        weight = tuple(strip_len(s) for s in chain)
    if r == 0:
        return tuple(chain)
    k = get(chain[0][2], 0)
    mu1 = weight[0]
    v = (mu1 + r + k + r) // 2
    first = ((), norm((v,)), norm((k + r,)))
    assert strip_len(first) == mu1 + r
    full = _glued_std(chain[1:])
    if not full:
        return (first,)
    out_path = fg_sequence(full, (k + r,))
    lengths = tuple(strip_len(s) for s in chain[1:])
    return _chain_from_path(first, out_path, lengths)


def aug_via_hw(chain, r, kind=SSOT, weight=None):
    """Cross-check value of aug through the crystal: widen the rightmost
    tensor factor and take the classical highest weight element."""
    if weight is None:
        weight = tuple(strip_len(s) for s in chain)
    factors = list(phi_c(chain, kind, weight))
    last = factors[-1]
    k = len(last.word)
    assert last.word == tuple(range(1, k + 1))
    factors[-1] = ColumnKR(last.kind, last.cap + r, tuple(range(1, k + r + 1)))
    return hw(tuple(factors))


def deaug_last_row(chain, weight=None):
    """The unique T' with Aug(T', lam_n) = T when the shape has n rows.

    Strip i loses lam_n cells from its last relevant row.
    """
    if weight is None:
        weight = tuple(strip_len(s) for s in chain)
    n = len(chain)
    lam = chain[-1][2]
    if len(norm(lam)) != n:
        raise ValueError("shape must have n rows")
    ln = get(lam, n - 1)
    if ln == 0:
        return tuple(chain)
    k = get(chain[0][2], 0)
    mu1 = weight[0] - ln
    v = (mu1 + k - ln) // 2
    first = ((), norm((v,)), norm((k - ln,)))
    if strip_len(first) != mu1:
        raise ValueError("first strip length mismatch")
    out = [first]
    for i in range(1, n):
        inner, mid, outer = chain[i]
        new_inner = tuple(get(inner, j) for j in range(i - 1)) + (
            get(inner, i - 1) - ln,
        )
        new_mid = tuple(get(mid, j) for j in range(i)) + (get(mid, i) - ln,)
        new_outer = tuple(get(outer, j) for j in range(i)) + (
            get(outer, i) - ln,
        )
        strip = (norm(new_inner), norm(new_mid), norm(new_outer))
        if not check_ohs(strip):
            raise ValueError("deaug produced an invalid strip")
        out.append(strip)
    return tuple(out)


def reshape_aug(chain, r, new_shape, weight=None):
    """The unique T' of the given shape with Aug(T', r') = Aug(T, r).

    r' = |tau| - |new_shape| where tau is the shape of Aug(T, r); the first
    strip length of T' follows from weight bookkeeping.
    """
    if weight is None:
        weight = tuple(strip_len(s) for s in chain)
    big = aug(chain, r, weight)
    tau = big[-1][2]
    new_shape = norm(new_shape)
    first_len = weight[0] + r + size(new_shape) - size(tau)
    path = _glued_std(big[1:])
    if not path:
        raise ValueError("nothing to reshape")
    new_path = _reverse_fg(path, new_shape)
    k_new = new_path[0]
    v = (first_len + get(k_new, 0)) // 2
    first = ((), norm((v,)), norm(k_new))
    if strip_len(first) != first_len:
        raise ValueError("reshape length mismatch")
    lengths = tuple(strip_len(s) for s in big[1:])
    return _chain_from_path(first, new_path, lengths)


def _reverse_fg(path, final):
    """Walk a transported path backwards: recover the source one-cell path
    whose growth image is the given path and whose last shape is final."""
    out = [norm(final)]
    for zeta, eta in zip(path[::-1][1:], path[::-1]):
        lam = out[0]
        dsz = size(eta) - size(zeta)
        if dsz == 1:
            a = _changed_column(eta, zeta)
            candidates = range(a, get(lam, 0) + 1)
            move = _remove_in_column
        elif dsz == -1:
            a = _changed_column(zeta, eta)
            candidates = range(a, 0, -1)
            move = _add_in_column
        else:
            raise ValueError("image path must move one cell at a time")
        for b in candidates:
            mu = move(lam, b)
            if mu is None:
                continue
            try:
                good = fg_step(mu, lam, zeta) == eta
            except ValueError:
                good = False
            if good:
                out.insert(0, mu)
                break
        else:
            raise ValueError("no reverse growth step found")
    return tuple(out)


def iota_chain(chain):
    """Shift a chain one column to the right, strip i moving by i cells."""
    out = []
    for i, (inner, mid, outer) in enumerate(chain, start=1):
        ninner = tuple(get(inner, j) + 1 for j in range(i - 1))
        nmid = tuple(get(mid, j) + 1 for j in range(i))
        nouter = tuple(get(outer, j) + 1 for j in range(i))
        out.append((norm(ninner), norm(nmid), norm(nouter)))
    return tuple(out)


def kappa_count(kind, lam, mu, r, two_g):
    """Number of g-bounded strips of length r from inner mu to outer lam."""
    strips = _strips_from(norm(mu), r, kind, two_g)
    return sum(1 for s in strips if norm(s[2]) == norm(lam))


def energy_of_chain(chain, kind=SSOT, weight=None):
    return energy_col(phi_c(chain, kind, weight))
