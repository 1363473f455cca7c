"""Oscillating horizontal strips and their chained tableaux, with the
index maps into KR crystals and the jeu-de-taquin style Aug machinery.

A strip is a triple (inner, mid, outer) of partition tuples; SSOT / GSSOT
chains grow the mid shape from the inner one by a horizontal strip and then
shrink to the outer one, SSROT chains shrink first.  Chains are tuples of
strips; weights are nonnegative integer vectors, one strip per entry.
"""

from functools import lru_cache
from itertools import accumulate

from . import kr_column
from .crystal import hw
from .kr_column import (
    BOX,
    HDOM,
    VDOM,
    ColumnKR,
    energy_chain,
    energy_col,
    split_factor,
    split_shift,
    split_step,
)
from .kr_row import RowKR, eps0
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
# the row crystal each kind of chain maps into under phi_r, and the column
# crystal SSOT and GSSOT chains map into under phi_c
ROW_KIND = {SSOT: HDOM, GSSOT: BOX, SSROT: VDOM}
COL_KIND = {SSOT: VDOM, GSSOT: BOX}


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
    """All strips of length r (r or r - 1 for GSSOT) starting at inner,
    bounded by g (2g given), in lexicographic order of (mid, outer); only
    mid and outer shapes of those lengths are generated.

    Cached on (inner, r, kind, two_g) for the life of the process, or until
    krlab.clear_caches(); the result is a tuple shared by every caller, and
    equal mid and outer partitions across cached strips are one object.
    """
    out = []
    if kind in (SSOT, GSSOT):
        cap = two_g // 2 if two_g is not None else (get(inner, 0) + r)
        short = 1 if kind == GSSOT else 0  # a GSSOT strip may have length r - 1
        for mid in horizontal_strips_above(inner, cap=cap, cells=(0, r)):
            up = size(mid) - size(inner)
            for outer in horizontal_strips_below(mid, cells=(max(r - short - up, 0), r - up)):
                out.append((inner, mid, outer))
    elif kind == SSROT:
        for mid in horizontal_strips_below(inner, cells=(0, r)):
            down = size(inner) - size(mid)
            cap = get(mid, 0) + r  # outer_1 - mid_1 <= r
            for outer in horizontal_strips_above(mid, cap=cap, cells=(r - down, r - down)):
                out.append((inner, mid, outer))
    else:
        raise ValueError(kind)
    intern = _shapes.setdefault
    return tuple(
        (inner, intern(s[1], s[1]), intern(s[2], s[2]))
        for s in out
        if two_g is None or bound2(s, kind, r) <= two_g
    )


def _live(kind, shape, weight, two_g):
    """The live table of one chain search, or None when no chain exists:
    reach(i, inner) is the tuple of strips at position i from inner, in
    _strips_from's order, whose outer shape still reaches shape.  A node's
    entry is filled, its subtree first, before reach returns it.

    The gap test cuts a node before its strips are generated: a strip of
    length r changes the size by at most r, so strips of total weight rem
    cannot close a size gap above rem; nor, for SSOT and SSROT, a gap of
    the other parity, since the change has r's parity (GSSOT strips may
    have length r - 1).  At the root it also rejects an empty weight with
    a nonempty shape.
    """
    parity = kind != GSSOT

    def dead(gap, rem):
        return gap > rem or (parity and (rem - gap) % 2)

    target = size(shape)
    if any(w < 0 for w in weight) or dead(target, sum(weight)):
        return None
    rems = list(accumulate(reversed(weight), initial=0))[::-1]
    last = len(weight) - 1
    live = {}

    def reach(i, inner):
        strips = live.get((i, inner))
        if strips is None:
            strips = ()
            if not dead(abs(target - size(inner)), rems[i]):
                strips = tuple(
                    s
                    for s in _strips_from(inner, weight[i], kind, two_g)
                    if (s[2] == shape if i == last else reach(i + 1, s[2]))
                )
            live[i, inner] = strips
        return strips

    return reach


def enumerate_chains(kind, shape, weight, two_g=None):
    """All SSOT / GSSOT / SSROT of the given shape and weight vector.

    two_g is twice the bound g (None enumerates the whole set); chains come
    in a deterministic order, outermost strip choices lexicographic.  A
    depth-first search over _live's table, so every branch reaches shape.
    """
    shape = norm(shape)
    weight = tuple(weight)
    if kind not in (SSOT, GSSOT, SSROT):
        raise ValueError(kind)
    reach = _live(kind, shape, weight, two_g)
    if reach is None:
        return []
    if not weight:
        return [()]
    last = len(weight) - 1
    out = []

    def rec(i, inner, prefix):
        for strip in reach(i, inner):
            chain = prefix + (strip,)
            if i == last:
                out.append(chain)
            else:
                rec(i + 1, strip[2], chain)

    rec(0, (), ())
    return out


def energy_counts(kind, shape, weight, two_g):
    """{(D, vac): count} over the SSOT or GSSOT chains of enumerate_chains
    bounded by two_g, where D = energy_col(phi_c(chain, kind, weight)) and
    vac = vac(phi_c(chain, kind, weight)): Theorem C sums the counts over
    vac, Theorem B weighs each by q^{(D - vac)/2} t^{vac}.

    One walk over _live's table, with no chain list, carrying the splitting
    chain of the prefix and its vacancy: strip i adds its column factor u
    (COL_KIND: VDOM for SSOT, BOX for GSSOT) on the left, one split_step,
    and u.vacancy() = cap - len(u.word) to the vacancy.  Splitting shifts
    every energy by one constant of the capacities, split_shift,
    subtracted once at the end.
    """
    col_kind = COL_KIND[kind]
    shape = norm(shape)
    weight = tuple(weight)
    reach = _live(kind, shape, weight, two_g)
    if reach is None:
        return {}
    if not weight:
        return {(0, 0): 1}
    last = len(weight) - 1
    r_matrix = kr_column.r_matrix_col  # read per call, so a replaced one is seen
    counts = {}

    def walk(i, inner, chain, v):
        cap = weight[i]
        for strip in reach(i, inner):
            u = _col_factor(col_kind, cap, strip)
            split = split_step(chain, u, r_matrix, split_factor)
            vac = v + u.vacancy()
            if i == last:
                key = (energy_chain(split, col_kind), vac)
                counts[key] = counts.get(key, 0) + 1
            else:
                walk(i + 1, strip[2], split, vac)

    walk(0, (), (), 0)
    shift = split_shift(col_kind, weight)
    return {(d - shift, v): c for (d, v), c in counts.items()}


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


@lru_cache(maxsize=None)
def _col_factor(col_kind, cap, strip):
    """The column factor of one strip; chains share a few hundred strips."""
    return ColumnKR(col_kind, cap, red(cind(strip)))


def phi_c(chain, kind=SSOT, weight=None):
    """Column-index image: a classical highest weight tensor of ColumnKR
    factors, last strip leftmost."""
    if weight is None:
        weight = tuple(strip_len(s) for s in chain)
    return tuple(
        _col_factor(COL_KIND[kind], cap, strip)
        for strip, cap in zip(reversed(chain), reversed(tuple(weight)))
    )


@lru_cache(maxsize=None)
def _row_factor(kind, cap, strip):
    """The row factor of one strip of a chain of the given kind: SSOT and
    GSSOT strips go through gamma, SSROT strips are read directly."""
    rohs = strip if kind == SSROT else gamma(strip)
    return RowKR(ROW_KIND[kind], cap, rind_rohs(rohs))


def phi_r(chain, kind, weight=None):
    """Row-index image into the row crystals, last strip leftmost."""
    if weight is None:
        # strip_len measures an ohs; an rohs has the negated length
        sign = -1 if kind == SSROT else 1
        weight = tuple(sign * strip_len(s) for s in chain)
    return tuple(
        _row_factor(kind, cap, strip)
        for strip, cap in zip(reversed(chain), reversed(tuple(weight)))
    )


def hw_row_elements(kind, mu, lam, two_g=None):
    """Classical highest weight elements of B_mu of the given kind and
    classical weight lam, listed through the oscillating bijections with
    their affine statistic; eps_0 is cross-checked against the tensor
    closed forms.

    two_g bounds the chains' statistic c2 (None lists every element): the
    elements with eps_0 <= two_g / 2 for the horizontal-domino kind, and
    with eps_0 <= two_g for the other two.
    """
    osc_kind = {r: c for c, r in ROW_KIND.items()}[kind]
    out = []
    for chain in enumerate_chains(osc_kind, lam, mu, two_g):
        t = phi_r(chain, osc_kind, mu)
        c2 = chain_c2(chain, osc_kind, mu)
        e0 = c2 // 2 if kind == HDOM else c2
        if kind == HDOM and c2 % 2:
            raise ValueError("horizontal-domino statistic must be integral")
        direct = eps0(t)
        if direct != e0:
            raise ValueError(
                "eps0 mismatch: chain gives %s, tensor gives %s" % (e0, direct)
            )
        out.append((chain, t, e0))
    return out


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
