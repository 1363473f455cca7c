"""Oscillating horizontal strips and their chained tableaux, with the
index maps into KR crystals and the jeu-de-taquin style Aug machinery.

A strip is a triple (inner, mid, outer) of partition tuples; SSOT / GSSOT
chains grow the mid shape from the inner one by a horizontal strip and then
shrink to the outer one, SSROT chains shrink first.  Chains are tuples of
strips; weights are nonnegative integer vectors, one strip per entry.
"""

from functools import lru_cache, partial
from itertools import accumulate, zip_longest
from operator import add, gt

from .crystal import hw, signature_left
from .kr_column import BOX, HDOM, VDOM, ColumnKR, col_step, energy_col, split_shift, split_step_energy
from .kr_row import RowKR, _zero_pair, eps0, row_rank, row_step
from .letters import red, sort_word
from .partitions import (
    added_cell,
    get,
    horizontal_strips_above,
    horizontal_strips_below,
    is_horizontal_strip,
    is_partition,
    norm,
    row_box,
    size,
)

SSOT = "ssot"
GSSOT = "gssot"
SSROT = "ssrot"
# the row crystal each kind of chain maps into under phi_r, and the column
# crystal SSOT and GSSOT chains map into under phi_c
ROW_KIND = {SSOT: HDOM, GSSOT: BOX, SSROT: VDOM}
OSC_OF_ROW = {r: c for c, r in ROW_KIND.items()}
COL_KIND = {SSOT: VDOM, GSSOT: BOX}


def strip_len(strip):
    inner, mid, outer = strip
    return 2 * size(mid) - size(inner) - size(outer)


def _weight(chain, weight, sign=1):
    """weight, or when it is None the strip lengths of chain, times sign:
    strip_len measures an ohs, and an rohs has the negated length."""
    if weight is None:
        return tuple(sign * strip_len(s) for s in chain)
    return weight


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
# emptied together with the strip caches by krlab.clear_caches().
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


@lru_cache(maxsize=None)
def _strips_between(inner, outer, r, kind, two_g):
    """The strips of _strips_from(inner, r, kind, two_g) that end at outer,
    in the same order, listed without the others.  With both ends fixed
    only mid varies, row by row in a box: max(inner_j, outer_j) <= mid_j <=
    min(inner_{j-1}, outer_{j-1}) and mid_1 <= g, or g - 1/2 on a GSSOT
    strip of length r - 1 (SSOT, GSSOT); max(inner_{j+1}, outer_{j+1}) <=
    mid_j <= min(inner_j, outer_j) and bound2 <= 2g (SSROT).  r sets |mid|;
    an empty box, or a size outside it, gives () before any listing.
    """
    big, small = [], []  # row by row, the larger and the smaller of inner_j, outer_j
    for x, y in zip_longest(inner, outer, fillvalue=0):
        if x < y:
            x, y = y, x
        big.append(x)
        small.append(y)
    big.append(0)
    small.append(0)
    twice = sum(big) + sum(small)  # |inner| + |outer|, then 2|mid|
    if kind == SSROT:
        twice -= r
        lows, highs = big[1:] or [0], small[:-1] or [0]  # one row if both ends are ()
        if two_g is not None:  # bound2 of the strip is inner_1 + outer_1 + lows[0] - mid_1
            lows[0] = max(lows[0], big[0] + small[0] + lows[0] - two_g)
    elif kind in (SSOT, GSSOT):
        twice += r
        short = kind == GSSOT and twice % 2  # the strip has length r - 1
        twice -= short
        cap = big[0] + r if two_g is None else (two_g - short) // 2
        lows, highs = big, [cap] + small[:-1]
    else:
        raise ValueError(kind)
    low = sum(lows)
    extra = twice // 2 - low
    if twice % 2 or extra < 0 or extra > sum(highs) - low or any(map(gt, lows, highs)):
        return ()
    intern = _shapes.setdefault
    outer = intern(outer, outer)
    return tuple((inner, intern(mid, mid), outer) for mid in row_box(lows, highs, extra, extra))


def _live(kind, shape, weight, two_g):
    """The live table of one chain search, or None when no chain exists:
    a plain dict {(i, inner): strips}, where strips is the tuple of strips
    at position i from inner, in _strips_from's order, whose outer shape
    still reaches shape.  _fill enters the nodes depth first from the
    root, each after its subtree; an empty weight fills nothing.

    The gap test cuts a node before its strips are generated: a strip of
    length r changes the size by at most r, so strips of total weight rem
    cannot close a size gap above rem; nor, for SSOT and SSROT, a gap of
    the other parity, since the change has r's parity (GSSOT strips may
    have length r - 1).  At the root it also rejects an empty weight with
    a nonempty shape.  The last strip's two ends are inner and shape, so
    its strips come from _strips_between, which lists no strip ending
    elsewhere.  An unknown kind, or a shape with a negative or an increasing
    part, raises ValueError.
    """
    if kind not in (SSOT, GSSOT, SSROT):
        raise ValueError(kind)
    shape = norm(shape)
    if not is_partition(shape):
        raise ValueError("shape %r is not a partition" % (shape,))
    parity = kind != GSSOT
    target = size(shape)
    if any(w < 0 for w in weight) or unreachable(target, sum(weight), parity):
        return None
    live = {}
    if weight:
        rems = list(accumulate(reversed(weight), initial=0))[::-1]
        _fill(live, 0, (), kind, shape, weight, two_g, rems, target, parity)
    return live


def unreachable(gap, rem, parity):
    """_live's gap test: strips of total weight rem cannot change a size by
    gap (by gap's parity too when parity is set).  identities applies it to
    the sizes of a Theorem C or B pair before building the pair's shapes."""
    return gap > rem or (parity and (rem - gap) % 2)


def _fill(live, i, inner, kind, shape, weight, two_g, rems, target, parity):
    """Enter live[i, inner] for _live, after the nodes below it.  A module
    function with its state in arguments, so that the table is freed by
    reference counting when the search returns."""
    if unreachable(abs(target - size(inner)), rems[i], parity):
        strips = ()
    elif i == len(weight) - 1:
        strips = _strips_between(inner, shape, weight[i], kind, two_g)
    else:
        kept = []
        for s in _strips_from(inner, weight[i], kind, two_g):
            below = live.get((i + 1, s[2]))
            if below is None:
                below = _fill(live, i + 1, s[2], kind, shape, weight, two_g, rems, target, parity)
            if below:
                kept.append(s)
        strips = tuple(kept)
    live[i, inner] = strips
    return strips


@lru_cache(maxsize=4)
def _shared_live(kind, shape, weight, two_g):
    """_live's table for the last few searches, which callers only read: a
    level instance's right side (row_energy_counts) and its q = 1 count
    (count_chains) search one table.  Keyed on the normalised shape and
    the weight tuple."""
    return _live(kind, shape, weight, two_g)


def enumerate_chains(kind, shape, weight, two_g=None):
    """All SSOT / GSSOT / SSROT of the given shape and weight vector.

    two_g is twice the bound g (None enumerates the whole set); chains come
    in a deterministic order, outermost strip choices lexicographic.  A
    depth-first search over _live's table, so every branch reaches shape.
    """
    weight = tuple(weight)
    live = _live(kind, shape, weight, two_g)
    if live is None:
        return []
    if not weight:
        return [()]
    out = []
    _chains(live, 0, (), (), len(weight) - 1, out)
    return out


def _chains(live, i, inner, prefix, last, out):
    """Append to out every chain that extends prefix from node (i, inner)."""
    strips = live[i, inner]
    if i == last:
        out += [prefix + (s,) for s in strips]
    else:
        for s in strips:
            _chains(live, i + 1, s[2], prefix + (s,), last, out)


def count_chains(kind, shape, weight, two_g=None):
    """len(enumerate_chains(kind, shape, weight, two_g)), with no chain
    list: each node of _live's table counts the chains below it, the sum
    over its strips of their outer node's count (1 at the last position).
    The table holds each node after its subtree, so one pass in its order
    finds every count it adds.  The table is _shared_live's."""
    weight = tuple(weight)
    live = _shared_live(kind, norm(shape), weight, two_g)
    if live is None:
        return 0
    if not weight:
        return 1
    last = len(weight) - 1
    counts = {}
    for (i, inner), strips in live.items():
        if i == last:
            counts[i, inner] = len(strips)
        else:
            counts[i, inner] = sum(counts[i + 1, s[2]] for s in strips)
    return counts[0, ()]


def energy_counts(kind, shape, weight, two_g):
    """{(D, vac): count} over the SSOT or GSSOT chains of enumerate_chains
    bounded by two_g, where D = energy_col(phi_c(chain, kind, weight)) and
    vac = vac(phi_c(chain, kind, weight)): Theorem C sums the counts over
    vac, Theorem B weighs each by q^{(D - vac)/2} t^{vac}.

    _energy_sums over _live's table, with kr_column's step rule: strip i
    reads its column factor (COL_KIND: VDOM for SSOT, BOX for GSSOT) and
    that factor's vacancy from _col_factor, and the vacancies add up.
    Splitting shifts every energy by one constant of the capacities,
    split_shift, subtracted once at the end.
    """
    col_kind = COL_KIND[kind]
    weight = tuple(weight)
    live = _live(kind, shape, weight, two_g)
    if live is None:
        return {}
    counts = _energy_sums(live, 0, (), (), 0, 0, weight, partial(_col_factor, col_kind), add, col_step, {})
    shift = split_shift(col_kind, weight)
    return {(d - shift, v): c for (d, v), c in counts.items()}


def row_energy_counts(kind, mu, lam, two_g=None):
    """{(D, eps_0): count} over the elements t of hw_row_elements(kind, mu,
    lam, two_g), where D = energy_row(t) and eps_0 = eps0(t), each eps_0
    checked against its chain's statistic as hw_row_elements checks it.

    _energy_sums over _shared_live's table, with kr_row's step rule at one
    rank: strip i reads its row factor, that factor's (phi_0, eps_0) and
    the strip's bound2 from _row_strip, and the accumulator folds them into
    the row tensor's (phi_0, eps_0), by signature_left, and the chain's
    statistic c2, by max.  Each distinct (D, (phi_0, eps_0), c2) has its
    eps_0 checked against c2, and the counts are merged by eps_0.  The rank
    is row_rank of the chain's length, at least that of each element's
    letters: a letter of a strip's row factor is a row index of its
    shapes, and the shapes after i strips have at most i rows.
    """
    osc_kind = OSC_OF_ROW[kind]
    weight = tuple(mu)
    live = _shared_live(osc_kind, norm(lam), weight, two_g)
    if live is None:
        return {}
    fill = partial(row_step, rank=row_rank((len(weight),)))
    read = partial(_row_strip, osc_kind)
    sums = _energy_sums(live, 0, (), (), 0, ((0, 0), 0), weight, read, _row_fold, fill, {})
    counts = {}
    for (d, (zero, c2)), c in sums.items():
        key = (d, _checked_eps0(osc_kind, c2, zero[1]))
        counts[key] = counts.get(key, 0) + c
    return counts


def _row_fold(acc, data):
    """((phi_0, eps_0), c2) of a prefix with a strip's row factor on its
    left, from the prefix's and the strip's ((phi_0, eps_0), bound2)."""
    return signature_left(data[0], acc[0]), max(acc[1], data[1])


def _energy_sums(live, i, inner, chain, d, acc, weight, read, fold, fill, counts):
    """Count into counts, and return it, the (D, acc) of each chain below
    node (i, inner) of a live table for the given weight: D is the energy
    of the split chain of the chain's tensor, and acc folds what its
    strips give.  The prefix has split chain `chain`, of energy d, and
    accumulator acc.

    One walk, with no chain list: strip i reads (u, data) = read(weight[i],
    strip), adds its factor u on the left, one split_step_energy with the
    step rule fill (the last strip builds no chain), and folds data into
    the accumulator, fold(acc, data).
    """
    if i == len(weight):
        counts[d, acc] = counts.get((d, acc), 0) + 1
        return counts
    build = i + 1 < len(weight)
    for strip in live[i, inner]:
        u, data = read(weight[i], strip)
        split, e = split_step_energy(chain, d, u, build, fill)
        _energy_sums(live, i + 1, strip[2], split, e, fold(acc, data), weight, read, fold, fill, counts)
    return counts


def _checked_eps0(kind, c2, direct):
    """The eps_0 a chain of the given kind with statistic c2 gives its row
    tensor, c2 / 2 for SSOT chains and c2 for the others, checked against
    the tensor's own eps_0, direct."""
    e0 = c2
    if kind == SSOT:
        if c2 % 2:
            raise ValueError("horizontal-domino statistic must be integral")
        e0 //= 2
    if direct != e0:
        raise ValueError("eps0 mismatch: chain gives %s, tensor gives %s" % (e0, direct))
    return e0


def cind(strip):
    """Column indices of an ohs strip, read off its rows: row j adds
    columns inner_j+1 .. mid_j (unbarred) and removes outer_j+1 .. mid_j
    (barred), no column twice; unbarred rows bottom-up, barred top-down."""
    inner, mid, outer = strip
    word = []
    rows = list(zip_longest(mid, inner, outer, fillvalue=0))
    for m, i, _ in reversed(rows):
        word += range(i + 1, m + 1)
    for m, _, o in rows:
        word += range(-m, -o)
    return tuple(word)


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


def gamma(strip):
    """The pair-cancelling bijection from an ohs to an rohs.

    Every matched (i, bar-i) pair slides down one row; pairs in row one
    disappear.  Row i of rind_ohs has mid_i - max(inner_i, outer_i) pairs,
    so zeta_i = min(inner_i, outer_i) less the pairs of row i + 1.
    """
    if not check_ohs(strip):
        raise ValueError("gamma needs an ohs")
    inner, mid, outer = strip
    pairs = [get(mid, i) - max(get(inner, i), get(outer, i)) for i in range(1, len(mid) + 1)]
    zeta = norm(tuple(min(get(inner, i), get(outer, i)) - pairs[i] for i in range(len(mid))))
    out = (inner, zeta, outer)
    if not check_rohs(out):
        raise ValueError("gamma produced an invalid rohs")
    return out


def gamma_inv(strip, r):
    """Inverse of gamma onto ohs strips of length r: the min(inner_i,
    outer_i) - zeta_i pairs of row i of rind_rohs rise to row i + 1, and the
    (r - |inner| - |outer| + 2|zeta|) / 2 new pairs go to row one."""
    if not check_rohs(strip):
        raise ValueError("gamma_inv needs an rohs")
    inner, zeta, outer = strip
    k2 = r - size(inner) - size(outer) + 2 * size(zeta)
    if k2 < 0 or k2 % 2:
        raise ValueError("length mismatch")
    pairs = [k2 // 2] + [min(get(inner, i), get(outer, i)) - get(zeta, i) for i in range(len(inner))]
    mid = norm(tuple(max(get(inner, i), get(outer, i)) + pairs[i] for i in range(len(pairs))))
    out = (inner, mid, outer)
    if not check_ohs(out) or strip_len(out) != r:
        raise ValueError("gamma_inv produced an invalid ohs")
    return out


@lru_cache(maxsize=None)
def _col_factor(col_kind, cap, strip):
    """The column factor of one strip and its vacancy, what phi_c and the
    Theorem C/B walk read off it; chains share a few hundred strips."""
    u = ColumnKR(col_kind, cap, red(cind(strip)))
    return u, u.vacancy()


def phi_c(chain, kind=SSOT, weight=None):
    """Column-index image: a classical highest weight tensor of ColumnKR
    factors, last strip leftmost."""
    weight = _weight(chain, weight)
    return tuple(
        _col_factor(COL_KIND[kind], cap, strip)[0]
        for strip, cap in zip(reversed(chain), reversed(tuple(weight)))
    )


def _row_factor(kind, cap, strip):
    """The row factor of one strip of a chain of the given kind: SSOT and
    GSSOT strips go through gamma, SSROT strips are read directly."""
    rohs = strip if kind == SSROT else gamma(strip)
    return RowKR(ROW_KIND[kind], cap, rind_rohs(rohs))


@lru_cache(maxsize=None)
def _row_strip(kind, cap, strip):
    """What the level walk reads off one strip: its row factor, and that
    factor's (phi_0, eps_0) with the strip's bound2."""
    u = _row_factor(kind, cap, strip)
    return u, (_zero_pair(u), bound2(strip, kind, cap))


def phi_r(chain, kind, weight=None):
    """Row-index image into the row crystals, last strip leftmost."""
    weight = _weight(chain, weight, -1 if kind == SSROT else 1)
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
    osc_kind = OSC_OF_ROW[kind]
    out = []
    for chain in enumerate_chains(osc_kind, lam, mu, two_g):
        t = phi_r(chain, osc_kind, mu)
        e0 = _checked_eps0(osc_kind, chain_c2(chain, osc_kind, mu), eps0(t))
        out.append((chain, t, e0))
    return out


def std(strip):
    """Standardization: the one-cell-at-a-time shape path of an ohs, each
    letter of cind(strip) adding (unbarred) or removing (barred) a cell."""
    seq = [norm(strip[0])]
    for x in cind(strip):
        nxt = _add_in_column(seq[-1], x) if x > 0 else _remove_in_column(seq[-1], -x)
        if nxt is None:
            raise ValueError("no cell to move in column %d" % abs(x))
        seq.append(nxt)
    if seq[-1] != norm(strip[2]):
        raise ValueError("standardization did not end at the outer shape")
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
        columns = range(added_cell(lam, mu)[1] + 1, 0, -1)
        move, missing = _add_in_column, "no growth column found"
    elif dsz == -1:
        columns = range(added_cell(mu, lam)[1] + 1, get(zeta, 0) + 1)
        move, missing = _remove_in_column, "no shrink column found"
    else:
        raise ValueError("shapes must differ by one cell")
    for b in columns:
        eta = move(zeta, b)
        if eta is not None:
            if not is_horizontal_strip(eta, lam):
                raise ValueError("growth step left the strip family")
            return eta
    raise ValueError(missing)


def _add_in_column(zeta, col):
    out = list(zeta) + [0]
    for i, part in enumerate(out):
        if part == col - 1 and (i == 0 or out[i - 1] >= col):
            out[i] += 1
            return norm(out)
    return None


def _remove_in_column(zeta, col):
    out = list(zeta)
    for i in range(len(out) - 1, -1, -1):
        if out[i] == col and (i == len(out) - 1 or out[i + 1] < col):
            out[i] -= 1
            return norm(out)
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
    """The standardizations of consecutive strips glued into one path."""
    full = []
    for s in chain_tail:
        block = std(s)
        if full and full[-1] != block[0]:
            raise ValueError("a strip does not start where the previous one ended")
        full.extend(block[1:] if full else block)
    return full


def _first_strip(length, outer):
    """The one-row first strip ((), (v,), outer) of a widened or narrowed
    chain, of the given length."""
    first = ((), norm(((length + get(outer, 0)) // 2,)), norm(outer))
    if strip_len(first) != length:
        raise ValueError("no first strip of length %d ends at %r" % (length, outer))
    return first


def aug(chain, r, weight=None):
    """Aug(T, r): widen the first strip by r and transport the rest.

    Computed by the growth rule on the glued standardizations; the result
    has weight (mu_1 + r, mu_2, ...).
    """
    weight = _weight(chain, weight)
    if r == 0:
        return tuple(chain)
    k = get(chain[0][2], 0)
    first = _first_strip(weight[0] + r, (k + r,))
    full = _glued_std(chain[1:])
    if not full:
        return (first,)
    out_path = fg_sequence(full, (k + r,))
    lengths = tuple(strip_len(s) for s in chain[1:])
    return _chain_from_path(first, out_path, lengths)


def aug_via_hw(chain, r, kind=SSOT, weight=None):
    """Cross-check value of aug through the crystal: widen the rightmost
    tensor factor and take the classical highest weight element."""
    factors = list(phi_c(chain, kind, _weight(chain, weight)))
    last = factors[-1]
    k = len(last.word)
    if last.word != tuple(range(1, k + 1)):
        raise ValueError("the last factor %s is not 1..%d" % (last, k))
    factors[-1] = ColumnKR(last.kind, last.cap + r, tuple(range(1, k + r + 1)))
    return hw(tuple(factors))


def deaug_last_row(chain, weight=None):
    """The unique T' with Aug(T', lam_n) = T when the shape has n rows.

    Strip i loses lam_n cells from its last relevant row.
    """
    weight = _weight(chain, weight)
    n = len(chain)
    lam = chain[-1][2]
    if len(norm(lam)) != n:
        raise ValueError("shape must have n rows")
    ln = get(lam, n - 1)
    if ln == 0:
        return tuple(chain)
    out = [_first_strip(weight[0] - ln, (get(chain[0][2], 0) - ln,))]
    for i in range(1, n):
        strip = _cut_rows(chain[i], (i, i + 1, i + 1), last=-ln)
        if not check_ohs(strip):
            raise ValueError("deaug produced an invalid strip")
        out.append(strip)
    return tuple(out)


def reshape_aug(chain, r, new_shape, weight=None):
    """The unique T' of the given shape with Aug(T', r') = Aug(T, r).

    r' = |tau| - |new_shape| where tau is the shape of Aug(T, r); the first
    strip length of T' follows from weight bookkeeping.
    """
    weight = _weight(chain, weight)
    big = aug(chain, r, weight)
    tau = big[-1][2]
    new_shape = norm(new_shape)
    first_len = weight[0] + r + size(new_shape) - size(tau)
    path = _glued_std(big[1:])
    if not path:
        raise ValueError("nothing to reshape")
    new_path = _reverse_fg(path, new_shape)
    first = _first_strip(first_len, new_path[0])
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
            a = added_cell(eta, zeta)[1] + 1
            candidates = range(a, get(lam, 0) + 1)
            move = _remove_in_column
        elif dsz == -1:
            a = added_cell(zeta, eta)[1] + 1
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
    return tuple(_cut_rows(strip, (i - 1, i, i), shift=1) for i, strip in enumerate(chain, start=1))


def _cut_rows(strip, rows, shift=0, last=0):
    """The strip with each shape cut to its count in rows, every row kept
    moved by shift and the last row kept by last more."""
    return tuple(
        norm(tuple(get(shape, j) + shift + (last if j == c - 1 else 0) for j in range(c)))
        for shape, c in zip(strip, rows)
    )


def kappa_count(kind, lam, mu, r, two_g):
    """Number of g-bounded strips of length r from inner mu to outer lam."""
    return len(_strips_between(norm(mu), norm(lam), r, kind, two_g))


def energy_of_chain(chain, kind=SSOT, weight=None):
    return energy_col(phi_c(chain, kind, weight))
