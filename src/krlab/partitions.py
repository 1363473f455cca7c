"""Integer partitions and the box-complement operations.

Partitions are plain tuples of nonnegative integers, weakly decreasing.
Trailing zeros are allowed; `norm` strips them for comparisons.
"""

from functools import lru_cache
from operator import gt


def norm(lam):
    """Strip trailing zeros."""
    lam = tuple(lam)
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    return lam


def is_partition(lam):
    lam = tuple(lam)
    return not any(map(gt, lam[1:], lam)) and (not lam or lam[-1] >= 0)


def size(lam):
    return sum(lam)


def get(lam, i):
    """Part i (0-based), zero past the end."""
    return lam[i] if 0 <= i < len(lam) else 0


def conjugate(lam):
    lam = norm(lam)
    if not lam:
        return ()
    return tuple(sum(1 for a in lam if a > j) for j in range(lam[0]))


def contains(lam, mu):
    """mu subset of lam as Young diagrams."""
    return all(get(lam, i) >= get(mu, i) for i in range(max(len(lam), len(mu))))


def is_horizontal_strip(lam, mu):
    """lam/mu is a horizontal strip (at most one cell per column)."""
    if not contains(lam, mu):
        return False
    return all(get(lam, i + 1) <= get(mu, i) for i in range(len(lam)))


def added_cell(big, small):
    """The cell (row, column), both 0-based, that big has and small lacks,
    for shapes one cell apart: the first row where they differ."""
    for r, part in enumerate(big):
        if part != get(small, r):
            return r, part - 1
    raise ValueError("equal shapes")


def dominates(lam, mu):
    """lam >= mu in dominance order (equal sizes assumed)."""
    s = t = 0
    for i in range(max(len(lam), len(mu))):
        s += get(lam, i)
        t += get(mu, i)
        if s < t:
            return False
    return True


@lru_cache(maxsize=None)
def partitions(n, max_len=None, max_part=None):
    """All partitions of n, optionally bounded in length and part size."""
    if max_len is None:
        max_len = n
    if max_part is None:
        max_part = n
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        if max_len < 1:
            break
        for rest in partitions(n - first, max_len - 1, first):
            out.append((first,) + rest)
    return tuple(out)


def partitions_upto(n, max_len=None, max_part=None):
    """All partitions of size at most n."""
    out = []
    for k in range(n + 1):
        out.extend(partitions(k, max_len, max_part))
    return out


def row_box(lows, highs, lo, hi):
    """The vectors v with lows[i] <= v[i] <= highs[i] and lo <= |v| - |lows|
    <= hi, in lexicographic order, a zero last entry dropped so that v is a
    partition (every low but the last is a positive part).

    Prefixes grow one row at a time, each row's range cut by the cells the
    prefix has added and the room of the rows after it, so every prefix
    kept extends to at least one vector: the work is linear in the output.
    """
    room = sum(highs) - sum(lows)  # cells the rows not yet placed can add
    level = [((), 0)]
    for l, h in zip(lows[:-1], highs):
        room -= h - l
        level = [
            (v + (x,), added + x - l)
            for v, added in level
            for x in range(max(l, l + lo - added - room), min(h, l + hi - added) + 1)
        ]
    l, h = lows[-1], highs[-1]  # the last row: no rows after it
    return [
        v + (x,) if x else v
        for v, added in level
        for x in range(max(l, l + lo - added), min(h, l + hi - added) + 1)
    ]


def horizontal_strips_above(mu, cap, cells=None):
    """All partitions nu with nu/mu a horizontal strip, nu_1 <= cap, and,
    with cells = (lo, hi), lo <= |nu| - |mu| <= hi.

    The cap keeps the enumeration finite.  nu/mu is a horizontal strip
    exactly when mu_i <= nu_i <= mu_{i-1} row by row, so only the cell
    window ties one row's range to the others; the list is in
    lexicographic order.
    """
    mu = norm(mu)
    lo, hi = cells if cells is not None else (0, cap)  # a strip adds <= cap cells
    return row_box(mu + (0,), (cap,) + mu, lo, hi)


def horizontal_strips_below(nu, cells=None):
    """All partitions lam with nu/lam a horizontal strip and, with
    cells = (lo, hi), lo <= |nu| - |lam| <= hi, in lexicographic order.

    nu_{i+1} <= lam_i <= nu_i row by row, as in horizontal_strips_above.
    """
    nu = norm(nu)
    lo, hi = cells if cells is not None else (0, size(nu))
    if not nu:
        return [()] if lo <= 0 <= hi else []
    return row_box(nu[1:] + (0,), nu, nu[0] - hi, nu[0] - lo)


def pad(lam, n):
    """lam as a tuple of exactly n parts, zeros appended; a nonzero part
    past the n-th raises ValueError, so that no weight is cut short."""
    lam = tuple(lam)
    if any(lam[n:]):
        raise ValueError("%r has a nonzero part past rank %d" % (lam, n))
    return (lam + (0,) * n)[:n]


def check_bound(lam, g):
    """ValueError when lam_1 > g, whose complement oc(lam, g) has a
    negative part."""
    if max(lam, default=0) > g:
        raise ValueError("lam_1 = %s exceeds g = %s" % (max(lam), g))


def oc(lam, g, n=None):
    """Orthogonal complement (g - lam_n, ..., g - lam_1) of lam padded to n
    parts; check_bound refuses lam_1 > g."""
    check_bound(lam, g)
    return tuple([g - x for x in reversed(pad(lam, len(lam) if n is None else n))])


def oc_bar(lam, g, n=None):
    """Reversed complement (g - lam_1, ..., g - lam_n) of lam padded to n parts."""
    return tuple([g - x for x in pad(lam, len(lam) if n is None else n)])


def flip(lam, two_g, n=None):
    """(2g - lam_1, lam_2, ..., lam_n); two_g holds 2g so half-integer g stays exact."""
    if n is None:
        n = len(lam)
    v = [get(lam, i) for i in range(n)]
    if not v:
        return ()
    v[0] = two_g - v[0]
    return tuple(v)


def nn(lam):
    """n(lam) = sum (i-1) lam_i."""
    return sum(i * x for i, x in enumerate(lam))
