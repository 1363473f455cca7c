"""Integer partitions and the box-complement operations.

Partitions are plain tuples of nonnegative integers, weakly decreasing.
Trailing zeros are allowed; `norm` strips them for comparisons.
"""

from functools import lru_cache


def norm(lam):
    """Strip trailing zeros."""
    lam = tuple(lam)
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    return lam


def is_partition(lam):
    lam = tuple(lam)
    return all(a >= b for a, b in zip(lam, lam[1:])) and all(a >= 0 for a in lam)


def size(lam):
    return sum(lam)


def length(lam):
    return len(norm(lam))


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


def horizontal_strips_above(mu, cap=None, cells=None):
    """All partitions nu with nu/mu a horizontal strip, nu_1 <= cap, and,
    with cells = (lo, hi), lo <= |nu| - |mu| <= hi.

    Enumeration is finite only with a cap; rows indexed so that
    nu_{i+1} <= mu_i keeps the strip condition.  The rows after row i can
    add at most mu_i cells, so each row's range is cut to the parts that
    can still land in the window; the order is that of the full list.
    """
    if cap is None:
        raise ValueError("cap required")
    mu = norm(mu)
    rows = len(mu) + 1
    lo, hi = cells if cells is not None else (0, cap)  # a strip adds <= cap cells
    out = []

    def rec(i, acc, added):
        if i == rows:
            out.append(norm(tuple(acc)))
            return
        m = get(mu, i)
        top = cap if i == 0 else min(get(mu, i - 1), acc[i - 1])
        for v in range(max(m, lo - added), min(top, m + hi - added) + 1):
            acc.append(v)
            rec(i + 1, acc, added + v - m)
            acc.pop()

    rec(0, [], 0)
    return out


def horizontal_strips_below(nu, cells=None):
    """All partitions lam with nu/lam a horizontal strip and, with
    cells = (lo, hi), lo <= |nu| - |lam| <= hi.

    The rows after row i can remove at most nu_{i+1} cells, so each row's
    range is cut as in horizontal_strips_above.
    """
    nu = norm(nu)
    lo, hi = cells if cells is not None else (0, size(nu))
    if not nu:
        return [()] if lo <= 0 else []
    out = []

    def rec(i, acc, removed):
        if i == len(nu):
            out.append(norm(tuple(acc)))
            return
        p, below = nu[i], get(nu, i + 1)
        top = min(p, acc[i - 1]) if i > 0 else p
        for v in range(max(below, p - hi + removed), min(top, p + below + removed - lo) + 1):
            acc.append(v)
            rec(i + 1, acc, removed + p - v)
            acc.pop()

    rec(0, [], 0)
    return out


def oc(lam, g, n=None):
    """Orthogonal complement (g - lam_n, ..., g - lam_1) of a length-n vector."""
    if n is None:
        n = len(lam)
    v = tuple(get(lam, i) for i in range(n))
    return tuple(g - v[n - 1 - i] for i in range(n))


def oc_bar(lam, g, n=None):
    """Reversed complement (g - lam_1, ..., g - lam_n)."""
    if n is None:
        n = len(lam)
    return tuple(g - get(lam, i) for i in range(n))


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
    return sum(i * get(lam, i) for i in range(len(lam)))
