"""Root systems and Weyl groups for classical types A, B, C, D.

Weights are tuples of doubled integers so spin weights stay exact: the
vector (3/2, 1/2) is stored as (3, 1).  Roots are stored doubled too.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

TYPES = ("A", "B", "C", "D")


def dbl(vec):
    """Double a vector of ints / Fractions / floats-that-are-halves."""
    out = []
    for x in vec:
        f = Fraction(x) * 2
        if f.denominator != 1:
            raise ValueError("weight entries must be half-integers")
        out.append(int(f))
    return tuple(out)


def parse_weight(text, n=None):
    """Parse '1,1,0' or '3/2,1/2' into a doubled weight tuple."""
    if text.strip() == "":
        parts = []
    else:
        parts = [Fraction(p) for p in text.split(",")]
    if n is not None:
        while len(parts) < n:
            parts.append(Fraction(0))
        if len(parts) != n:
            raise ValueError("expected %d coordinates" % n)
    return dbl(parts)


def weight_str(w):
    return ",".join(str(Fraction(x, 2)) for x in w)


@lru_cache(maxsize=None)
def positive_roots(lie_type, n):
    """Positive roots as doubled vectors.

    A: e_i - e_j (i<j).  B: e_i +- e_j and e_i.  C: e_i +- e_j and 2e_i.
    D: e_i +- e_j, from rank 2: D_1 has no roots and no simple-root basis.
    """
    if lie_type not in TYPES:
        raise ValueError("unsupported type %r" % (lie_type,))
    if n < 1:
        raise ValueError("rank must be positive")
    if lie_type == "D" and n < 2:
        raise ValueError("type D needs rank >= 2")
    roots = []

    def e(i, c=2):
        v = [0] * n
        v[i] = c
        return v

    for i in range(n):
        for j in range(i + 1, n):
            v = e(i)
            v[j] = -2
            roots.append(tuple(v))
            if lie_type != "A":
                v = e(i)
                v[j] = 2
                roots.append(tuple(v))
    if lie_type == "B":
        for i in range(n):
            roots.append(tuple(e(i)))
    if lie_type == "C":
        for i in range(n):
            roots.append(tuple(e(i, 4)))
    return tuple(roots)


def is_long_root_B(root):
    """In type B the roots e_i +- e_j are long, e_i short."""
    return sum(1 for x in root if x) == 2


@lru_cache(maxsize=None)
def rho(lie_type, n):
    r = positive_roots(lie_type, n)
    acc = [0] * n
    for a in r:
        for i, x in enumerate(a):
            acc[i] += x
    if any(x % 2 for x in acc):
        raise ValueError("the positive roots of %s%d do not sum to an even vector" % (lie_type, n))
    return tuple(x // 2 for x in acc)


@lru_cache(maxsize=None)
def weyl_group(lie_type, n):
    """All (perm, signs, det) triples; perm maps position i to source perm[i].

    The action is w(v)_i = signs[i] * v[perm[i]].  det = (-1)^{l(w)}.
    """
    out = []
    perms = list(permutations(range(n)))
    if lie_type == "A":
        signss = [(1,) * n]
    elif lie_type in ("B", "C"):
        signss = list(product((1, -1), repeat=n))
    else:
        signss = [s for s in product((1, -1), repeat=n) if s.count(-1) % 2 == 0]
    for p in perms:
        par = perm_parity(p)
        for s in signss:
            det = par * (1 if s.count(-1) % 2 == 0 else -1)
            out.append((p, s, det))
    return tuple(out)


def perm_parity(p):
    p = list(p)
    par = 1
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], p[i]
            par = -par
    return par


def apply_w(w, vec):
    p, s, _ = w
    return tuple(s[i] * vec[p[i]] for i in range(len(vec)))


def reflection_length(lie_type, n, w):
    """Number of positive roots sent negative; brute-force check value."""
    count = 0
    for a in positive_roots(lie_type, n):
        b = apply_w(w, a)
        # negative iff first nonzero coordinate is negative
        for x in b:
            if x:
                if x < 0:
                    count += 1
                break
    return count


def is_spin(w):
    return any(x % 2 for x in w)


def is_dominant(lie_type, n, w):
    """Membership in P^+ per the classical descriptions.

    B: partitions and spin partitions.  C: partitions.  D: weakly decreasing
    with |last| dominated, last coordinate of either sign.  A: weakly
    decreasing integer vectors.  One pass over w checks that its entries
    share one parity (all odd for a spin weight) and weakly decrease; in
    type D that leaves w_{n-1} >= -w_n to check.  A weight of another
    length, or with mixed parities, is refused before the type is read.
    """
    if len(w) != n:
        return False
    if lie_type not in TYPES:
        if len({x % 2 for x in w}) > 1:
            return False
        raise ValueError(lie_type)
    prev = w[0] if n else 0
    spin = prev % 2
    for x in w:
        if x % 2 != spin or x > prev:
            return False
        prev = x
    if lie_type == "A":
        return not spin
    last = w[-1]
    if lie_type == "D":
        return n == 1 or w[-2] >= -last
    return last >= 0 and not (spin and lie_type == "C")


def inner(u, v):
    """Inner product of doubled vectors, times 4 (exact integer)."""
    return sum(a * b for a, b in zip(u, v))


def weyl_dimension(lie_type, n, lam):
    """Product formula dimension of the irreducible with highest weight lam."""
    lam_rho = tuple(a + b for a, b in zip(lam, rho(lie_type, n)))
    num = den = 1
    for a in positive_roots(lie_type, n):
        num *= inner(lam_rho, a)
        den *= inner(rho(lie_type, n), a)
    if num % den:
        raise ValueError("%r is not an integral weight of %s%d" % (lam, lie_type, n))
    return num // den
