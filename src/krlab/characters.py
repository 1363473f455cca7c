"""Weyl characters as sparse Laurent polynomials, Schur expansions, twisted
branching coefficients, and the symmetric-function helpers used by the
level-restricted identities.

All weight keys are doubled integers (see roots.py).
"""

from collections import Counter
from functools import lru_cache
from itertools import product
from math import factorial, prod

from .partitions import (
    contains,
    get,
    horizontal_strips_above,
    norm,
    partitions_upto,
    size,
)
from .polynomials import Poly
from .qweight import weight_multiplicity
from .roots import apply_w, is_dominant, is_spin, weyl_group


@lru_cache(maxsize=None)
def orbit(lie_type, n, w):
    return frozenset(apply_w(g, w) for g in weyl_group(lie_type, n))


@lru_cache(maxsize=None)
def _dominant_candidates(lie_type, n, lam):
    """Dominant weights that can support the character of lam.

    Weights of the irreducible lie in the convex hull of the orbit of lam,
    so sum |nu_i| <= sum |lam_i| and max |nu_i| <= lam_1.
    """
    spin = is_spin(lam)
    half = (1,) * n if spin else (0,) * n
    total = sum(abs(x) for x in lam)
    budget = (total - sum(half)) // 2  # integer cells above the spin floor
    top = (abs(lam[0]) - half[0]) // 2
    out = []
    for kappa in partitions_upto(budget, max_len=n, max_part=max(top, 0)):
        base = tuple(2 * get(kappa, i) + half[i] for i in range(n))
        cands = [base]
        if lie_type == "D" and base[-1] > 0:
            cands.append(base[:-1] + (-base[-1],))
        for nu in cands:
            if is_dominant(lie_type, n, nu):
                out.append(nu)
    return tuple(out)


@lru_cache(maxsize=None)
def character(lie_type, n, lam):
    """Weyl character as a Poly, assembled from orbit sums of the
    weight multiplicities given by the q-analog at q = 1."""
    lam = tuple(lam)
    if not is_dominant(lie_type, n, lam):
        raise ValueError("weight is not dominant")
    out = {}
    for nu in _dominant_candidates(lie_type, n, lam):
        m = weight_multiplicity(lie_type, n, lam, nu)
        if m == 0:
            continue
        for w in orbit(lie_type, n, nu):
            out[w] = out.get(w, 0) + m
    return Poly(n, out)


@lru_cache(maxsize=None)
def schur(n, lam):
    """Type A Schur polynomial in n variables, by the branching rule."""
    lam = norm(lam)
    if len(lam) > n:
        return Poly(n, {})
    out = {}

    def rec(i, mu, acc):
        if i == n:
            if mu == lam:
                key = tuple(2 * a for a in acc)
                out[key] = out.get(key, 0) + 1
            return
        for nu in horizontal_strips_above(mu, cap=get(lam, 0)):
            if len(nu) > i + 1 or not contains(lam, nu):
                continue
            rec(i + 1, nu, acc + [size(nu) - size(mu)])

    rec(0, (), [])
    return Poly(n, out)


def schur_expand(wp):
    """Schur coefficients of a symmetric polynomial by straightening
    (Macdonald I.3): x^alpha adds sign(sigma) f_alpha to kappa, where sigma
    sorts alpha + delta into kappa + delta, and nothing if alpha + delta
    repeats an entry.  Raises unless f is symmetric with even, nonnegative
    keys: over n variables, exactly the Schur span."""
    n = wp.nvars
    out = {}
    rearrangements = 0
    for key, c in wp.c.items():
        top = tuple(sorted(key, reverse=True))
        if any(a % 2 or a < 0 for a in key) or wp.c.get(top) != c:
            raise ValueError("not a polynomial in the Schur span")
        if key == top:
            rearrangements += factorial(n) // prod(map(factorial, Counter(key).values()))
        shifted = [a // 2 + n - 1 - i for i, a in enumerate(key)]
        if len(set(shifted)) < n:
            continue
        inv = sum(shifted[i] < shifted[j] for i in range(n) for j in range(i + 1, n))
        shifted.sort(reverse=True)
        kappa = norm(tuple(v - (n - 1 - i) for i, v in enumerate(shifted)))
        out[kappa] = out.get(kappa, 0) + (-c if inv % 2 else c)
    if rearrangements != len(wp.c):
        raise ValueError("not a polynomial in the Schur span")
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def lr_coef(nu, gamma, lam):
    """Littlewood-Richardson coefficient c^{nu}_{gamma,lam}."""
    nu, gamma, lam = norm(nu), norm(gamma), norm(lam)
    if size(gamma) + size(lam) != size(nu):
        return 0
    n = max(len(nu), 1)
    prod = schur(n, gamma) * schur(n, lam)
    return schur_expand(prod).get(nu, 0)


@lru_cache(maxsize=None)
def _orbit_classes(lie_type, nu):
    """W.nu modulo S_n: the distinct signed rearrangements of nu, each
    sorted decreasingly.  Type D flips an even number of signs, unless nu
    has a 0 entry."""
    even = lie_type == "D" and 0 not in nu
    return tuple(sorted({
        tuple(sorted((s * x for s, x in zip(signs, nu)), reverse=True))
        for signs in product((1, -1), repeat=len(nu))
        if not even or prod(signs) == 1
    }))


def _rearrangements(key):
    """The distinct rearrangements of a tuple, each once."""
    counts = Counter(key)
    word = []

    def rec():
        if len(word) == len(key):
            yield tuple(word)
            return
        for x, k in counts.items():
            if k:
                counts[x] -= 1
                word.append(x)
                yield from rec()
                word.pop()
                counts[x] += 1

    return rec()


@lru_cache(maxsize=None)
def _monomial_schur(n, top):
    """Schur expansion of the monomial symmetric polynomial m_top (doubled
    keys), by schur_expand, which raises unless top is even and
    nonnegative."""
    return schur_expand(Poly(n, dict.fromkeys(_rearrangements(top), 1)))


@lru_cache(maxsize=None)
def twisted_branching(lie_type, n, lam, two_g):
    """Coefficients of (x_1...x_n)^g s^{g_n}_lam(x^{-1}) in the Schur basis.

    Keys are the partitions kappa with the character equal to
    sum_kappa d[kappa] s_kappa(x); kappa corresponds to oc(nu, g) in the
    twisted-branching-coefficient convention.  two_g holds 2g.

    No character is built: each dominant nu of multiplicity m and each
    S_n-class w of its Weyl orbit add m times the Schur expansion of the
    monomial symmetric polynomial m_top, top = sort(2g - w) decreasing.
    """
    if not is_dominant(lie_type, n, lam):
        raise ValueError("weight is not dominant")
    out = {}
    for nu in _dominant_candidates(lie_type, n, lam):
        m = weight_multiplicity(lie_type, n, lam, nu)
        if m == 0:
            continue
        for w in _orbit_classes(lie_type, nu):
            top = tuple(two_g - x for x in reversed(w))
            for kappa, c in _monomial_schur(n, top).items():
                out[kappa] = out.get(kappa, 0) + m * c
    return {k: v for k, v in out.items() if v}


def twisted_branching_d(lie_type, n, lam, nu, two_g):
    """Single twisted branching coefficient d^{g_n}_{lam,nu}."""
    if two_g < lam[0]:
        raise ValueError("need g >= lam_1")
    table = twisted_branching(lie_type, n, lam, two_g)
    kappa = tuple((two_g - nu[n - 1 - i]) // 2 for i in range(n))
    if any((two_g - x) % 2 for x in nu):
        return 0
    return table.get(norm(kappa), 0)


@lru_cache(maxsize=None)
def e_poly(n, r):
    """The two-sided elementary polynomial sum_{|S|+|S'|<=r, |S|+|S'|=r...}

    e^{(n)}_r = sum over i of e_i(x) e_{r-i}(x^{-1}) with S, S' independent
    subsets of [n].
    """
    if not 0 <= r <= n:
        raise ValueError("need 0 <= r <= n")
    from itertools import combinations

    out = {}
    for i in range(r + 1):
        for s in combinations(range(n), i):
            for sp in combinations(range(n), r - i):
                key = [0] * n
                for j in s:
                    key[j] += 2
                for j in sp:
                    key[j] -= 2
                key = tuple(key)
                out[key] = out.get(key, 0) + 1
    return Poly(n, out)


@lru_cache(maxsize=None)
def m_hyperoct(n, lam):
    """Orbit sum of x^lam under the hyperoctahedral group (types B/C)."""
    return Poly(n, {w: 1 for w in orbit("B", n, tuple(lam))})


def ps_D(n, lam):
    """s^{D_n}_{lam+} + s^{D_n}_{lam-}."""
    lam = tuple(lam)
    neg = lam[:-1] + (-lam[-1],)
    return character("D", n, lam) + character("D", n, neg)


def ns_D(n, lam):
    lam = tuple(lam)
    neg = lam[:-1] + (-lam[-1],)
    return character("D", n, lam) - character("D", n, neg)


def pss_bar_D(n, lam):
    """pss^{D_n}_lam divided by prod (x_i^{1/2} + x_i^{-1/2}).

    lam is an integer partition; the spin shift is applied internally.
    """
    lam = tuple(lam)
    sharp = tuple(2 * get(lam, i) + 1 for i in range(n))
    p = ps_D(n, sharp)
    factor = Poly.one(n)
    for i in range(n):
        key_p = [0] * n
        key_p[i] = 1
        key_m = [0] * n
        key_m[i] = -1
        factor = factor * Poly(n, {tuple(key_p): 1, tuple(key_m): 1})
    return _exact_divide(p, factor)


def _exact_divide(num, den):
    """Exact division of Polys; raises if not divisible."""
    n = num.nvars
    rem = num
    out = {}
    lead_d = max(den.c)
    cd = den.c[lead_d]
    while rem.c:
        lead_r = max(rem.c)
        q = tuple(a - b for a, b in zip(lead_r, lead_d))
        c, r = divmod(rem.c[lead_r], cd)
        if r:
            raise ValueError("not divisible")
        out[q] = out.get(q, 0) + c
        rem = rem - Poly(n, {q: c}) * den
    return Poly(n, out)


def char_coeff(lie_type, n, lam, mu):
    """[x^mu] s^{g_n}_lam as an integer: the multiplicity of mu's dominant
    representative, the |mu_i| in decreasing order, with the last entry
    negated in type D when mu has an odd number of negative entries and
    no 0."""
    lam = tuple(lam)
    if not is_dominant(lie_type, n, lam):
        raise ValueError("weight is not dominant")
    nu = sorted((abs(x) for x in mu), reverse=True)
    if lie_type == "D" and nu and nu[-1] and sum(x < 0 for x in mu) % 2:
        nu[-1] = -nu[-1]
    nu = tuple(nu)
    if nu not in _dominant_candidates(lie_type, n, lam):
        return 0
    return weight_multiplicity(lie_type, n, lam, nu)
