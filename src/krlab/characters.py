"""Weyl characters as sparse Laurent polynomials, Schur expansions, twisted
branching coefficients, and the symmetric-function helpers used by the
level-restricted identities.

All weight keys are doubled integers (see roots.py).
"""

from collections import Counter
from functools import lru_cache
from itertools import combinations, product
from math import factorial, prod
from operator import add

from .charge import ssyt_chains
from .partitions import get, norm, partitions_upto, size
from .polynomials import Poly
from .qweight import check_pair
from .roots import inner, is_dominant, is_spin, positive_roots, rho

# unused here since schur walks charge.ssyt_chains and orbit builds on
# S_n-classes; bench/tracing.py still wraps these names in this module
from .partitions import horizontal_strips_above  # noqa: F401
from .roots import apply_w, weyl_group  # noqa: F401

# unused here since multiplicities come from Freudenthal's formula
from .qweight import weight_multiplicity  # noqa: F401  bench/tracing.py wraps this name here


@lru_cache(maxsize=None)
def orbit(lie_type, n, w):
    """The Weyl orbit of w: the distinct rearrangements of each of its
    S_n-classes."""
    return frozenset(v for top in _orbit_classes(lie_type, w) for v in _rearrangements(top))


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


def _dominant_rep(lie_type, w):
    """The dominant weight of w's Weyl orbit: w sorted decreasingly in type
    A; the |w_i| sorted decreasingly in types B and C, and in type D with
    the last entry negated when w has an odd number of negative entries
    and no 0."""
    if lie_type == "A":
        return tuple(sorted(w, reverse=True))
    out = sorted(map(abs, w), reverse=True)
    if lie_type == "D" and out[-1] and sum(x < 0 for x in w) % 2:
        out[-1] = -out[-1]
    return tuple(out)


@lru_cache(maxsize=None)
def _multiplicities(lie_type, n, lam):
    """{nu: m} over the dominant weights nu of lam's character, m != 0, in
    _dominant_candidates' order, by Freudenthal's formula (Humphreys §22.3):

        ((lam+rho, lam+rho) - (nu+rho, nu+rho)) m(nu)
            = 2 sum_{a > 0} sum_{k >= 1} m(nu + k a) (nu + k a, a).

    In doubled coordinates both sides scale by 4.  The dominant
    representative of nu + k a, k >= 1, has a larger (. + rho)-norm than
    nu, so the candidates are taken in decreasing norm, and m(nu + k a) is
    read at that representative.  The candidates are the lattice points of
    a convex set, so each a-string leaves them once: it stops at the first
    representative that is not one.  A candidate whose norm is not below
    lam's is not a weight, m = 0; an inexact division raises.  Type A
    weights need nonnegative entries, the only candidates listed."""
    if not is_dominant(lie_type, n, lam):
        raise ValueError("weight is not dominant")
    if lie_type == "A" and lam[-1] < 0:
        raise ValueError("type A multiplicities need nonnegative entries")
    cands = _dominant_candidates(lie_type, n, lam)
    roots = positive_roots(lie_type, n)
    r = rho(lie_type, n)
    norms = {}
    for nu in cands:
        shifted = tuple(map(add, nu, r))
        norms[nu] = inner(shifted, shifted)
    top = norms[lam]
    m = {}
    for nu in sorted(cands, key=norms.__getitem__, reverse=True):
        gap = top - norms[nu]
        if nu == lam or gap <= 0:
            m[nu] = int(nu == lam)
            continue
        total = 0
        for a in roots:
            v = tuple(map(add, nu, a))
            # norms is keyed by exactly the candidates
            while (rep := _dominant_rep(lie_type, v)) in norms:
                total += m[rep] * inner(v, a)
                v = tuple(map(add, v, a))
        mult, rem = divmod(2 * total, gap)
        if rem:
            raise ArithmeticError("inexact Freudenthal division at %r" % (nu,))
        m[nu] = mult
    return {nu: m[nu] for nu in cands if m[nu]}


@lru_cache(maxsize=None)
def character(lie_type, n, lam):
    """Weyl character as a Poly: each dominant weight's multiplicity on its
    orbit.  Distinct dominant weights have disjoint orbits."""
    mults = _multiplicities(lie_type, n, tuple(lam))
    return Poly(n, {w: m for nu, m in mults.items() for w in orbit(lie_type, n, nu)})


@lru_cache(maxsize=None)
def schur(n, lam):
    """Type A Schur polynomial in n variables: x^a for each chain of n
    horizontal strips up to lam, a_i the size of strip i."""
    lam = norm(lam)
    out = {}
    for chain in ssyt_chains(lam, ((0, get(lam, 0)),) * n):
        key = tuple(2 * (size(b) - size(a)) for a, b in zip(chain, chain[1:]))
        out[key] = out.get(key, 0) + 1
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
    sorted decreasingly.  Type A flips no sign, and type D an even number,
    which reaches every sign pattern when nu has a 0 entry."""
    flips = product((1,) if lie_type == "A" else (1, -1), repeat=len(nu))
    return tuple(sorted({
        tuple(sorted((s * x for s, x in zip(signs, nu)), reverse=True))
        for signs in flips
        if lie_type != "D" or prod(signs) == 1
    }))


def _rearrangements(key):
    """The distinct rearrangements of a tuple, each once."""
    return _rearrange(len(key), Counter(key), [])


def _rearrange(length, counts, word):
    """The words of the given length that extend word by the letters left
    in counts, each once."""
    if len(word) == length:
        yield tuple(word)
        return
    for x, k in counts.items():
        if k:
            counts[x] -= 1
            word.append(x)
            yield from _rearrange(length, counts, word)
            word.pop()
            counts[x] += 1


@lru_cache(maxsize=None)
def _monomial_schur(n, top):
    """Schur expansion of the monomial symmetric polynomial m_top (doubled
    keys) by straightening, as schur_expand does, without building m_top:
    only the distinct rearrangements alpha of top whose alpha/2 + delta
    has distinct entries are listed, each with the sign of the inversions
    made as it is built.  Raises unless top is even and nonnegative."""
    if any(a % 2 or a < 0 for a in top):
        raise ValueError("not a polynomial in the Schur span")
    out = {}
    _straighten(n, Counter(a // 2 for a in top), [], 1, out)
    return {k: v for k, v in out.items() if v}


def _straighten(n, counts, shifted, sign, out):
    """Add to out sign(sigma) at kappa for each completion of shifted, the
    first entries of alpha/2 + delta, by the halved letters left in counts
    that keeps the entries distinct; sigma sorts the completion into
    kappa + delta, and sign is that of the inversions in shifted."""
    i = len(shifted)
    if i == n:
        ordered = sorted(shifted, reverse=True)
        kappa = norm(tuple(v - (n - 1 - j) for j, v in enumerate(ordered)))
        out[kappa] = out.get(kappa, 0) + sign
        return
    for a, k in counts.items():
        s = a + n - 1 - i
        if k and s not in shifted:
            # each smaller entry before s makes one inversion
            flips = sum(x < s for x in shifted)
            counts[a] -= 1
            shifted.append(s)
            _straighten(n, counts, shifted, -sign if flips % 2 else sign, out)
            shifted.pop()
            counts[a] += 1


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
    out = {}
    for nu, m in _multiplicities(lie_type, n, lam).items():
        for w in _orbit_classes(lie_type, nu):
            top = tuple(two_g - x for x in reversed(w))
            for kappa, c in _monomial_schur(n, top).items():
                out[kappa] = out.get(kappa, 0) + m * c
    return {k: v for k, v in out.items() if v}


def twisted_branching_d(lie_type, n, lam, nu, two_g):
    """Single twisted branching coefficient d^{g_n}_{lam,nu}."""
    if len(lam) != n or len(nu) != n:
        raise ValueError("weights must have length n")
    if two_g < lam[0]:
        raise ValueError("need g >= lam_1")
    table = twisted_branching(lie_type, n, lam, two_g)
    kappa = tuple((two_g - nu[n - 1 - i]) // 2 for i in range(n))
    if any((two_g - x) % 2 for x in nu):
        return 0
    return table.get(norm(kappa), 0)


@lru_cache(maxsize=None)
def e_poly(n, r):
    """The two-sided elementary polynomial e^{(n)}_r in n variables.

    e^{(n)}_r = sum over i of e_i(x) e_{r-i}(x^{-1}) with S, S' independent
    subsets of [n].
    """
    if not 0 <= r <= n:
        raise ValueError("need 0 <= r <= n")
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
    factor = Poly(n, dict.fromkeys(product((1, -1), repeat=n), 1))
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
    representative in the table of _multiplicities, lam and mu checked as
    the oracle checks them."""
    check_pair(lie_type, n, lam, mu)
    return _multiplicities(lie_type, n, tuple(lam)).get(_dominant_rep(lie_type, mu), 0)
