"""The q-analog of Kostant's partition function and Lusztig q-weight
multiplicities, straight from the alternating-sum definition.

These are the definitional oracles everything else is checked against.
"""

from functools import lru_cache

from .polynomials import Poly

# weyl_group and apply_w are unused here since weyl_terms walks the group
# itself; bench/tracing.py still wraps both names in this module.
from .roots import (  # noqa: F401
    apply_w,
    is_long_root_B,
    is_spin,
    positive_roots,
    rho,
    weyl_group,
)

# exponent tagging schemes for the positive-root q-powers
L_ONE = "one"
L_LEVEL_A = "levelA"
L_QT_B = "qtB"


def _exp_vec(tag, root):
    if tag == L_ONE:
        return (1,)
    if tag == L_LEVEL_A:
        # weight 1 exactly on the type-A roots e_i - e_j
        neg = sum(1 for x in root if x < 0)
        pos = sum(1 for x in root if x > 0)
        return (1,) if (neg == 1 and pos == 1) else (0,)
    if tag == L_QT_B:
        return (1, 0) if is_long_root_B(root) else (0, 1)
    raise ValueError(tag)


def simple_coords(lie_type, n, beta):
    """Coordinates of a doubled vector in the simple-root basis, or None."""
    tot = sum(beta)
    ps = []
    acc = 0
    for x in beta:
        acc += x
        ps.append(acc)
    if lie_type == "A":
        if tot != 0:
            return None
        cs = ps[: n - 1]
        if any(c % 2 for c in cs):
            return None
        return tuple(c // 2 for c in cs)
    if lie_type == "B":
        cs = ps[: n - 1] + [tot]
        if any(c % 2 for c in cs):
            return None
        return tuple(c // 2 for c in cs)
    if lie_type == "C":
        cs = ps[: n - 1]
        if any(c % 2 for c in cs) or tot % 4:
            return None
        return tuple(c // 2 for c in cs) + (tot // 4,)
    if lie_type == "D":
        cs = ps[: n - 2]
        if any(c % 2 for c in cs):
            return None
        a = ps[n - 2] - (tot - ps[n - 2]) if n >= 2 else 0
        b = tot
        if a % 4 or b % 4:
            return None
        return tuple(c // 2 for c in cs) + (a // 4, b // 4)
    raise ValueError(lie_type)


@lru_cache(maxsize=None)
def _context(lie_type, n, tag):
    """Root data in simple coordinates, non-simple roots first."""
    nvars = 2 if tag == L_QT_B else 1
    roots = []
    for r in positive_roots(lie_type, n):
        c = simple_coords(lie_type, n, r)
        roots.append((c, _exp_vec(tag, r)))
    simple = {}
    others = []
    for c, ev in roots:
        if sum(c) == 1:
            simple[c.index(1)] = ev
        else:
            others.append((c, ev))
    others.sort(key=lambda t: -sum(t[0]))
    simple_evs = tuple(simple[i] for i in range(len(simple)))
    return tuple(others), simple_evs, nvars


_memo = {}


def q_kostant(lie_type, n, beta, tag=L_ONE):
    """[e^beta] prod 1/(1 - q^{L(a)} e^a) over the positive roots.

    Dynamic programming over root multiplicities in simple-root coordinates;
    positivity of the coordinates makes the recursion finite.
    """
    others, simple_evs, nvars = _context(lie_type, n, tag)
    v = simple_coords(lie_type, n, tuple(beta))
    if v is None or any(x < 0 for x in v):
        return Poly.zero(nvars)
    return _count(lie_type, n, tag, others, simple_evs, nvars, 0, v)


def _count(lie_type, n, tag, others, simple_evs, nvars, idx, v):
    key = (lie_type, n, tag, idx, v)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    if idx == len(others):
        e = [0] * nvars
        for m, ev in zip(v, simple_evs):
            for i in range(nvars):
                e[i] += m * ev[i]
        out = Poly.mono(tuple(e))
    else:
        c, ev = others[idx]
        out = Poly.zero(nvars)
        cur = v
        m = 0
        while True:
            if m:
                cur = tuple(a - b for a, b in zip(cur, c))
                if any(x < 0 for x in cur):
                    break
            sub = _count(lie_type, n, tag, others, simple_evs, nvars, idx + 1, cur)
            if sub:
                out = out + sub.shift(tuple(m * x for x in ev))
            m += 1
        out = out
    _memo[key] = out
    return out


def _check_pair(lie_type, n, lam, mu):
    if len(lam) != n or len(mu) != n:
        raise ValueError("weights must have length n")
    if is_spin(lam) != is_spin(mu):
        raise ValueError("mixed spin parity")


def weyl_terms(lie_type, n, lam, mu, group):
    """(beta, det) with beta = w(lam+rho) - (mu+rho), for the w in the Weyl
    group of type `group` whose beta can be live in lie_type.

    Signed permutations are walked depth-first, filling beta one coordinate
    at a time.  Every prefix sum of beta is a nonnegative combination of its
    simple-root coordinates in lie_type (twice c_k for k < n, except
    2(c_{n-1} + c_n) at k = n-1 in type D; the full sum is 0, 2c_n or 4c_n),
    so a negative one makes every completion a zero q_kostant term and its
    branch is cut.  det is kept from the inversions and sign flips so far;
    type D forces its last sign so that the number of flips is even.
    """
    r = rho(lie_type, n)
    lam_rho = tuple(l + x for l, x in zip(lam, r))
    target = tuple(m + x for m, x in zip(mu, r))
    signs = (1,) if group == "A" else (1, -1)
    beta = [0] * n
    out = []

    def walk(i, free, acc, par, sgn):
        if i == n:
            out.append((tuple(beta), par * sgn))
            return
        last_d = group == "D" and i == n - 1
        for k, j in enumerate(free):
            # the k unused sources below j each make one inversion
            rest = free[:k] + free[k + 1:]
            p = -par if k % 2 else par
            for s in (sgn,) if last_d else signs:
                b = s * lam_rho[j] - target[i]
                if acc + b >= 0:
                    beta[i] = b
                    walk(i + 1, rest, acc + b, p, sgn * s)

    walk(0, tuple(range(n)), 0, 1, 1)
    return out


def _alternating_sum(lie_type, n, lam, mu, tag, group):
    _check_pair(lie_type, n, lam, mu)
    out = Poly.zero(2 if tag == L_QT_B else 1)
    for beta, det in weyl_terms(lie_type, n, lam, mu, group):
        term = q_kostant(lie_type, n, beta, tag)
        if term:
            out = out + (term if det == 1 else -term)
    return out


@lru_cache(maxsize=None)
def kl_poly(lie_type, n, lam, mu, tag=L_ONE):
    """KL^{g_n,L}_{lam,mu}(q) = sum_w (-1)^w P_q(w(lam+rho) - (mu+rho))."""
    return _alternating_sum(lie_type, n, lam, mu, tag, lie_type)


def kl_qt_B(n, lam, mu):
    """Type B q,t-weight multiplicity: q on long roots, t on short roots."""
    return kl_poly("B", n, lam, mu, tag=L_QT_B)


def kl_level_restricted(lie_type, n, lam, mu):
    """KL with L = L_A supported on the roots e_i - e_j."""
    return kl_poly(lie_type, n, lam, mu, tag=L_LEVEL_A)


def stable_kl(lie_type, n, lam, mu, tag=L_ONE):
    """Stable limit: the alternating sum runs over the symmetric group only."""
    return _alternating_sum(lie_type, n, lam, mu, tag, "A")


@lru_cache(maxsize=None)
def kl_A(n, lam, mu):
    """Type A Lusztig q-weight multiplicity (the Kostka-Foulkes oracle)."""
    return kl_poly("A", n, tuple(lam), tuple(mu))


def weight_multiplicity(lie_type, n, lam, mu):
    return kl_poly(lie_type, n, lam, mu).subs_all_one()
