"""The q-analog of Kostant's partition function and Lusztig q-weight
multiplicities, straight from the alternating-sum definition.

These are the definitional oracles everything else is checked against.

P_q(beta) = [e^beta] prod 1/(1 - q^{L(a)} e^a) over the positive roots a is
the coin-change recurrence in simple-root coordinates v.  With a_1, a_2, ...
the non-simple roots, tallest first, and P_k(v) the count that uses only
a_k, a_{k+1}, ... and the simple roots,

    P_k(v) = P_{k+1}(v) + q^{L(a_k)} P_k(v - a_k),

with P_k(v - a_k) = 0 once v - a_k has a negative coordinate.  Past the
last non-simple root v is a sum of simple roots in exactly one way, so the
count closes in one monomial.  States are dense integer coefficient tuples
in `_memo`: one entry per (lie_type, n, tag) holds one dict per root index
k, mapping v to P_k(v), and one table of the distinct tuples, so that equal
states share one tuple.  `q_kostant` returns a `Poly`.
"""

from functools import lru_cache
from operator import add, sub

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
        a = ps[n - 2] - (tot - ps[n - 2])
        b = tot
        if a % 4 or b % 4:
            return None
        return tuple(c // 2 for c in cs) + (a // 4, b // 4)
    raise ValueError(lie_type)


# Dense coefficients: a q-polynomial is the tuple of its coefficients by
# q-degree, and a (q,t)-polynomial the tuple, by q-degree, of such tuples in
# t.  No coefficient is ever negative, so a nonzero tuple ends in a nonzero
# entry and () is zero.


def _add(p, r):
    if len(p) < len(r):
        p, r = r, p
    return tuple(map(add, p, r)) + p[len(r):]


def _add_qt(p, r):
    if len(p) < len(r):
        p, r = r, p
    return tuple(map(_add, p, r)) + p[len(r):]


def _shift(p, ev):
    """p times q^ev[0] (times t^ev[1] for a (q,t)-polynomial)."""
    if len(ev) == 2:
        if ev[1]:
            p = tuple((0,) * ev[1] + x if x else x for x in p)
        return ((),) * ev[0] + p
    return (0,) * ev[0] + p


def _mono(ev):
    if len(ev) == 2:
        return ((),) * ev[0] + ((0,) * ev[1] + (1,),)
    return (0,) * ev[0] + (1,)


def _to_poly(p, nvars):
    out = Poly(nvars)
    if nvars == 2:
        out.c = {(i, j): x for i, xs in enumerate(p) for j, x in enumerate(xs) if x}
    else:
        out.c = {(i,): x for i, x in enumerate(p) if x}
    return out


@lru_cache(maxsize=None)
def _context(lie_type, n, tag):
    """The non-simple roots in simple coordinates, tallest first, with
    their exponent vectors; the simple roots' exponent vectors in order; the
    variable count and the dense add for the tag."""
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
    nvars = 2 if tag == L_QT_B else 1
    return tuple(others), simple_evs, nvars, _add_qt if nvars == 2 else _add


class _Memo(dict):
    """(lie_type, n, tag) -> (tables, values): tables[idx] maps v to
    P_idx(v), see _count, and values maps each distinct coefficient tuple to
    itself.  len() counts the states of every table."""

    def __len__(self):
        return sum(len(t) for tables, _ in self.values() for t in tables)


# emptied by clear_caches
_memo = _Memo()


def q_kostant(lie_type, n, beta, tag=L_ONE):
    """[e^beta] prod 1/(1 - q^{L(a)} e^a) over the positive roots."""
    if len(beta) != n:
        raise ValueError("beta has length %d, not n = %d" % (len(beta), n))
    roots = _context(lie_type, n, tag)
    nvars = roots[2]
    v = simple_coords(lie_type, n, tuple(beta))
    if v is None or any(x < 0 for x in v):
        return Poly.zero(nvars)
    key = (lie_type, n, tag)
    memo = _memo.get(key)
    if memo is None:
        memo = _memo[key] = ([{} for _ in range(len(roots[0]) + 1)], {})
    tables, values = memo
    return _to_poly(_count(roots, tables, values, 0, v), nvars)


def _count(roots, tables, values, idx, v):
    """P_idx(v) for v >= 0 as dense coefficients, by the recurrence of the
    module docstring.  The a-string below v is walked down to its first
    stored state, then filled upwards, so recursion only deepens with idx.
    Each stored tuple is first looked up in values, so equal states share
    one object."""
    table = tables[idx]
    hit = table.get(v)
    if hit is not None:
        return hit
    others, simple_evs, nvars, plus = roots
    if idx == len(others):
        e = [sum(m * ev[i] for m, ev in zip(v, simple_evs)) for i in range(nvars)]
        out = _mono(e)
        out = table[v] = values.setdefault(out, out)
        return out
    c, ev = others[idx]
    string = [v]
    acc = None
    while True:
        w = tuple(map(sub, string[-1], c))
        if min(w) < 0:
            break
        acc = table.get(w)
        if acc is not None:
            break
        string.append(w)
    for w in reversed(string):
        below = _count(roots, tables, values, idx + 1, w)
        acc = below if acc is None else plus(below, _shift(acc, ev))
        acc = table[w] = values.setdefault(acc, acc)
    return acc


def check_pair(lie_type, n, lam, mu):
    """Raise ValueError unless lam and mu have length n and one spin parity."""
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
    out = []
    _signed_walk(0, tuple(range(n)), 0, 1, 1, [0] * n, lam_rho, target, signs, group == "D", out)
    return out


def _signed_walk(i, free, acc, par, sgn, beta, lam_rho, target, signs, type_d, out):
    """Append to out the (beta, det) of weyl_terms whose first i coordinates
    are beta[:i], with the sources in free unused; a module function with
    its state in arguments, so that nothing outlives the walk."""
    if not free:
        out.append((tuple(beta), par * sgn))
        return
    last_d = type_d and len(free) == 1
    for k, j in enumerate(free):
        # the k unused sources below j each make one inversion
        rest = free[:k] + free[k + 1:]
        p = -par if k % 2 else par
        for s in (sgn,) if last_d else signs:
            b = s * lam_rho[j] - target[i]
            if acc + b >= 0:
                beta[i] = b
                _signed_walk(
                    i + 1, rest, acc + b, p, sgn * s, beta, lam_rho, target, signs, type_d, out
                )


def _alternating_sum(lie_type, n, lam, mu, tag, group):
    check_pair(lie_type, n, lam, mu)
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


def kl_A(n, lam, mu):
    """Type A Lusztig q-weight multiplicity (the Kostka-Foulkes oracle)."""
    return kl_poly("A", n, tuple(lam), tuple(mu))


def weight_multiplicity(lie_type, n, lam, mu):
    return kl_poly(lie_type, n, lam, mu).subs_all_one()
