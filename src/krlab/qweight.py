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
count closes in one monomial.  `q_kostant` returns a `Poly`; the
alternating sums add their terms' states packed and decode once.

States are packed integers, in `_memo`: one `_Fill` per (lie_type, n, tag)
holds one dict per root index k, mapping v to P_k(v), and one table of the
distinct states, so that equal states share one int.
  - A simple-coordinate vector v is one int, v_i in field i of VB bits.  The
    top bit of each field is a guard, kept clear; H has every guard set.  A
    root c is subtracted as w = (v | H) - c.  A coordinate that went
    negative took its guard and no other (a root's coordinates are at most
    2), so w & H != H; otherwise w ^ H is v - c.
  - A state is one int by Kronecker substitution: the coefficient of q^i in
    field i of CB bits, or for the (q,t) tag that of q^i t^j in field
    i*T + j, with T above the t-degree.  Adding states is +, and times
    q^i t^j is << (i*T + j)*CB.
  - Each coefficient field's top bit is a guard as well.  Every stored
    coefficient is below 2^(CB-1), so a sum of two carries into no other
    field, and it overflowed exactly when it set a guard.  Every sum, in
    the DP and in the alternating sum, is tested against a mask with a
    guard in every field the call can reach.
  - Nothing is truncated.  A set guard, a coordinate of 2^(VB-1) or more,
    or a t-degree of T or more doubles that key's widths, empties its
    tables and computes the call again.
"""

from functools import lru_cache
from itertools import chain
from operator import sub

from .polynomials import Poly

# weyl_group and apply_w are unused here since weyl_terms walks the group
# itself; bench/tracing.py still wraps both names in this module.
from .roots import (  # noqa: F401
    apply_w,
    is_dominant,
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


# Field widths: bits per simple coordinate and per coefficient, each field's
# top bit a guard, and t-degree fields per q-degree of a (q,t) state.  A
# (lie_type, n, tag) whose call needs more doubles its own, see _Fill.fitted.
# _VEC_BITS is at least 3, so that a root's coordinate 2 fits below a guard.
_VEC_BITS = 8
_COEF_BITS = 24
_T_FIELDS = 6


def _guards(bits, fields):
    """The top bit of each of the lowest `fields` fields of `bits` bits."""
    return ((1 << bits * fields) - 1) // ((1 << bits) - 1) << (bits - 1)


def _pack(v, bits):
    return sum(x << i * bits for i, x in enumerate(v))


class _Narrow(Exception):
    """A coefficient field of a _Fill overflowed into its guard bit."""


class _Fill:
    """The packed tables of one (lie_type, n, tag) and their layout:
    tables[k] maps a packed v to the packed P_k(v), see _count, and values
    maps each distinct packed state to itself, so that equal states share
    one int.  Unpacks as (tables, values)."""

    def __init__(self, lie_type, n, tag, vbits, cbits, tfields):
        self.key = (lie_type, n, tag)
        self.nvars = 2 if tag == L_QT_B else 1
        self.vbits, self.cbits = vbits, cbits
        self.tfields = tfields if self.nvars == 2 else 1
        roots = [(simple_coords(lie_type, n, r), _exp_vec(tag, r)) for r in positive_roots(lie_type, n)]
        simple = sorted((c.index(1), ev) for c, ev in roots if sum(c) == 1)
        others = sorted((r for r in roots if sum(r[0]) != 1), key=lambda r: -sum(r[0]))
        # the bit offset of q^ev[0] t^ev[1], the field ev[0]*T + ev[1]
        place = lambda ev: (ev[0] * self.tfields + sum(ev[1:])) * cbits
        self.others = [(_pack(c, vbits), place(ev)) for c, ev in others]
        self.simple = [(i * vbits, place(ev)) for i, ev in simple if any(ev)]
        # for (q,t), the coordinates that every root uses at least as often
        # as t, so that each bounds the t-degree
        self.tcoords = [i for i, _ in simple if all(ev[-1] <= c[i] for c, ev in roots)]
        self.vguards = _guards(vbits, len(simple))
        self.vmask = (1 << vbits) - 1
        self.last = len(others)
        self.cguards = 0
        self.cfields = 0
        self.tables = [{} for _ in range(len(others) + 1)]
        self.values = {}

    def __iter__(self):
        return iter((self.tables, self.values))

    def fitted(self, vs, overflowed):
        """This fill if its fields hold every simple-coordinate vector of vs
        and each coefficient and t-degree their states reach, else one with
        the fields that are too narrow doubled and its tables empty; the
        coefficient fields are doubled when overflowed.  The coefficient
        guard mask is extended to every field that vs reaches: a state of
        v uses at most |v| roots, so its q-degree plus t-degree is at most
        |v|, and its t-degree at most each tcoords coordinate of v."""
        vbits, cbits, tfields = self.vbits, self.cbits, self.tfields
        top = max(chain.from_iterable(vs), default=0)
        while top >> vbits - 1:
            vbits *= 2
        if self.nvars == 2:
            while any(min((v[i] for i in self.tcoords), default=sum(v)) >= tfields for v in vs):
                tfields *= 2
        if overflowed:
            cbits *= 2
        fill = self
        if (vbits, cbits, tfields) != (self.vbits, self.cbits, self.tfields):
            fill = _Fill(*self.key, vbits, cbits, tfields)
        fields = max(map(sum, vs)) * fill.tfields + 1
        if fields > fill.cfields:
            fill.cfields = fields
            fill.cguards = _guards(fill.cbits, fields)
        return fill

    def total(self, vs, dets):
        """sum det * P_q(v) over the vs and dets as a Poly: the packed states
        with det = 1 and det = -1 are summed apart, the guards tested after
        each addition, and both decoded once.  Raises _Narrow on overflow."""
        sums = {1: 0, -1: 0}
        top = self.tables[0]
        for v, det in zip(vs, dets):
            v = _pack(v, self.vbits)
            x = top.get(v)
            if x is None:
                x = _count(self, 0, v)
            sums[det] += x
            if sums[det] & self.cguards:
                raise _Narrow
        out = Poly(self.nvars)
        mask = (1 << self.cbits) - 1
        for det, x in sums.items():
            i = 0
            while x:
                if x & mask:
                    e = divmod(i, self.tfields) if self.nvars == 2 else (i,)
                    c = out.c.get(e, 0) + det * (x & mask)
                    if c:
                        out.c[e] = c
                    else:
                        del out.c[e]
                x >>= self.cbits
                i += 1
        return out


class _Memo(dict):
    """(lie_type, n, tag) -> _Fill.  len() counts the states of every
    table."""

    def __len__(self):
        return sum(len(t) for fill in self.values() for t in fill.tables)


# emptied by clear_caches
_memo = _Memo()


def q_kostant(lie_type, n, beta, tag=L_ONE):
    """[e^beta] prod 1/(1 - q^{L(a)} e^a) over the positive roots."""
    if len(beta) != n:
        raise ValueError("beta has length %d, not n = %d" % (len(beta), n))
    positive_roots(lie_type, n)  # refuses an unknown type or rank
    return _packed_sum(lie_type, n, tag, ((tuple(beta), 1),))


def _packed_sum(lie_type, n, tag, terms):
    """The sum of det * P_q(beta) over the (beta, det) of terms, as a Poly.
    An overflow widens the key's fields, which empties its tables, and
    starts over."""
    vs, dets = [], []
    for beta, det in terms:
        v = simple_coords(lie_type, n, beta)
        if v is not None and min(v, default=0) >= 0:
            vs.append(v)
            dets.append(det)
    if not vs:
        return Poly.zero(2 if tag == L_QT_B else 1)
    key = (lie_type, n, tag)
    fill = _memo.get(key) or _Fill(lie_type, n, tag, _VEC_BITS, _COEF_BITS, _T_FIELDS)
    overflowed = False
    while True:
        fill = _memo[key] = fill.fitted(vs, overflowed)
        try:
            return fill.total(vs, dets)
        except _Narrow:
            overflowed = True


def _count(fill, idx, v):
    """P_idx(v), packed, for a packed v >= 0 not in tables[idx], by the
    recurrence of the module docstring.  The a-string below v is walked down
    to its first stored state, then filled upwards, so recursion only
    deepens with idx.  Each stored state is first looked up in values, so
    equal states share one int.  Raises _Narrow when a sum sets a
    coefficient guard."""
    table = fill.tables[idx]
    values = fill.values
    if idx == fill.last:
        e = 0
        for at, place in fill.simple:
            e += (v >> at & fill.vmask) * place
        out = 1 << e
        out = table[v] = values.setdefault(out, out)
        return out
    c, place = fill.others[idx]
    guards = fill.vguards
    string = [v]
    acc = None
    while True:
        w = (string[-1] | guards) - c
        if w & guards != guards:
            break
        w ^= guards
        acc = table.get(w)
        if acc is not None:
            break
        string.append(w)
    below_table = fill.tables[idx + 1]
    for w in reversed(string):
        below = below_table.get(w)
        if below is None:
            below = _count(fill, idx + 1, w)
        if acc is not None:
            below += acc << place
            if below & fill.cguards:
                raise _Narrow
        acc = table[w] = values.setdefault(below, below)
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
    """sum_w det(w) P_q(w(lam+rho) - (mu+rho)) over the w of weyl_terms.
    For a dominant lam each such beta is lam - mu less a sum of positive
    roots, (lam+rho) - w(lam+rho), which holds for the symmetric group's w
    as well, so the sum is 0 unless lam - mu lies in the positive root cone."""
    positive_roots(lie_type, n)  # refuses an unknown type or rank
    check_pair(lie_type, n, lam, mu)
    d = simple_coords(lie_type, n, tuple(map(sub, lam, mu)))
    if (d is None or min(d, default=0) < 0) and is_dominant(lie_type, n, lam):
        return Poly.zero(2 if tag == L_QT_B else 1)
    return _packed_sum(lie_type, n, tag, weyl_terms(lie_type, n, lam, mu, group))


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
