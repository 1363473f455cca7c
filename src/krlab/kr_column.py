"""Column Kirillov-Reshetikhin crystals B^{r,1} for the single-box and
vertical-domino kinds: combinatorial R-matrix against a one-box factor,
splitting into (B^{1,1})-chains, energies, vacancy, and the embedding iota.

Chains are tuples of letters (EMPTY allowed for the single-box kind),
leftmost factor first.
"""

from .crystal import column_tensor, is_hw
# bench/tracing.py wraps these names in this module
from .crystal import tensor_word_e, tensor_word_f  # noqa: F401
from .letters import EMPTY, is_admissible, key, prec, red, sort_word, word_str
from .partitions import nn
from .polynomials import Poly

BOX = "box"  # single box removed: affine D^{(2)}
VDOM = "vdom"  # vertical domino removed: affine B^{(1)}
HDOM = "hdom"  # horizontal domino removed: affine C^{(1)} (rows only)

COLUMN_KINDS = (BOX, VDOM)


_factors = {}


class KRFactor:
    """An interned KR factor of one kind and capacity, holding a word.

    Building a factor returns the one already held for (class, kind, cap,
    word) in _factors, so equal factors are one object, hashed and checked
    once; a word is checked (by the subclass's _check) only when it is new,
    and a word that fails is not stored.  A new factor then sets its
    one-factor splitting, splitting, by its subclass's rule (_split), and
    that chain's energy, split_energy.  Equality is by value, identity
    first, so a factor built again after clear_caches() empties the table
    still equals the old one.  Factors are immutable, apart from their
    step table, steps: letter c -> (c', u', h), filled on first use by the
    subclass's step rule (col_step, kr_row.row_step; box_step, the
    identity, at capacity one) for split_step_energy.
    """

    __slots__ = ("kind", "cap", "word", "_hash", "steps", "splitting", "split_energy")

    def __new__(cls, kind, cap, word):
        word = tuple(word)
        key = (cls, kind, cap, word)
        self = _factors.get(key)
        if self is None:
            cls._check(kind, cap, word)
            self = object.__new__(cls)
            for name, value in zip(KRFactor.__slots__, (kind, cap, word, hash((kind, cap, word)), {})):
                object.__setattr__(self, name, value)
            chain = self._split()
            object.__setattr__(self, "splitting", chain)
            object.__setattr__(self, "split_energy", energy_chain(chain, kind))
            _factors[key] = self
        return self

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self.kind == other.kind and self.cap == other.cap and self.word == other.word

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __reduce__(self):
        return type(self), (self.kind, self.cap, self.word)

    def __repr__(self):
        return "%s(kind=%r, cap=%r, word=%r)" % (type(self).__name__, self.kind, self.cap, self.word)

    def __str__(self):
        return "%s^%d[%s]" % (self.kind, self.cap, word_str(self.word))

    def with_letters(self, letters):
        return type(self)(self.kind, self.cap, sort_word(letters))


class ColumnKR(KRFactor):
    """One factor of B^{r,1}; the word is a strict admissible column, split
    by split_factor; its step table is filled by col_step."""

    __slots__ = ()

    def _split(self):
        return split_factor(self)

    @staticmethod
    def _check(kind, cap, word):
        if kind not in COLUMN_KINDS:
            raise ValueError("no column rules for kind %r" % (kind,))
        if 0 in word:
            raise ValueError("column words have no zero letter")
        if not is_admissible(word):
            raise ValueError("inadmissible column word %r" % (word,))
        k = len(word)
        if k > cap:
            raise ValueError("word longer than capacity")
        if kind == VDOM and (cap - k) % 2:
            raise ValueError("vertical-domino column needs cap - len even")
        ranks = [key(x) for x in word]
        if not all(a < b for a, b in zip(ranks, ranks[1:])):
            raise ValueError("column word %s is not strictly increasing" % word_str(word))

    def vacancy(self):
        return self.cap - len(self.word)

    def letters(self):
        """The letters in tensor order: the column embedding."""
        return column_tensor(self.word)


def _largest(word):
    return max(word, key=key)


def _pivot(top, ws, case):
    """The largest q <= top whose bar is not in ws: case `case`'s pivot."""
    for q in range(top, 0, -1):
        if -q not in ws:
            return q
    raise ValueError("case %s found no pivot" % case)


def r_matrix_col(u: ColumnKR, c):
    """R: B^{a,1} (x) B^{1,1} -> B^{1,1} (x) B^{a,1}, by the case rules.

    c is a letter, or EMPTY for the single-box kind.  Returns (letter, u')
    and the case tag that fired, for golden tests.  Splitting reads it
    through col_step, once per (factor, letter) pair.
    """
    kind, a, w = u.kind, u.cap, u.word
    if a < 2:
        raise ValueError("left factor needs capacity >= 2")

    if kind == BOX and (c is EMPTY or not w or prec(c, w[0])):
        v = sort_word(w if c is EMPTY else (c,) + w)
        if not v:
            return EMPTY, ColumnKR(BOX, a, ()), "box-1-1"
        ww = red(v)
        # an empty right factor passes through only the empty column; on a
        # nonempty column it extracts the largest letter (injectivity and
        # splitting invariance force this reading of the case split)
        if c is not EMPTY and ww == v and len(ww) < a + 1:
            return EMPTY, ColumnKR(BOX, a, ww), "box-1-1"
        d = _largest(v)
        return d, ColumnKR(BOX, a, tuple(x for x in v if x != d)), "box-1-2"

    if kind == VDOM and (not w or prec(c, w[0])):
        v = sort_word((c,) + w)
        ww = red(v)
        if not ww:
            return -1, ColumnKR(VDOM, a, (1,)), "1-1"
        if ww != v:
            d = _largest(ww)
            return d, ColumnKR(VDOM, a, tuple(x for x in ww if x != d)), "1-2"
        if len(ww) == a + 1:
            d = _largest(ww)
            return d, ColumnKR(VDOM, a, tuple(x for x in ww if x != d)), "1-3"
        i = 1
        while True:
            if i not in ww and -i not in ww:
                ext = sort_word(ww + (i, -i))
                d = _largest(ext)
                s = tuple(x for x in ext if x != d)
                if is_admissible(s):
                    return d, ColumnKR(kind, a, s), "1-4"
            i += 1

    # cases 2, 3, 4 shared by both kinds
    ws = set(w)
    if c is EMPTY:
        raise ValueError("empty right factor only pairs with case 1")
    ui = max((x for x in w if not prec(c, x)), key=key)  # used by cases 2 and 3
    if c > 0:
        if -ui not in ws:
            new = sort_word(tuple(x for x in w if x != ui) + (c,))
            return ui, ColumnKR(kind, a, new), "2-1"
        p = _pivot(ui - 1, ws, "2-2")
        new = sort_word(tuple(x for x in w if x not in (ui, -ui)) + (c, -p))
        return p, ColumnKR(kind, a, new), "2-2"

    cmag = -c
    if cmag not in ws:
        if 0 < ui < cmag and -ui in ws:
            p = _pivot(ui, ws, "3-1")
            new = sort_word(
                tuple(x for x in w if x not in (ui, -ui)) + (c, -p)
            )
            return p, ColumnKR(kind, a, new), "3-1"
        new = sort_word(tuple(x for x in w if x != ui) + (c,))
        return ui, ColumnKR(kind, a, new), "3-2"

    # case 4: barred c with c in u
    interval = [x for x in w if not prec(x, cmag) and not prec(c, x)]
    shifted = tuple(
        (x - cmag + 1) if x > 0 else -(-x - cmag + 1) for x in interval
    )
    iprime = red(sort_word(shifted))
    if not iprime:
        p = _pivot(cmag, ws, "4-1")
        new = sort_word(tuple(x for x in w if x != cmag) + (-p,))
        return p, ColumnKR(kind, a, new), "4-1"
    d = _largest(iprime)
    dp = (d + cmag - 1) if d > 0 else -(-d + cmag - 1)
    if dp == cmag:
        new = sort_word(tuple(x for x in w if x != cmag) + (c,))
        return cmag, ColumnKR(kind, a, new), "4-2"
    iv = set(interval) - {dp}
    p = cmag + 1
    while p in iv or -p in iv:
        p += 1
    new = sort_word(tuple(x for x in w if x not in (cmag, dp)) + (p, -p))
    return dp, ColumnKR(kind, a, new), "4-2"


def split_factor(u: ColumnKR):
    """The one-column splitting S-hat into a chain of letters; each factor
    holds its own as u.splitting."""
    return tuple(reversed(u.word)) + _padding(u.kind, u.cap - len(u.word))


def _padding(kind, boxes):
    """The letters a splitting chain of the given kind fills `boxes` boxes
    with: one EMPTY per box for the single-box kind, one bar1 (x) 1 pair per
    two boxes for the vertical-domino kind."""
    if kind == BOX:
        return (EMPTY,) * boxes
    if boxes < 0 or boxes % 2:
        raise ValueError("a vertical-domino pad needs an even number of boxes, not %d" % boxes)
    return (-1, 1) * (boxes // 2)


def col_step(u, c):
    """Fill u's step table at letter c from R(u (x) c) = c' (x) u' by
    r_matrix_col, or by box_step for a one-box u.  Factors are interned,
    so each (factor, letter) pair is worked out once until clear_caches();
    r_matrix_col is read from this module's globals, so a replaced one
    sees every pair."""
    if u.cap == 1:
        return box_step(u, c)
    c2, u2, _ = r_matrix_col(u, c)
    return store_step(u, c, c2, u2)


def box_step(u, c):
    """Fill the step table of a one-box factor u at letter c: R on
    B^{1,1} (x) B^{1,1} is the identity, so c' is u's letter and u' the
    one-box factor of c.  The step rule of one-box columns and rows."""
    return store_step(u, c, u.splitting[0], u.with_letters(() if c is EMPTY else (c,)))


def store_step(u, c, c2, u2):
    """Enter (c', u', h) = (c2, u2, h) in u's step table at letter c and
    return it, where R(u (x) c) = c' (x) u' and h is the energy the step
    adds: energy_chain((c',) + u'.splitting) - energy_chain((c,)) -
    u'.split_energy."""
    h = energy_chain((c2,) + u2.splitting, u.kind) - energy_chain((c,), u.kind) - u2.split_energy
    entry = u.steps[c] = (c2, u2, h)
    return entry


def split_step_energy(chain, energy, u, build=True, fill=col_step):
    """(the splitting of u (x) T, its energy_chain) from the splitting chain
    of T, given energy = energy_chain(chain), for a column or a row factor
    u.  A factor of positive capacity passes the letters of the chain, one
    R-matrix step per letter, and is then replaced by its one-factor
    splitting, u.splitting; a capacity-0 factor drops out.  Without build,
    the split chain is None and none is built.

    Energy is a sum of local energies, one per R-step: each step adds its
    h from u's step table, filling a missing entry by fill(u, letter), the
    factor's step rule (col_step here, kr_row.row_step for rows; box_step
    for one box of either), then the energy of the last factor's
    splitting.
    """
    if u.cap == 0:
        return chain, energy
    passed = []
    for x in chain:
        try:
            c, u, h = u.steps[x]
        except KeyError:
            c, u, h = fill(u, x)
        passed.append(c)
        energy += h
    return (tuple(passed) + u.splitting if build else None), energy + u.split_energy


def clear_steps():
    """Empty the step table of every held factor.  The tables point at
    each other's factors, so clear_caches() empties them before it drops
    the factors, leaving no cycle to the garbage collector."""
    for u in _factors.values():
        u.steps.clear()


def step_entries(cls=ColumnKR):
    """The number of entries in the step tables of the held factors of
    class cls."""
    return sum(len(u.steps) for u in _factors.values() if type(u) is cls)


def split_tensor(factors, fill):
    """Split a tensor of KR factors into a (B^{1,1}) chain of letters, one
    split_step_energy per factor from right to left, with the factors' step
    rule fill."""
    if len({f.kind for f in factors}) > 1:
        raise ValueError("mixed kinds")
    chain, energy = (), 0
    for u in reversed(factors):
        chain, energy = split_step_energy(chain, energy, u, True, fill)
    return chain


def split_col(factors):
    """Split a tensor of ColumnKR factors into a (B^{1,1}) chain, through
    the column step tables."""
    return split_tensor(factors, col_step)


# key ranks of the letters local_H singles out
_EMPTY, _ONE, _BAR1, _ZERO = key(EMPTY), key(1), key(-1), key(0)


def local_H(a, b, kind):
    """Local energy of a pair x (x) y of a B^{1,1} chain, given the key ranks
    a = key(x) and b = key(y): 1 when y precedes x, else 0, with these
    exceptions.  Single box: an empty left factor gives 0 and two empty
    factors 1.  Vertical domino: bar1 (x) 1 gives 2; no factor is empty.
    Horizontal domino: no factor is empty or the zero-letter."""
    if kind == BOX:
        return 1 if b < a or a == b == _EMPTY else 0
    if kind == VDOM:
        if a == _EMPTY or b == _EMPTY:
            raise ValueError("no empty factor in vertical-domino chains")
        if a == _BAR1 and b == _ONE:
            return 2
        return 1 if b < a else 0
    if kind == HDOM:
        if a == _EMPTY or b == _EMPTY:
            raise ValueError("no empty factor in horizontal-domino chains")
        if a == _ZERO or b == _ZERO:
            raise ValueError("zero letters do not reach energy chains")
        return 1 if b < a else 0
    raise ValueError(kind)


def energy_chain(chain, kind):
    """Energy of a (B^{1,1})-chain: the weighted local-energy sum, plus the
    vacancy count for the single-box kind.

    With the chain written b_n (x) ... (x) b_1, the pair (b_{i+1}, b_i) gets
    weight n - i, doubled for the single-box kind.  The letters are turned
    into key ranks once, for local_H.
    """
    ranks = [key(x) for x in chain]
    total = 0
    for i in range(1, len(ranks)):
        total += i * local_H(ranks[i - 1], ranks[i], kind)
    if kind == BOX:
        return 2 * total + ranks.count(_EMPTY)
    return total


def split_shift(kind, caps):
    """The constant by which the splitting map shifts the energy of a tensor
    of column factors with these capacities."""
    mult = 2 if kind == BOX else 1
    return mult * (sum(caps) * (sum(caps) - 1) // 2 - nn(sorted(caps, reverse=True)))


def energy_col(factors):
    """Energy of a tensor of ColumnKR factors, through the splitting map."""
    factors = tuple(factors)
    if not factors:
        return 0
    kind = factors[0].kind
    caps = [f.cap for f in factors]
    return energy_chain(split_col(factors), kind) - split_shift(kind, caps)


def vac(factors):
    return sum(f.vacancy() for f in factors)


def qt_exponents(d, v):
    """The exponents ((D - vac)/2, vac) of the q,t-energy monomial of energy
    D and vacancy vac."""
    if (d - v) % 2:
        raise ValueError("odd energy-vacancy gap")
    return (d - v) // 2, v


def vac_qt_energy(factors):
    """q,t-energy monomial q^{(D - vac)/2} t^{vac} for single-box tensors."""
    factors = tuple(factors)
    if any(f.kind != BOX for f in factors):
        raise ValueError("q,t-energy is defined for the single-box kind")
    return Poly.mono(qt_exponents(energy_col(factors), vac(factors)))


def iota_factor(u: ColumnKR):
    """iota: prepend 1 and shift every letter up, capacity grows by one."""
    w = (1,) + tuple((x + 1) if x > 0 else (x - 1) for x in u.word)
    return ColumnKR(u.kind, u.cap + 1, sort_word(w))


def iota_col(factors):
    return tuple(iota_factor(f) for f in factors)


def _ones_prefix(word):
    """The k with word = [1..k | rest] and rest not starting with k + 1."""
    k = 0
    while k < len(word) and word[k] == k + 1:
        k += 1
    return k


def _tol_word(word, n):
    """Largest t <= n - k with [1..k+t | rest of word] still admissible."""
    k = _ones_prefix(word)
    rest = word[k:]
    best = 0
    for t in range(0, n - k + 1):
        cand = tuple(range(1, k + t + 1)) + rest
        if is_admissible(cand):
            best = t
    return best


def tol_midd(u: ColumnKR, uprime: ColumnKR):
    """The statistics used by the closed-form splitting image of a highest
    weight pair u (x) [1..n]."""
    n = len(uprime.word)
    tol = _tol_word(u.word, n)
    return tol, min(tol, u.cap - len(u.word))


def split_image_hw(u: ColumnKR, uprime: ColumnKR):
    """Closed-form splitting image of a classical highest weight pair
    u (x) u' with u' = [1..n]; three vertical-domino cases and the single
    single-box case."""
    a, b = u.cap, uprime.cap
    if list(uprime.word) != list(range(1, len(uprime.word) + 1)):
        raise ValueError("right factor must be 1..n")
    if not is_hw((u, uprime)):
        raise ValueError("not a classical highest weight pair")
    # parse u = [1..k | n+1..p | bar p..bar q] with p >= n >= k
    n = len(uprime.word)
    k = _ones_prefix(u.word[:n])
    mid = [x for x in u.word[k:] if x > 0]
    barred = sorted((-x for x in u.word if x < 0))
    p = mid[-1] if mid else (barred[-1] if barred else n)
    q = barred[0] if barred else p + 1
    if mid and list(mid) != list(range(n + 1, p + 1)):
        raise ValueError("not of highest weight shape")
    if barred and list(barred) != list(range(q, p + 1)):
        raise ValueError("not of highest weight shape")
    if not (p >= n >= k):
        raise ValueError("not of highest weight shape")
    tol, midd = tol_midd(u, uprime)
    nbar = p - q + 1

    def assemble(pp, middle):
        chain = tuple(range(k, 0, -1)) + middle
        chain += tuple(-x for x in range(q, pp + 1))
        chain += tuple(range(pp, 0, -1))
        return chain + _padding(u.kind, a + b - len(chain))

    if u.kind == BOX:
        return assemble(p, _padding(BOX, midd))

    half = midd // 2
    middle = _padding(VDOM, 2 * half)
    if nbar % 2 == 1 and tol == 2 * half:
        return assemble(p - 1, middle)
    if nbar % 2 == 0:
        v = sort_word(u.word + (p + 1, -(p + 1)))
        if len(v) <= a and is_admissible(v):
            t2 = _tol_word(v, n)
            m2 = min(t2, a - len(v))
            if t2 == 2 * (m2 // 2):
                return assemble(p + 1, middle)
    return assemble(p, middle)
