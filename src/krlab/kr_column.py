"""Column Kirillov-Reshetikhin crystals B^{r,1} for the single-box and
vertical-domino kinds: combinatorial R-matrix against a one-box factor,
splitting into (B^{1,1})-chains, energies, vacancy, and the embedding iota.

Chains are tuples of letters (EMPTY allowed for the single-box kind),
leftmost factor first.
"""

from dataclasses import dataclass
from functools import lru_cache

from .crystal import column_tensor, is_hw
# bench/tracing.py wraps these names in this module
from .crystal import tensor_word_e, tensor_word_f  # noqa: F401
from .letters import EMPTY, is_admissible, key, prec, red, sort_word, word_str
from .polynomials import Poly

BOX = "box"  # single box removed: affine D^{(2)}
VDOM = "vdom"  # vertical domino removed: affine B^{(1)}
HDOM = "hdom"  # horizontal domino removed: affine C^{(1)} (rows only)

COLUMN_KINDS = (BOX, VDOM)


@dataclass(frozen=True)
class ColumnKR:
    """One factor of B^{r,1}; the word is a strict admissible column."""

    kind: str
    cap: int
    word: tuple

    def __post_init__(self):
        # a tuple word keeps the factor hashable for the R-matrix cache
        object.__setattr__(self, "word", tuple(self.word))
        if self.kind not in COLUMN_KINDS:
            raise ValueError("no column rules for kind %r" % (self.kind,))
        if 0 in self.word:
            raise ValueError("column words have no zero letter")
        if not is_admissible(self.word):
            raise ValueError("inadmissible column word %r" % (self.word,))
        k = len(self.word)
        if k > self.cap:
            raise ValueError("word longer than capacity")
        if self.kind == VDOM and (self.cap - k) % 2:
            raise ValueError("vertical-domino column needs cap - len even")
        w = self.word
        if not all(prec(x, y) for x, y in zip(w, w[1:])):
            raise ValueError("column word %s is not strictly increasing" % word_str(self.word))

    def vacancy(self):
        return self.cap - len(self.word)

    def letters(self):
        """The letters in tensor order: the column embedding."""
        return column_tensor(self.word)

    def with_letters(self, letters):
        return ColumnKR(self.kind, self.cap, sort_word(letters))

    def __str__(self):
        return "%s^%d[%s]" % (self.kind, self.cap, word_str(self.word))


def _largest(word):
    return max(word, key=key)


@lru_cache(maxsize=None)
def r_matrix_col(u: ColumnKR, c):
    """R: B^{a,1} (x) B^{1,1} -> B^{1,1} (x) B^{a,1}, by the case rules.

    c is a letter, or EMPTY for the single-box kind.  Returns (letter, u')
    and the case tag that fired, for golden tests.  Memoized: splitting
    meets the same few hundred pairs thousands of times.
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
    if c > 0:
        ui = max((x for x in w if not prec(c, x)), key=key)
        if -ui not in ws:
            new = sort_word(tuple(x for x in w if x != ui) + (c,))
            return ui, ColumnKR(kind, a, new), "2-1"
        p = max((q for q in range(1, ui) if -q not in ws), default=None)
        if p is None:
            raise ValueError("case 2-2 found no pivot")
        new = sort_word(tuple(x for x in w if x not in (ui, -ui)) + (c, -p))
        return p, ColumnKR(kind, a, new), "2-2"

    cmag = -c
    if cmag not in ws:
        ui = max((x for x in w if not prec(c, x)), key=key)
        if 0 < ui < cmag and -ui in ws:
            p = max(
                (q for q in range(1, ui + 1) if -q not in ws), default=None
            )
            if p is None:
                raise ValueError("case 3-1 found no pivot")
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
        p = max((q for q in range(1, cmag + 1) if -q not in ws), default=None)
        if p is None:
            raise ValueError("case 4-1 found no pivot")
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
    """The one-column splitting S-hat into a chain of letters."""
    w = u.word
    pad = u.cap - len(w)
    chain = list(reversed(w))
    if u.kind == BOX:
        chain.extend([EMPTY] * pad)
    else:
        chain.extend([-1, 1] * (pad // 2))
    return tuple(chain)


def split_step(chain, u, r_matrix, split):
    """The splitting of u (x) T from the splitting chain of T.

    A factor of capacity above one passes the letters of the chain, one
    R-matrix step r_matrix(u, letter) -> (letter, u', ...) per letter, and
    is then replaced by its one-factor splitting split(u); a capacity-1
    factor is its own splitting and a capacity-0 factor drops out.
    """
    if u.cap == 0:
        return chain
    if u.cap == 1:
        return split(u) + chain
    passed = []
    for x in chain:
        step = r_matrix(u, x)
        passed.append(step[0])
        u = step[1]
    return tuple(passed) + split(u)


def split_tensor(factors, r_matrix, split):
    """Split a tensor of KR factors into a (B^{1,1}) chain of letters, one
    split_step per factor from right to left."""
    if len({f.kind for f in factors}) > 1:
        raise ValueError("mixed kinds")
    chain = ()
    for u in reversed(factors):
        chain = split_step(chain, u, r_matrix, split)
    return chain


def split_col(factors):
    """Split a tensor of ColumnKR factors into a (B^{1,1}) chain, with the
    column R-matrix and the one-column splitting."""
    return split_tensor(factors, r_matrix_col, split_factor)


def local_H(x, y, kind):
    """Local energy on B^{1,1} (x) B^{1,1} pairs of the chain."""
    if kind == VDOM:
        if x is EMPTY or y is EMPTY:
            raise ValueError("no empty factor in vertical-domino chains")
        if x == -1 and y == 1:
            return 2
        return 1 if prec(y, x) else 0
    if kind == BOX:
        if x is EMPTY and y is EMPTY:
            return 1
        if x is EMPTY:
            return 0
        if y is EMPTY:
            return 1
        return 1 if prec(y, x) else 0
    if kind == HDOM:
        if x is EMPTY or y is EMPTY:
            raise ValueError("no empty factor in horizontal-domino chains")
        if x == 0 or y == 0:
            raise ValueError("zero letters do not reach energy chains")
        return 1 if prec(y, x) else 0
    raise ValueError(kind)


def energy_chain(chain, kind):
    """Energy of a (B^{1,1})-chain: the weighted local-energy sum, plus the
    vacancy count for the single-box kind.

    With the chain written b_n (x) ... (x) b_1, the pair (b_{i+1}, b_i) gets
    weight n - i, doubled for the single-box kind.
    """
    n = len(chain)
    total = 0
    for idx in range(n - 1):
        x, y = chain[idx], chain[idx + 1]
        h = local_H(x, y, kind)
        total += (2 if kind == BOX else 1) * (idx + 1) * h
    if kind == BOX:
        total += sum(1 for x in chain if x is EMPTY)
    return total


def _norm_sq(mu):
    beta = sorted(mu, reverse=True)
    return sum(i * x for i, x in enumerate(beta))


def split_shift(kind, caps):
    """The constant by which the splitting map shifts the energy of a tensor
    of column factors with these capacities."""
    mult = 2 if kind == BOX else 1
    return mult * (sum(caps) * (sum(caps) - 1) // 2 - _norm_sq(caps))


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


def vac_qt_energy(factors):
    """q,t-energy monomial q^{(D - vac)/2} t^{vac} for single-box tensors."""
    factors = tuple(factors)
    if any(f.kind != BOX for f in factors):
        raise ValueError("q,t-energy is defined for the single-box kind")
    d = energy_col(factors)
    v = vac(factors)
    if (d - v) % 2:
        raise ValueError("odd energy-vacancy gap")
    return Poly.mono(((d - v) // 2, v))


def iota_factor(u: ColumnKR):
    """iota: prepend 1 and shift every letter up, capacity grows by one."""
    w = (1,) + tuple((x + 1) if x > 0 else (x - 1) for x in u.word)
    return ColumnKR(u.kind, u.cap + 1, sort_word(w))


def iota_col(factors):
    return tuple(iota_factor(f) for f in factors)


def _tol_word(word, n):
    """Largest t <= n - k with [1..k+t | rest of word] still admissible."""
    k = 0
    while k < len(word) and word[k] == k + 1:
        k += 1
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
    k = 0
    while k < min(len(u.word), n) and u.word[k] == k + 1:
        k += 1
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

    def assemble(pp, pairs2):
        chain = list(range(k, 0, -1))
        chain += [-1, 1] * pairs2
        chain += [-x for x in range(q, pp + 1)]
        chain += list(range(pp, 0, -1))
        pad = a + b - len(chain)
        if u.kind == BOX:
            chain += [EMPTY] * pad
        else:
            assert pad % 2 == 0 and pad >= 0
            chain += [-1, 1] * (pad // 2)
        return tuple(chain)

    if u.kind == BOX:
        chain = list(range(k, 0, -1)) + [EMPTY] * midd
        chain += [-x for x in range(q, p + 1)]
        chain += list(range(p, 0, -1))
        chain += [EMPTY] * (a + b - len(chain))
        return tuple(chain)

    half = midd // 2
    if nbar % 2 == 1 and tol == 2 * half:
        return assemble(p - 1, half)
    if nbar % 2 == 0:
        v = sort_word(u.word + (p + 1, -(p + 1)))
        if len(v) <= a and is_admissible(v):
            t2 = _tol_word(v, n)
            m2 = min(t2, a - len(v))
            if t2 == 2 * (m2 // 2):
                return assemble(p + 1, half)
    return assemble(p, half)
