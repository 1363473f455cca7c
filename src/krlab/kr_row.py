"""Row Kirillov-Reshetikhin crystals B^{1,s} for all three kinds: the
closed-form affine statistics, affine raising and lowering, the R-matrix
against a one-box factor, row splitting, and energy.

The 0-arrows rest on two rules.  Duality: b^vee bars every letter of b (0
stays 0), and phi_0(b) = eps_0(b^vee), f_0(b) = e_0(b^vee)^vee, so only
raising is stated.  A horizontal domino is two boxes: e_0 on a
horizontal-domino row is the single-box e_0 taken twice on the same word,
and its eps_0 is half the single-box one.  The single-box eps_0 is twice
the unpaired 1's plus the empty boxes, the vertical-domino eps_0 the 1's
plus the unpaired 2's.  The paper-level gates are the crystal axioms, the
closed forms, and the level-restriction identities.
"""

from dataclasses import dataclass
from functools import lru_cache

from .crystal import (
    apply_e,
    apply_f,
    ctx_B,
    ctx_C,
    is_hw,
    raise_step,
    row_tensor,
    signature,
    word_weight,
)
# bench/tracing.py wraps these names in this module
from .crystal import eps, hw, tensor_word_e, tensor_word_f  # noqa: F401
from .kr_column import BOX, HDOM, VDOM, energy_chain, split_tensor
from .letters import EMPTY, prec, sort_word, word_str

ROW_KINDS = (BOX, HDOM, VDOM)


def row_ctx(kind, n):
    return ctx_C(n) if kind == HDOM else ctx_B(n)


@dataclass(frozen=True)
class RowKR:
    """One factor of B^{1,s}; the word is a weakly increasing multiset."""

    kind: str
    cap: int
    word: tuple

    def __post_init__(self):
        # a tuple word keeps the factor hashable for the energy memo
        object.__setattr__(self, "word", tuple(self.word))
        if self.kind not in ROW_KINDS:
            raise ValueError("unknown row kind %r" % (self.kind,))
        k = len(self.word)
        if self.kind == BOX and not 0 <= k <= self.cap:
            raise ValueError("single-box row needs 0 <= len <= cap")
        if self.kind == HDOM and (k > self.cap or (self.cap - k) % 2):
            raise ValueError("horizontal-domino row needs len = cap mod 2")
        if self.kind == VDOM and k != self.cap:
            raise ValueError("vertical-domino row needs len = cap")
        zeros = self.word.count(0)
        if zeros > 1:
            raise ValueError("at most one zero letter")
        if zeros and self.kind == HDOM:
            raise ValueError("the horizontal-domino alphabet has no zero letter")
        w = self.word
        if any(prec(y, x) for x, y in zip(w, w[1:])):
            raise ValueError("row word %s is not weakly increasing" % word_str(self.word))

    def letters(self):
        """The letters in tensor order: the row embedding."""
        return row_tensor(self.word)

    def with_letters(self, letters):
        return RowKR(self.kind, self.cap, sort_word(letters))

    def counts(self):
        """The numbers of 1, bar1, 2 and bar2 letters."""
        w = self.word
        return w.count(1), w.count(-1), w.count(2), w.count(-2)

    def __str__(self):
        return "%s^%d[%s]" % (self.kind, self.cap, word_str(self.word))


def _drop(word, x):
    """The word without one letter x; it stays sorted."""
    out = list(word)
    out.remove(x)
    return tuple(out)


def _addl(word, x):
    return sort_word(word + (x,))


def _dual(b: RowKR):
    """b^vee: every letter barred, 0 kept."""
    return b.with_letters(-x for x in b.word)


def _eps0(kind, s, k, x1, xb1, x2, xb2):
    """eps_0 of a row of capacity s, length k and the given letter counts."""
    if kind == VDOM:
        return x1 + max(0, x2 - xb2)
    box = 2 * max(x1 - xb1, 0) + (s - k)
    return box // 2 if kind == HDOM else box


def eps0_row(b: RowKR):
    """Closed-form affine raising capacity of one row factor."""
    return _eps0(b.kind, b.cap, len(b.word), *b.counts())


def phi0_row(b: RowKR):
    """eps_0(b^vee), read off b's counts with 1, bar1 and 2, bar2 swapped."""
    x1, xb1, x2, xb2 = b.counts()
    return _eps0(b.kind, b.cap, len(b.word), xb1, x1, xb2, x2)


def _e0_box(w, cap):
    """Single-box e_0 on a word: drop an unpaired 1, else add a bar1."""
    if w.count(1) > w.count(-1):
        return _drop(w, 1)
    if len(w) < cap:
        return _addl(w, -1)
    return None


def e0_row(b: RowKR):
    """Affine raising on one factor; weight drops by the zero root."""
    w = b.word
    if b.kind == VDOM:
        if w.count(2) > w.count(-2):
            return RowKR(b.kind, b.cap, _addl(_drop(w, 2), -1))
        if 1 in w:
            return RowKR(b.kind, b.cap, _addl(_drop(w, 1), -2))
        return None
    w = _e0_box(w, b.cap)
    if w is not None and b.kind == HDOM:
        w = _e0_box(w, b.cap)
    return None if w is None else RowKR(b.kind, b.cap, w)


def f0_row(b: RowKR):
    a = e0_row(_dual(b))
    return None if a is None else _dual(a)


def _affine_rule(t):
    return signature([(phi0_row(f), eps0_row(f)) for f in t])


def eps0(b):
    """Affine raising capacity of a factor or a tensor of factors."""
    if isinstance(b, RowKR):
        return eps0_row(b)
    return _affine_rule(b)[0]


def phi0(b):
    if isinstance(b, RowKR):
        return phi0_row(b)
    return _affine_rule(b)[1]


def tensor_e0(t):
    """Affine raising on a tensor of RowKR factors, leftmost first."""
    k = _affine_rule(t)[2]
    return None if k is None else t[:k] + (e0_row(t[k]),) + t[k + 1 :]


def tensor_f0(t):
    k = _affine_rule(t)[3]
    return None if k is None else t[:k] + (f0_row(t[k]),) + t[k + 1 :]


# ---------------------------------------------------------------------------
# combinatorial R-matrix for B^{1,s} (x) B^{1,1}


def enumerate_row(kind, s, n):
    """All elements of B^{1,s} at classical rank n."""
    from itertools import combinations_with_replacement

    letters = list(range(1, n + 1)) + ([0] if kind != HDOM else []) + [
        -i for i in range(n, 0, -1)
    ]
    if kind == BOX:
        lengths = range(0, s + 1)
    elif kind == HDOM:
        lengths = range(s % 2, s + 1, 2)
    else:
        lengths = (s,)
    out = []
    for k in lengths:
        for combo in combinations_with_replacement(letters, k):
            if sum(1 for x in combo if x == 0) > 1:
                continue
            out.append(RowKR(kind, s, sort_word(combo)))
    return out


class RMatrixTable:
    """Memoized affine isomorphism B^{1,s} (x) B^{1,1} -> B^{1,1} (x) B^{1,s}.

    Components are matched by the classical weight and eps_0 of their
    highest weight elements; an ambiguous match falls back to the affine
    propagation from the anchor 1^s (x) 1, `bfs_map`, which the tests also
    use as the reference.  `map` holds every image found so far: each query
    stores the images along its raising path, so a component is matched
    once.
    """

    def __init__(self, kind, s, n):
        self.kind = kind
        self.s = s
        self.n = n
        self.ctx = row_ctx(kind, n)
        self.map = {}
        self._hw_target = None

    def _target_index(self):
        if self._hw_target is not None:
            return self._hw_target
        index = {}
        # eps_i(c (x) u) = eps_i(u) + max(0, eps_i(c) - phi_i(u)) by the
        # signature rule, so only highest weight rows u can pair into one
        rows = [u for u in enumerate_row(self.kind, self.s, self.n) if is_hw(u, self.ctx)]
        for c in enumerate_row(self.kind, 1, self.n):
            for u in rows:
                t = (c, u)
                if not is_hw(t, self.ctx):
                    continue
                keyv = (
                    word_weight(c.word + u.word, self.n),
                    eps0(t),
                )
                index.setdefault(keyv, []).append(t)
        self._hw_target = index
        return index

    def apply(self, u: RowKR, c: RowKR):
        """The image of u (x) c.  The element is raised, smallest index first
        as crystal.hw raises, until it reaches one whose image is known or
        its highest weight element, whose image is matched; that image is
        lowered back along the path, and the image of every element passed
        is stored."""
        t = (u, c)
        img = self.map.get(t)
        if img is not None:
            return img
        path = []
        top = t
        while top not in self.map:
            step = raise_step(top, self.ctx)
            if step is None:
                break
            path.append((top, step[0]))
            top = step[1]
        img = self.map.get(top)
        if img is None:
            keyv = (word_weight(top[0].word + top[1].word, self.n), eps0(top))
            matches = self._target_index().get(keyv, [])
            if len(matches) != 1:
                self.map.update(self.bfs_map())
                return self.map[t]
            img = matches[0]
            self.map[top] = img
        for b, i in reversed(path):
            img = apply_f(img, i, self.ctx)
            if img is None:
                raise ValueError("target component is shorter than source")
            self.map[b] = img
        return img

    def bfs_map(self):
        """The whole map, propagated from the anchor along all affine
        operators."""
        ones = RowKR(self.kind, self.s, (1,) * self.s)
        one = RowKR(self.kind, 1, (1,))
        start = (ones, one)
        table = {start: (one, ones)}
        frontier = [start]
        ops = []
        for i in range(1, self.n + 1):
            ops.append(lambda b, i=i: apply_e(b, i, self.ctx))
            ops.append(lambda b, i=i: apply_f(b, i, self.ctx))
        ops += [tensor_e0, tensor_f0]
        while frontier:
            nxt = []
            for src in frontier:
                img = table[src]
                for op in ops:
                    a = op(src)
                    if a is None:
                        continue
                    bimg = op(img)
                    if bimg is None:
                        raise ValueError("affine graphs disagree")
                    if a in table:
                        if table[a] != bimg:
                            raise ValueError("inconsistent affine propagation")
                        continue
                    table[a] = bimg
                    nxt.append(a)
            frontier = nxt
        return table


_tables = {}


def row_rank(letters):
    """The classical rank of the R-matrix tables for tensors of the given
    letters: two above the largest letter magnitude, and at least 3."""
    return max(3, max((abs(x) for x in letters if x), default=1) + 2)


def _table(kind, s, n):
    """The held table of (kind, s), replaced by one of rank n when its own
    rank is below n.  A pair has one image at every rank at least row_rank
    of its letters, so a query needing rank n may use any higher rank."""
    table = _tables.get((kind, s))
    if table is None or table.n < n:
        table = _tables[kind, s] = RMatrixTable(kind, s, n)
    return table


def r_matrix_row(u: RowKR, c: RowKR):
    """R on B^{1,s} (x) B^{1,1}; returns (one-box factor, row factor)."""
    if c.cap != 1 or u.kind != c.kind:
        raise ValueError("need matching kinds and a one-box right factor")
    return _table(u.kind, u.cap, row_rank(u.word + c.word)).apply(u, c)


def split_one(b: RowKR):
    """One step of the row splitting: emit a one-box factor leftward."""
    a, w = b.cap, b.word
    k = len(w)
    if a >= k + 2:
        return -1, RowKR(b.kind, a - 1, _addl(w, 1))
    if a == k + 1:
        return EMPTY, RowKR(b.kind, a - 1, w)
    return w[0], RowKR(b.kind, a - 1, w[1:])


def _split_factor_row(b: RowKR):
    """The one-row splitting: peel one box at a time down to one box."""
    chain = []
    while b.cap > 1:
        letter, b = split_one(b)
        chain.append(letter)
    chain.append(b.word[0] if b.word else EMPTY)
    return tuple(chain)


def split_row(factors):
    """Split a tensor of RowKR factors into a letter chain, through the row
    R-matrix and the one-row splitting.  Every R-matrix step uses a table of
    at least the rank of the whole tensor's letters, so that no later step
    of the tensor replaces a table an earlier step used."""
    factors = tuple(factors)
    n = row_rank(x for f in factors for x in f.word)

    def r_matrix(u, x):
        # the step goes through r_matrix_row, whose calls bench/tracing.py counts
        _table(u.kind, u.cap, n)
        c, u = r_matrix_row(u, RowKR(u.kind, 1, () if x is EMPTY else (x,)))
        return (c.word[0] if c.word else EMPTY), u

    return split_tensor(factors, r_matrix, _split_factor_row)


def energy_row(factors):
    """Energy of a tensor of row factors, through the splitting map,
    memoized on the factor tuple."""
    factors = tuple(factors)
    if not factors:
        return 0
    return _energy_row(factors)


@lru_cache(maxsize=None)
def _energy_row(factors):
    return energy_chain(split_row(factors), factors[0].kind)
