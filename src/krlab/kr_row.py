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

from functools import lru_cache, partial
from itertools import combinations_with_replacement

from .crystal import (
    _OFF,
    ctx_B,
    ctx_C,
    is_hw,
    letter_table,
    row_tensor,
    signature,
    word_weight,
)
# bench/tracing.py wraps these names in this module
from .crystal import apply_e, apply_f, eps, hw, tensor_word_e, tensor_word_f  # noqa: F401
from .kr_column import BOX, HDOM, VDOM, KRFactor, box_step, energy_chain, split_tensor, store_step
from .letters import EMPTY, key, sort_word, word_str

ROW_KINDS = (BOX, HDOM, VDOM)


def row_ctx(kind, n):
    return ctx_C(n) if kind == HDOM else ctx_B(n)


class RowKR(KRFactor):
    """One factor of B^{1,s}; the word is a weakly increasing multiset,
    split by _split_factor_row; its step table is filled by row_step."""

    __slots__ = ()

    def _split(self):
        return _split_factor_row(self)

    @staticmethod
    def _check(kind, cap, word):
        if kind not in ROW_KINDS:
            raise ValueError("unknown row kind %r" % (kind,))
        k = len(word)
        if kind == BOX and not 0 <= k <= cap:
            raise ValueError("single-box row needs 0 <= len <= cap")
        if kind == HDOM and (k > cap or (cap - k) % 2):
            raise ValueError("horizontal-domino row needs len = cap mod 2")
        if kind == VDOM and k != cap:
            raise ValueError("vertical-domino row needs len = cap")
        zeros = word.count(0)
        if zeros > 1:
            raise ValueError("at most one zero letter")
        if zeros and kind == HDOM:
            raise ValueError("the horizontal-domino alphabet has no zero letter")
        ranks = [key(x) for x in word]
        if any(b < a for a, b in zip(ranks, ranks[1:])):
            raise ValueError("row word %s is not weakly increasing" % word_str(word))

    def letters(self):
        """The letters in tensor order: the row embedding."""
        return row_tensor(self.word)

    def counts(self):
        """The numbers of 1, bar1, 2 and bar2 letters."""
        w = self.word
        return w.count(1), w.count(-1), w.count(2), w.count(-2)


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


def _zero_pair(b: RowKR):
    """(phi_0, eps_0) of one row factor from one read of its counts; phi_0 is
    eps_0(b^vee), read off b's counts with 1, bar1 and 2, bar2 swapped."""
    x1, xb1, x2, xb2 = b.counts()
    k = len(b.word)
    return _eps0(b.kind, b.cap, k, xb1, x1, xb2, x2), _eps0(b.kind, b.cap, k, x1, xb1, x2, xb2)


def eps0_row(b: RowKR):
    """Closed-form affine raising capacity of one row factor."""
    return _zero_pair(b)[1]


def phi0_row(b: RowKR):
    return _zero_pair(b)[0]


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
    return signature([_zero_pair(f) for f in t])


def eps0(t):
    """Affine raising capacity of a tensor of row factors; a single factor
    goes through eps0_row."""
    return _affine_rule(t)[0]


def phi0(t):
    return _affine_rule(t)[1]


def tensor_e0(t):
    """Affine raising on a tensor of RowKR factors, leftmost first."""
    k = _affine_rule(t)[2]
    return None if k is None else t[:k] + (e0_row(t[k]),) + t[k + 1 :]


def tensor_f0(t):
    k = _affine_rule(t)[3]
    return None if k is None else t[:k] + (f0_row(t[k]),) + t[k + 1 :]


# ---------------------------------------------------------------------------
# combinatorial R-matrix for B^{1,s} (x) B^{1,1}


def _row_lengths(kind, s):
    """The word lengths of B^{1,s}: classically it is the sum of B(k varpi_1)
    over these k, with highest weight element 1^k each."""
    if kind == BOX:
        return range(0, s + 1)
    if kind == HDOM:
        return range(s % 2, s + 1, 2)
    return (s,)


def enumerate_row(kind, s, n):
    """All elements of B^{1,s} at classical rank n."""
    letters = list(range(1, n + 1)) + ([0] if kind != HDOM else []) + [
        -i for i in range(n, 0, -1)
    ]
    out = []
    for k in _row_lengths(kind, s):
        for combo in combinations_with_replacement(letters, k):
            if sum(1 for x in combo if x == 0) > 1:
                continue
            out.append(RowKR(kind, s, sort_word(combo)))
    return out


class RMatrixTable:
    """Memoized affine isomorphism B^{1,s} (x) B^{1,1} -> B^{1,1} (x) B^{1,s}.

    Components are matched by the classical weight and eps_0 of their
    highest weight elements.  The targets are the highest weight pairs
    c (x) 1^k over the one-box factors c and the rows 1^k of B^{1,s}, so no
    other row is built.  `targets` maps each key to its targets; a key with
    other than one target is refused.  `map` holds every image found so
    far: each query stores the images along its raising path, so a
    component is matched once.
    """

    def __init__(self, kind, s, n):
        self.n = n
        self.ctx = row_ctx(kind, n)
        self.arrows = [letter_table(i, self.ctx) for i in range(1, n + 1)]
        self.map = {}
        self.targets = {}
        # eps_i(c (x) u) = eps_i(u) + max(0, eps_i(c) - phi_i(u)) by the
        # signature rule, so only highest weight rows u can pair into one,
        # and those are the rows 1^k (test_hw_rows_are_the_rows_of_ones)
        rows = [RowKR(kind, s, (1,) * k) for k in _row_lengths(kind, s)]
        rows = [u for u in rows if is_hw(u, self.ctx)]
        for c in enumerate_row(kind, 1, n):
            for u in rows:
                t = (c, u)
                if is_hw(t, self.ctx):
                    self.targets.setdefault(self._key(t), []).append(t)

    def _key(self, t):
        """The classical weight and eps_0 of a pair."""
        return word_weight(t[0].word + t[1].word, self.n), eps0(t)

    def _step(self, t, arrow, indices):
        """(i, x_i t) for the first i in indices with x_i t defined, x_i = e_i
        for arrow 1 and f_i for arrow 2, else None; read on the pair's letters,
        rebuilding only the factor holding the moved letter."""
        a, b = t
        letters = list(a.word + b.word)
        for i in indices:
            table = self.arrows[i - 1]
            k = signature([table.get(x, _OFF)[0] for x in letters])[arrow + 1]
            if k is not None:
                letters[k] = table[letters[k]][arrow]
                m = len(a.word)
                return i, ((a.with_letters(letters[:m]), b) if k < m else (a, b.with_letters(letters[m:])))
        return None

    def apply(self, u: RowKR, c: RowKR):
        """The image of u (x) c.  The element is raised, smallest index first
        as crystal.hw raises, until it reaches one whose image is known or
        its highest weight element, whose image is its key's one target;
        that image is lowered back along the path, and the image of every
        element passed is stored."""
        t = (u, c)
        img = self.map.get(t)
        if img is not None:
            return img
        path = []
        top = t
        while top not in self.map:
            step = self._step(top, 1, range(1, self.n + 1))
            if step is None:
                break
            path.append((top, step[0]))
            top = step[1]
        img = self.map.get(top)
        if img is None:
            matches = self.targets.get(self._key(top), [])
            if len(matches) != 1:
                raise ValueError(
                    "%d R-matrix targets for the highest weight element %s (x) %s"
                    % (len(matches), word_str(top[0].word), word_str(top[1].word))
                )
            img = matches[0]
            self.map[top] = img
        for b, i in reversed(path):
            step = self._step(img, 2, (i,))
            if step is None:
                raise ValueError("target component is shorter than source")
            img = self.map[b] = step[1]
        return img


_tables = {}


def row_rank(letters):
    """The classical rank of the R-matrix tables for tensors of the given
    letters: two above the largest letter magnitude, and at least 3."""
    return max(3, max((abs(x) for x in letters if x), default=1) + 2)


def _table(kind, s, n):
    """The held table of (kind, s), replaced by one of rank n when its own
    rank is below n.  A pair has one image at every rank at least row_rank
    of its letters, so a query needing rank n may use any higher rank, and
    the new table starts with the old images of the pairs whose row_rank is
    at most the old rank."""
    table = _tables.get((kind, s))
    if table is None or table.n < n:
        old, table = table, RMatrixTable(kind, s, n)
        if old is not None:
            table.map.update(
                (t, img) for t, img in old.map.items() if row_rank(t[0].word + t[1].word) <= old.n
            )
        _tables[kind, s] = table
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
    """The one-row splitting: peel one box (split_one) and take the
    splitting the smaller factor holds.  One box is its own splitting, and
    a capacity-0 factor splits to the empty chain."""
    if b.cap > 1:
        letter, rest = split_one(b)
        return (letter,) + rest.splitting
    if b.cap == 1:
        return b.word or (EMPTY,)
    return ()


@lru_cache(maxsize=None)
def _box(kind, x):
    """The one-box factor holding letter x, or no letter for EMPTY."""
    return RowKR(kind, 1, () if x is EMPTY else (x,))


def split_row(factors):
    """Split a tensor of RowKR factors into a letter chain, through the row
    step tables.  Every step reads a table of at least row_rank of the
    whole tensor's letters, so that no later step of the tensor replaces a
    table an earlier step used."""
    factors = tuple(factors)
    return split_tensor(factors, partial(row_step, rank=row_rank(x for f in factors for x in f.word)))


def row_step(u, x, rank):
    """Fill u's step table at letter x (EMPTY for an empty box) from
    R(u (x) x) = x' (x) u', read on the held table of (kind, cap) brought to
    rank at least `rank` and at least row_rank of the pair.  A walk passes
    one rank for all its steps, at least that of every tensor it reaches,
    so that it builds each table once.  A one-box u steps by box_step and
    reads no table."""
    if u.cap == 1:
        return box_step(u, x)
    n = max(rank, row_rank(u.word + (x,)))
    c, u2 = _table(u.kind, u.cap, n).apply(u, _box(u.kind, x))
    return store_step(u, x, c.word[0] if c.word else EMPTY, u2)


def energy_row(factors):
    """Energy of a tensor of row factors, through the splitting map."""
    factors = tuple(factors)
    if not factors:
        return 0
    return energy_chain(split_row(factors), factors[0].kind)
