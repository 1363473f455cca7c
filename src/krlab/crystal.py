"""Classical crystal operators on letters, words, and tensor products.

Tensors are tuples with the leftmost factor first.  Column words embed as
v_k (x) ... (x) v_1 and row words as v_1 (x) ... (x) v_k.

Every tensor operator goes through one signature rule, `signature`, and
so does the affine 0-arrow on tensors of row factors in kr_row.  Reading
left to right, each factor b writes +^phi(b) -^eps(b); a - cancels the
nearest uncancelled + to its right, as an opening bracket a closing one.
What is left reads +^phi -^eps and gives the tensor's phi and eps; f acts
on the factor holding the rightmost uncancelled +, e on the factor holding
the leftmost uncancelled -.  So in x (x) y with phi(y) = eps(x), f acts on
x: f prefers the left factor on ties.

A context fixes the letter crystal: ("inf", 0) is the unbounded large-rank
alphabet used by column crystals, ("B", N), ("C", N) and ("D", N) are the
rank-N vector crystals.  Each is one crystal graph, stated once as the
table of its i-arrows (`letter_table`); a letter's phi, eps, e and f are
read off that table.
"""

from functools import lru_cache

from .letters import EMPTY, sort_word

CTX_INF = ("inf", 0)


def ctx_B(n):
    return ("B", n)


def ctx_C(n):
    return ("C", n)


def ctx_D(n):
    return ("D", n)


@lru_cache(maxsize=None)
def letter_table(i, ctx):
    """The i-arrows of the letter crystal, as {letter: ((phi, eps), e, f)}.

    The arrows form i-strings: i -> i+1 and bar(i+1) -> bar i, except at
    i = n of a finite rank, where they are n -> bar n (type C), n-1 -> bar n
    and n -> bar(n-1) (type D), and n -> 0 -> bar n (type B).  A letter's
    eps and phi are its distance from either end of its string, and e and
    f its neighbours (None past the end).  A letter on no string, EMPTY
    included, has phi = eps = 0 and is annihilated by e and f.
    """
    fam, n = ctx
    if fam == "inf" or i != n:
        strings = ((i, i + 1), (-(i + 1), -i))
    elif fam == "C":
        strings = ((n, -n),)
    elif fam == "D":
        strings = ((n - 1, -n), (n, -(n - 1)))
    else:
        strings = ((n, 0, -n),)
    table = {}
    for string in strings:
        last = len(string) - 1
        for p, x in enumerate(string):
            e = string[p - 1] if p else None
            f = string[p + 1] if p < last else None
            table[x] = ((last - p, p), e, f)
    return table


_OFF = ((0, 0), None, None)  # a letter on no i-string


def signature(pairs):
    """Kashiwara's tensor rule as a signature rule, in one pass.

    pairs lists (phi, eps) of each factor, leftmost first.  Returns
    (eps, phi, e_at, f_at): the tensor's eps and phi and the index of the
    factor e and f act on, None where the operator annihilates.
    """
    phi = 0
    f_at = None
    minus = []  # uncancelled - runs, [factor index, count], left to right
    for k, (p, e) in enumerate(pairs):
        while p and minus:
            run = minus[-1]
            if run[1] > p:
                run[1] -= p
                p = 0
            else:
                p -= run[1]
                minus.pop()
        if p:
            phi += p
            f_at = k
        if e:
            minus.append([k, e])
    e_at = minus[0][0] if minus else None
    return sum(run[1] for run in minus), phi, e_at, f_at


def signature_left(pair, reduced):
    """The signature rule one factor at a time: the (phi, eps) of b (x) T
    from pair, the (phi, eps) of b, and reduced, the (phi, eps) of T.  T
    reads +^phi -^eps, so b's eps minuses cancel up to phi of T's pluses.
    Folding a tensor's factors from the right gives signature's phi and
    eps."""
    p, e = pair
    phi, eps = reduced
    m = min(e, phi)
    return p + phi - m, e + eps - m


# ---------------------------------------------------------------------------
# tensors: a factor is a letter, EMPTY, a tuple (sub-tensor), or a KR factor
# (ColumnKR / RowKR) exposing letters() in tensor order and with_letters().


def _letters(b):
    if isinstance(b, tuple):
        return [x for f in b for x in _letters(f)]
    if b is EMPTY or isinstance(b, int):
        return [b]
    return list(b.letters())


def _size(b):
    if isinstance(b, tuple):
        return sum(_size(f) for f in b)
    if b is EMPTY or isinstance(b, int):
        return 1
    return len(b.letters())


def _put(b, k, x):
    """b with its k-th letter replaced by x; only the factor holding it is
    rebuilt."""
    if isinstance(b, tuple):
        for j, f in enumerate(b):
            size = _size(f)
            if k < size:
                return b[:j] + (_put(f, k, x),) + b[j + 1 :]
            k -= size
    if b is EMPTY or isinstance(b, int):
        return x
    letters = list(b.letters())
    letters[k] = x
    return b.with_letters(letters)


def _rule(letters, i, ctx):
    table = letter_table(i, ctx)
    return signature([table.get(x, _OFF)[0] for x in letters])


def eps(b, i, ctx=CTX_INF):
    return _rule(_letters(b), i, ctx)[0]


def phi(b, i, ctx=CTX_INF):
    return _rule(_letters(b), i, ctx)[1]


def wtpair(b, i, ctx=CTX_INF):
    e, p, _, _ = _rule(_letters(b), i, ctx)
    return p - e


def apply_e(b, i, ctx=CTX_INF):
    """e_i, or None on annihilation."""
    letters = _letters(b)
    k = _rule(letters, i, ctx)[2]
    return None if k is None else _put(b, k, letter_table(i, ctx)[letters[k]][1])


def apply_f(b, i, ctx=CTX_INF):
    letters = _letters(b)
    k = _rule(letters, i, ctx)[3]
    return None if k is None else _put(b, k, letter_table(i, ctx)[letters[k]][2])


def _max_index(letters, ctx):
    fam, n = ctx
    if fam != "inf":
        return n
    mags = [abs(x) for x in letters if x is not EMPTY and x != 0]
    return (max(mags) + 1) if mags else 1


def _first_raising(letters, ctx):
    """(i, k) for the smallest i with e_i defined, k the position of the
    letter it acts on; None at a highest weight element."""
    for i in range(1, _max_index(letters, ctx) + 1):
        k = _rule(letters, i, ctx)[2]
        if k is not None:
            return i, k
    return None


def raise_step(b, ctx=CTX_INF):
    """(i, e_i b) for the smallest i with e_i b defined, or None at a
    highest weight element."""
    letters = _letters(b)
    found = _first_raising(letters, ctx)
    if found is None:
        return None
    i, k = found
    return i, _put(b, k, letter_table(i, ctx)[letters[k]][1])


def is_hw(b, ctx=CTX_INF):
    return _first_raising(_letters(b), ctx) is None


# In the unbounded context barred letters can climb forever on inputs
# outside the anchored families, so hw gives up after this many steps.
MAX_RAISE_STEPS = 100000


def hw(b, ctx=CTX_INF, record=None):
    """Classical highest weight element of the component containing b,
    raising with the smallest available index first (raise_step).

    With record a list, the applied raising indices are appended to it.
    Raising that needs more than MAX_RAISE_STEPS steps fails loudly.
    """
    for _ in range(MAX_RAISE_STEPS + 1):
        step = raise_step(b, ctx)
        if step is None:
            return b
        i, b = step
        if record is not None:
            record.append(i)
    raise RuntimeError("raising did not terminate; use a finite-rank context")


def word_weight(letters, n):
    """Weight vector (undoubled ints) of a letter multiset, length n."""
    w = [0] * n
    for x in letters:
        if x is EMPTY or x == 0:
            continue
        if x > 0:
            w[x - 1] += 1
        else:
            w[-x - 1] -= 1
    return tuple(w)


def column_tensor(word):
    """Embedding of a strict column word, largest letter leftmost."""
    return tuple(reversed(word))


def row_tensor(word):
    """Embedding of a weak row word, smallest letter leftmost."""
    return tuple(word)


def tensor_word_e(word, i, ctx, column):
    """Apply e_i through the word embedding; None on annihilation."""
    t = column_tensor(word) if column else row_tensor(word)
    r = apply_e(t, i, ctx)
    return None if r is None else sort_word(r)


def tensor_word_f(word, i, ctx, column):
    t = column_tensor(word) if column else row_tensor(word)
    r = apply_f(t, i, ctx)
    return None if r is None else sort_word(r)
