"""The barred-unbarred letter alphabet, column words, and the red map.

A letter is an int: m > 0 is unbarred m, m < 0 is barred |m|, 0 is the
zero-letter (row crystals only).  The total order is
1 < 2 < ... < 0 < ... < bar2 < bar1, with the zero-letter in the middle.
The empty one-box factor is represented by None in split chains.
"""

from itertools import combinations

EMPTY = None  # the empty one-box factor

# The rank of the zero-letter: above every unbarred and below every barred
# letter, for letters of magnitude below MID; parse_word rejects larger ones.
MID = 1 << 28


def key(x):
    """Integer rank in the letter order: EMPTY is -1, unbarred m is m, the
    zero-letter is MID and barred x (x < 0) is 2 MID + x."""
    if x is EMPTY:
        return -1
    if x > 0:
        return x
    return 2 * MID + x if x else MID


def prec(x, y):
    """x strictly precedes y."""
    return key(x) < key(y)


def letter_str(x):
    if x is EMPTY:
        return "[]"
    return str(x)


def word_str(w):
    if not w:
        return "[]"
    return ",".join(letter_str(x) for x in w)


def parse_word(text):
    """Parse '2,4,-2' into a letter tuple; '[]' or '' is the empty word.

    A letter of magnitude MID or more raises ValueError: key orders only
    the letters below it.
    """
    text = text.strip()
    if text in ("[]", ""):
        return ()
    w = tuple(int(p) for p in text.split(","))
    if any(abs(x) >= MID for x in w):
        raise ValueError("letters must have magnitude below %d" % MID)
    return w


def sort_word(letters):
    return tuple(sorted(letters, key=key))


def _worst_pair(w):
    """The i of the (i, bar-i) pair of w that offends admissibility most, or None:
    largest excess #(below i) + #(above bar-i) - i >= -1, smallest i on ties.
    Each letter's key rank is read once: the letters below i are the ranks
    below i, and those above bar-i the ranks above 2 MID - i."""
    s = set(w)
    ranks = [key(c) for c in w]
    worst = None
    for x in sorted(c for c in s if c > 0 and -c in s):
        top = 2 * MID - x
        excess = sum(r < x for r in ranks) + sum(r > top for r in ranks) - x
        if excess >= -1 and (worst is None or excess > worst[0]):
            worst = (excess, x)
    return None if worst is None else worst[1]


def is_admissible(w):
    """Column admissibility: for every i with i and bar-i both present,
    #(letters below i) + #(letters above bar-i) < i - 1."""
    return _worst_pair(w) is None


def red(w):
    """Reduce to an admissible word by deleting offending (i, bar-i) pairs,
    the worst first (_worst_pair) until none is left."""
    w = sort_word(w)
    while (x := _worst_pair(w)) is not None:
        w = tuple(c for c in w if c not in (x, -x))
    return w


def unred(w, r):
    """The unique strict word of length len(w) + 2r reducing to w.

    Search over insertions of r disjoint (m, bar-m) pairs; magnitudes are
    bounded because a deleted pair needs enough letters around it.
    """
    w = sort_word(w)
    if not is_admissible(w):
        raise ValueError("unred needs an admissible word")
    if r == 0:
        return w
    k = len(w) + 2 * r
    used = {abs(x) for x in w}
    candidates = [m for m in range(1, k + 1) if m not in used]
    found = None
    for ms in combinations(candidates, r):
        cand = sort_word(w + tuple(ms) + tuple(-m for m in ms))
        if red(cand) == w:
            if found is not None:
                raise ValueError("unred is not unique for %r" % (w,))
            found = cand
    if found is None:
        raise ValueError("no unred preimage for %r, r=%d" % (w, r))
    return found
