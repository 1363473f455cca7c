"""Kostka-Foulkes polynomials through the charge statistic on tableaux."""

from collections import Counter
from functools import lru_cache

from .partitions import contains, get, horizontal_strips_above, is_partition, norm
from .polynomials import Poly


def charge(word):
    """Charge of a word with partition content, in one cyclic scan per
    standard subword.

    Scan right to left cyclically: take the first 1, then the first 2 to the
    left of it, and so on, and remove the subword taken.  A letter found
    only after wrapping round has index one more than the letter before it
    (1 has index 0); the charge is the sum of the indices of all letters.
    The content is checked once: taking one of each letter 1..m keeps it a
    partition, so every scan finds its letter.
    """
    word = list(word)
    content = [word.count(v) for v in range(1, max(word, default=0) + 1)]
    if sum(content) != len(word) or 0 in content or content != sorted(content, reverse=True):
        raise ValueError("content must be a partition")
    total = 0
    while word:
        picked = set()
        pos = len(word)
        idx = 0
        for need in range(1, max(word) + 1):
            left = [j for j in range(pos) if word[j] == need]
            if not left:  # wrap round to the right end
                idx += 1
                left = [j for j in range(pos, len(word)) if word[j] == need]
            pos = left[-1]
            picked.add(pos)
            total += idx
        word = [x for j, x in enumerate(word) if j not in picked]
    return total


def ssyt_chains(shape, cells):
    """Chains () = c_0 <= ... <= c_l = shape of horizontal strips, strip i
    adding between cells[i] = (lo, hi) cells; each chain is one
    semistandard tableau."""
    shape = norm(shape)
    out = []
    _ssyt_walk([()], shape, cells, out)
    return out


def _ssyt_walk(chain, shape, cells, out):
    """Append to out every chain of ssyt_chains that extends chain."""
    cur = chain[-1]
    level = len(chain) - 1
    if level == len(cells):
        if norm(cur) == shape:
            out.append(tuple(chain))
        return
    for nxt in horizontal_strips_above(cur, cap=get(shape, 0), cells=cells[level]):
        if contains(shape, nxt):
            _ssyt_walk(chain + [nxt], shape, cells, out)


def chain_to_rows(chain):
    rows = [[] for _ in range(len(chain[-1]))]
    for lev in range(1, len(chain)):
        prev, cur = chain[lev - 1], chain[lev]
        for i in range(len(cur)):
            for _ in range(get(cur, i) - get(prev, i)):
                rows[i].append(lev)
    return tuple(tuple(r) for r in rows if r)


def ssyt(shape, content):
    """Semistandard tableaux of the given shape and content, as row tuples."""
    return [chain_to_rows(c) for c in ssyt_chains(shape, [(r, r) for r in content])]


def reading_word(tab):
    """Row reading word, bottom row first, each row left to right."""
    out = []
    for row in reversed(tab):
        out.extend(row)
    return out


@lru_cache(maxsize=None)
def kostka_foulkes(lam, mu):
    """K_{lam,mu}(q) = sum of q^charge over SSYT(lam, mu).

    mu may be any nonnegative integer vector; the polynomial only depends on
    the sorted content.
    """
    lam = norm(lam)
    mu_sorted = tuple(sorted((m for m in mu if m), reverse=True))
    if sum(lam) != sum(mu_sorted):
        return Poly.zero(1)
    if not is_partition(lam):
        raise ValueError("shape must be a partition")
    counts = Counter(charge(reading_word(t)) for t in ssyt(lam, mu_sorted))
    return Poly(1, {(c,): k for c, k in counts.items()})


def kostka_foulkes_sum(coeffs, mu):
    """sum of d K_{kappa,mu}(q) over the (kappa, d) in coeffs.

    A kappa of another size than mu has no tableau of content mu, so its
    term is zero and is skipped before K is looked up.  The coefficients
    are added in one dict and one Poly built at the end.
    """
    m = sum(mu)
    acc = {}
    for kappa, d in coeffs.items():
        if d and sum(kappa) == m:
            for k, v in kostka_foulkes(kappa, mu).c.items():
                acc[k] = acc.get(k, 0) + d * v
    return Poly(1, acc)
