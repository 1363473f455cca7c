"""Kostka-Foulkes polynomials through the charge statistic on tableaux."""

from collections import Counter
from functools import lru_cache

from .partitions import contains, get, horizontal_strips_above, is_partition, norm
from .polynomials import Poly


def charge_standard(word):
    """Charge of a word containing each of 1..m exactly once."""
    pos = {v: i for i, v in enumerate(word)}
    idx = 0
    total = 0
    for v in range(2, len(word) + 1):
        if pos[v] > pos[v - 1]:
            idx += 1
        total += idx
    return total


def charge(word):
    """Charge of a word with partition content, by standard-subword extraction.

    Scan right to left cyclically: take the first 1, then the first 2 to the
    left of it, and so on; each extracted subword is standard and contributes
    its own charge.
    """
    word = list(word)
    total = 0
    while word:
        m = max(word)
        content = [word.count(v) for v in range(1, m + 1)]
        if min(content) <= 0 or any(a < b for a, b in zip(content, content[1:])):
            raise ValueError("content must be a partition")
        picked = set()
        order = []
        i = len(word) - 1
        need = 1
        scanned = 0
        while need <= m:
            if word[i] == need and i not in picked:
                picked.add(i)
                order.append(i)
                need += 1
                scanned = 0
            i = i - 1 if i > 0 else len(word) - 1
            scanned += 1
            if scanned > 2 * len(word) + 2:
                raise ValueError("extraction failed")
        sub = [word[j] for j in sorted(picked)]
        total += charge_standard(sub)
        for j in sorted(picked, reverse=True):
            word.pop(j)
    return total


def ssyt_chains(shape, cells):
    """Chains () = c_0 <= ... <= c_l = shape of horizontal strips, strip i
    adding between cells[i] = (lo, hi) cells; each chain is one
    semistandard tableau."""
    shape = norm(shape)
    out = []

    def rec(level, chain):
        cur = chain[-1]
        if level == len(cells):
            if norm(cur) == shape:
                out.append(tuple(chain))
            return
        for nxt in horizontal_strips_above(cur, cap=get(shape, 0), cells=cells[level]):
            if not contains(shape, nxt):
                continue
            rec(level + 1, chain + [nxt])

    rec(0, [()])
    return out


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
