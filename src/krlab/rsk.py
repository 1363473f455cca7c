"""Insertion algorithms on distinct-entry tableaux, two-line arrays, Burge's
algorithm, the alpha/beta truncation operators, and the oscillating-tableau
correspondence with its boundedness criterion, plus the word rewriting used
for the vertical-domino filtration.

Tableaux are tuples of row tuples with strictly increasing rows and columns
and pairwise distinct entries.  Column insertion and deletion are row
insertion and deletion on the transposed tableau.
"""

from bisect import bisect_left, bisect_right
from functools import lru_cache

from .crystal import ctx_D, hw, word_weight
from .letters import key
from .partitions import added_cell, norm


def tab_shape(t):
    return tuple(len(r) for r in t)


def is_distinct_tableau(t):
    seen = set()
    for r, row in enumerate(t):
        for c, v in enumerate(row):
            if v in seen:
                return False
            seen.add(v)
            if c + 1 < len(row) and row[c + 1] <= v:
                return False
            if r + 1 < len(t) and c < len(t[r + 1]) and t[r + 1][c] <= v:
                return False
    return all(len(a) >= len(b) for a, b in zip(t, t[1:]))


def _bump(row, x):
    """Row-insert x into one weakly increasing row, a list, in place: the
    0-based column x lands in and the entry it bumps, or None."""
    c = bisect_right(row, x)
    bumped = row[c] if c < len(row) else None
    row[c:c + 1] = [x]
    return c, bumped


def row_insert(t, x):
    """(T <- x): bump the leftmost larger entry down the rows."""
    rows = [list(r) for r in t]
    for row in rows:
        x = _bump(row, x)[1]
        if x is None:
            break
    else:
        rows.append([x])
    return tuple(tuple(r) for r in rows)


def column_insert(x, t):
    """(x -> T): bump the topmost larger entry across the columns."""
    return _transpose(row_insert(_transpose(t), x))


def _transpose(t):
    """The tableau whose rows are the columns of t."""
    return tuple(
        tuple(row[c] for row in t if c < len(row)) for c in range(len(t[0]) if t else 0)
    )


def row_delete(t, cell):
    """Inverse of row insertion ending at the given corner (r, c); returns
    (tableau, bumped-out entry)."""
    r, c = cell
    rows = [list(x) for x in t]
    if c != len(rows[r]) - 1 or (r + 1 < len(rows) and len(rows[r + 1]) > c):
        raise ValueError("not a corner cell")
    y = rows[r].pop(c)
    if not rows[r]:
        rows.pop(r)
    for row in reversed(rows[:r]):
        pos = bisect_left(row, y) - 1  # the rightmost entry smaller than y
        if pos < 0:
            raise ValueError("deletion path broke")
        row[pos], y = y, row[pos]
    return tuple(tuple(x) for x in rows), y


def column_delete(t, cell):
    """Inverse of column insertion ending at the given corner."""
    r, c = cell
    t, y = row_delete(_transpose(t), (c, r))
    return _transpose(t), y


def row_insert_word(t, word):
    for x in word:
        t = row_insert(t, x)
    return t


def column_insert_word(word, t):
    for x in reversed(word):
        t = column_insert(x, t)
    return t


def column_reading_word(t):
    """Columns left to right, each bottom to top."""
    out = []
    for col in _transpose(t):
        out.extend(reversed(col))
    return tuple(out)


# ---------------------------------------------------------------------------
# two-line arrays


def check_tl(cols):
    """Validity of a two-line array given as ((j, i), ...)."""
    js = [j for j, i in cols]
    if any(j < i for j, i in cols):
        return False
    if any(a >= b for a, b in zip(js, js[1:])):
        return False
    flat = [x for j, i in cols for x in ((j,) if j == i else (j, i))]
    return len(flat) == len(set(flat))


def bar(cols):
    """Add the flipped column (i, j) for every strict column (j, i)."""
    out = list(cols)
    for j, i in cols:
        if j > i:
            out.append((i, j))
    out.sort()
    return tuple(out)


def hat(cols):
    return tuple((j, i) for j, i in cols if j != i)


def tab(cols):
    """Column-insert the bottom line into the empty tableau, leftmost letter
    first."""
    return column_insert_word([i for j, i in reversed(cols)], ())


def burge(cols):
    """Burge's construction of tab(bar I) directly from I."""
    t = ()
    for j, i in cols:
        if j == i:
            t = column_insert(i, t)
        else:
            t2 = column_insert(i, t)
            cell = added_cell(tab_shape(t2), tab_shape(t))
            t = _add_cell_below(t2, cell[1] + 1, j)
    return t


def _add_cell_below(t, col, val):
    return _place(t, (sum(len(row) > col for row in t), col), val)


def inverse_burge(t):
    """The unique I in TL(r) with tab(bar I) = t, by reversing Burge."""
    cols = []
    t = tuple(tuple(r) for r in t)
    while t:
        m = max(v for row in t for v in row)
        r, c = next(
            (r, c) for r in range(len(t)) for c in range(len(t[r])) if t[r][c] == m
        )
        # the maximal entry ends its row, so it is a corner
        t = tuple(x for x in t[:r] + (t[r][:c],) + t[r + 1 :] if x)
        if c == 0:
            cols.append((m, m))
        else:
            bottom = sum(len(row) >= c for row in t) - 1
            t, d = column_delete(t, (bottom, c - 1))
            cols.append((m, d))
    cols.reverse()
    return tuple(cols)


def alpha(t):
    return tab(inverse_burge(t))


def beta(t):
    return tab(hat(inverse_burge(t)))


def truncate(t, k):
    """First k columns of every row."""
    return tuple(tuple(row[:k]) for row in t if row[:k])


def _first_row(word):
    """Yield per letter _bump's column (1-based) and bumped entry in the first
    row of row insertion, which changes independently of the rows below it."""
    row = []
    for x in word:
        c, bumped = _bump(row, x)
        yield c + 1, bumped


def second(word):
    """Letters bumped out of the first row while row-inserting the word."""
    return tuple(b for _, b in _first_row(word) if b is not None)


def lseq(word):
    """The recursive left subsequence through the first-row columns."""
    cols = [c for c, _ in _first_row(word)]
    ell = cols[-1]
    idx = [None] * (ell + 1)
    idx[ell] = len(word) - 1
    for k in range(ell, 1, -1):
        best = None
        for i in range(idx[k]):
            if word[i] < word[idx[k]] and cols[i] == k - 1:
                best = i
                break
        if best is None:
            raise ValueError("lseq construction failed")
        idx[k - 1] = best
    return tuple(word[idx[k]] for k in range(1, ell + 1))


# ---------------------------------------------------------------------------
# the oscillating correspondence Phi^{BC}


def phi_bc_stage1(chain):
    """Walk a one-cell chain (G_0, ..., G_n): grow cells with their step
    number, record stalls as equal columns, and row-delete shrink steps."""
    t = ()
    cols = []
    prev = norm(chain[0])
    for j, cur in enumerate(chain[1:], start=1):
        cur = norm(cur)
        if sum(cur) == sum(prev) + 1:
            cell = added_cell(cur, prev)
            t = _place(t, cell, j)
        elif cur == prev:
            cols.append((j, j))
        elif sum(cur) == sum(prev) - 1:
            cell = added_cell(prev, cur)
            t, x = row_delete(t, cell)
            cols.append((j, x))
        else:
            raise ValueError("steps must move at most one cell")
        prev = cur
    return t, tuple(cols)


def _place(t, cell, val):
    r, c = cell
    rows = [list(x) for x in t]
    while len(rows) <= r:
        rows.append([])
    if len(rows[r]) != c:
        raise ValueError("cell not addable")
    rows[r].append(val)
    return tuple(tuple(x) for x in rows)


def phi_bc(chain):
    """The full correspondence: (P, Q) with P a distinct tableau and Q a
    transposed LR filling of shape(P) / shape(G_n) labelled by the column
    number of the inserted letters."""
    t, cols = phi_bc_stage1(chain)
    y = tab(bar(cols))
    word = column_reading_word(y)
    col_of = {}
    for c, col in enumerate(_transpose(y), start=1):
        for v in col:
            col_of[v] = c
    p = t
    q = {}
    for x in word:
        p2 = row_insert(p, x)
        cell = added_cell(tab_shape(p2), tab_shape(p))
        q[cell] = col_of[x]
        p = p2
    return p, q


def q_entries(q):
    """The label placements as a sorted tuple of (row, col, entry)."""
    return tuple(sorted((r, c, v) for (r, c), v in q.items()))


def bound_from_q(q, lam, two_g):
    """The column criterion equivalent to c(G) <= g.

    two_g holds 2g = 2m - k with k in {0, 1}; odd labels 2i+1 must sit in
    column m+i or left, even labels 2i in column m+i-k or left, and the
    first row of lam must fit in m-k.
    """
    k = two_g % 2
    m = (two_g + k) // 2
    if norm(lam) and norm(lam)[0] > m - k:
        return False
    for (r, c), v in q.items():
        col = c + 1
        if v % 2 == 1:
            if col > m + (v - 1) // 2:
                return False
        else:
            if col > m + v // 2 - k:
                return False
    return True


# ---------------------------------------------------------------------------
# word rewriting for the vertical-domino filtration


@lru_cache(maxsize=None)
def plactic_rules(n):
    """The four families of length-three rewriting rules at rank n, as a
    tuple of (name, lhs, rhs) triples over the letter alphabet of D_n."""
    rules = []
    letters = list(range(1, n + 1)) + [-i for i in range(n, 0, -1)]
    for x in letters:
        for y in letters:
            for z in letters:
                if x != -z and key(x) <= key(y) < key(z):
                    rules.append(("R1", (x, z, y), (z, x, y)))
                if x != -z and key(x) < key(y) <= key(z):
                    rules.append(("R1", (y, z, x), (y, x, z)))
    for x in range(2, n + 1):
        for y in letters:
            if key(x) <= key(y) <= key(-x):
                rules.append(("R2", (x - 1, -(x - 1), y), (x, -x, y)))
                rules.append(("R2", (y, -x, x), (y, x - 1, -(x - 1))))
    for x in range(1, n):
        rules.append(("R3", (n, -x, -n), (n, -n, -x)))
        rules.append(("R3", (-n, -x, n), (-n, n, -x)))
        rules.append(("R3", (x, n, -n), (n, x, -n)))
        rules.append(("R3", (x, -n, n), (-n, x, n)))
    rules.append(("R4", (-n, -n, n), (-n, n - 1, -(n - 1))))
    rules.append(("R4", (n, n, -n), (n, n - 1, -(n - 1))))
    rules.append(("R4", (n - 1, -(n - 1), -n), (n, -n, -n)))
    rules.append(("R4", (n - 1, -(n - 1), n), (-n, n, n)))
    return tuple(rules)


def same_position(v, w, n):
    """Whether two words sit at the same place of isomorphic classical
    components of the rank-n type D letter crystal: equal raising paths to
    tops of equal weight."""
    ctx = ctx_D(n)
    path_v, path_w = [], []
    top_v = hw(tuple(v), ctx, record=path_v)
    top_w = hw(tuple(w), ctx, record=path_w)
    return path_v == path_w and word_weight(top_v, n) == word_weight(top_w, n)


def _rewrites(word, rules, pos, n):
    """The rewrites of the three letters at pos, one per matching rule: an
    lhs match is replaced by the rhs, else an rhs match by the lhs.

    The printed side conditions over-apply at the boundary, so a pattern
    match must also preserve the crystal position to count as the relation.
    """
    here = word[pos : pos + 3]
    for _, lhs, rhs in rules:
        if here in (lhs, rhs):
            out = word[:pos] + (rhs if here == lhs else lhs) + word[pos + 3 :]
            if same_position(word, out, n):
                yield out


def plactic_rewrite(word, rule, pos, n):
    """Apply one named rewrite at a position, in either direction."""
    word = tuple(word)
    rules = [r for r in plactic_rules(n) if r[0] == rule]
    for out in _rewrites(word, rules, pos, n):
        return out
    raise ValueError("no %s match at position %d" % (rule, pos))


def plactic_neighbors(word, n):
    """All single-rewrite neighbours of a word."""
    word = tuple(word)
    rules = plactic_rules(n)
    return {out for pos in range(len(word) - 2) for out in _rewrites(word, rules, pos, n)}


def theta_1n(word, n):
    """The letterwise relabelling c -> bar(n+1-c), bar c -> n+1-c."""
    out = []
    for x in word:
        if x > 0:
            out.append(-(n + 1 - x))
        else:
            out.append(n + 1 + x)
    return tuple(out)
