"""The benchmark's instance lists and the per-instance work.

Every instance list is fixed; a seed only permutes the order in which the
instances run.  Seed 0 keeps the canonical order; any other seed gives each
pass of a run its own shuffled order, so that which instance pays for a
shared table averages out over the passes.  oracle keeps its ladder order
under every seed: all its instances share qweight's one memo table, which
grows to about 370k states, and with a shuffled order an instance's time
moved up to fivefold with its position (the garbage collector walks the
memo), so its percentiles measured the order.

thm-c at n = 4 and level at n = 3 stop at |lambda|, |mu| <= 4 so that a
run holds many passes of each, whose medians ride out the machine's
drifts: with a bound of 5, a pass took 29 s (thm-c) and 13 s (level) on a
2-vCPU Xeon sandbox.

Each instance calls krlab's public functions, renders its result exactly,
and says whether its own check held.  The rendered outputs, taken in
canonical order, give the workload's digest.
"""

import hashlib
import random

from krlab.identities import level_formula, q1_count, thm_c_rhs
from krlab.partitions import get, partitions_upto
from krlab.polynomials import poly_str
from krlab.qweight import kl_poly, kl_qt_B
from krlab.roots import is_spin

Q = ("q",)
QT = ("q", "t")


def _grid(max_weight, n):
    parts = partitions_upto(max_weight, max_len=n)
    return [(lam, mu) for lam in parts for mu in parts]


def _dbl(lam, n, spin=False):
    return tuple(2 * get(lam, i) + (1 if spin else 0) for i in range(n))


def _default_two_g(lam_d, mu_d):
    """Twice the bound krlab's level suite uses: max(lam_1, mu_1, 1), moved
    to the parity of the weights."""
    two_g = max(lam_d[0], mu_d[0], 2)
    if (two_g % 2 == 1) != is_spin(lam_d):
        two_g += 1
    return two_g


def _fmt(vec):
    return ",".join(str(x) for x in vec)


# ---------------------------------------------------------------------------
# thm-c: Theorem C, oracle against the energy sum over bounded chains


def _thm_c(n, lam, mu, g):
    lhs = kl_poly("C", n, _dbl(lam, n), _dbl(mu, n))
    rhs = thm_c_rhs(lam, mu, n, g)
    return poly_str(lhs, Q), lhs == rhs


def _thm_c_instances(grid):
    out = []
    for n, max_weight in grid:
        for lam, mu in _grid(max_weight, n):
            g = max(get(lam, 0), 1)
            for gg in (g, g + 1):
                key = "C%d lambda=%s mu=%s g=%d" % (n, _fmt(lam), _fmt(mu), gg)
                out.append((key, _thm_c, (n, lam, mu, gg)))
    return out


# ---------------------------------------------------------------------------
# oracle: the Weyl alternating sum alone, on the rank ladder


def _kl(lie_type, n, lam_d):
    return poly_str(kl_poly(lie_type, n, lam_d, (0,) * n), Q), None


def _kl_qt(n, lam_d, mu_d):
    return poly_str(kl_qt_B(n, lam_d, mu_d), QT), None


# (type, plain lambda) with mu = 0; coordinates are doubled for the call.
# The small families run first, so that their times are not those of the
# collector walking the C ladder's memo.
ORACLE_LADDER = (
    ("D", (2, 1, 1, 0, 0)),
    ("D", (4, 2, 2, 0, 0)),
    ("D", (4, 4, 2, 0, 0)),
    ("C", (4, 2, 2, 0)),
    ("C", (3, 2, 1, 1, 1)),
    ("C", (4, 4, 2, 2, 0)),
    ("C", (2, 2, 1, 1, 0, 0)),
)
# Type B q,t spin weights, doubled, against mu = (1/2, ..., 1/2).
ORACLE_SPIN = (
    (7, 3, 1, 1),
    (5, 3, 1, 1, 1),
)


def _oracle_instances(ladder, spin):
    out = []
    for lam_d in spin:
        n = len(lam_d)
        key = "Bqt%d lambda=%s/2 mu=1/2" % (n, _fmt(lam_d))
        out.append((key, _kl_qt, (n, lam_d, (1,) * n)))
    for lie_type, lam in ladder:
        n = len(lam)
        key = "%s%d lambda=%s mu=0" % (lie_type, n, _fmt(lam))
        out.append((key, _kl, (lie_type, n, _dbl(lam, n))))
    return out


# ---------------------------------------------------------------------------
# level: the three-way level-restriction identity and the q = 1 count


def _level(lie_type, n, lam_d, mu_d, two_g):
    lhs, mid, rhs = level_formula(lie_type, n, lam_d, mu_d, two_g)
    cnt, mult = q1_count(lie_type, n, lam_d, mu_d, two_g)
    return "%s count=%d" % (poly_str(lhs, Q), cnt), lhs == mid == rhs and cnt == mult


def _level_instances(n, max_weight):
    out = []
    for lie_type in ("B", "C", "D"):
        for lam, mu in _grid(max_weight, n):
            for spin in (False, True) if lie_type in ("B", "D") else (False,):
                lam_d, mu_d = _dbl(lam, n, spin), _dbl(mu, n, spin)
                two_g = _default_two_g(lam_d, mu_d)
                key = "%s%d lambda=%s/2 mu=%s/2 2g=%d" % (
                    lie_type, n, _fmt(lam_d), _fmt(mu_d), two_g)
                out.append((key, _level, (lie_type, n, lam_d, mu_d, two_g)))
    return out


def instances(workload, tiny=False):
    """The canonical instance list: (key, function, arguments) triples.

    tiny selects a few-second version of each list for the smoke test.
    """
    if workload == "thm-c":
        return _thm_c_instances(((2, 2),) if tiny else ((3, 6), (4, 4)))
    if workload == "oracle":
        if tiny:
            return _oracle_instances(ORACLE_LADDER[:1] + ORACLE_LADDER[3:4], ORACLE_SPIN[:1])
        return _oracle_instances(ORACLE_LADDER, ORACLE_SPIN)
    if workload == "level":
        return _level_instances(2, 2) if tiny else _level_instances(3, 4)
    raise ValueError("unknown workload %r" % (workload,))


def run_order(workload, count, seed, pass_no=0):
    """Instance indices in run order for one pass of a run."""
    order = list(range(count))
    if seed and workload != "oracle":
        random.Random(seed * 1000003 + pass_no).shuffle(order)
    return order


def digest(outputs):
    """sha256 over 'key<TAB>output' lines in canonical order."""
    h = hashlib.sha256()
    for key, text in outputs:
        h.update(("%s\t%s\n" % (key, text)).encode())
    return h.hexdigest()
