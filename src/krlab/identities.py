"""Both sides of every theorem and recurrence, evaluated exactly, and the
registry of verification suites that checks them over grids.

Weights entering the Weyl-group oracle are doubled integers; partition
data on the combinatorial side is plain.  Bounds called two_g hold twice
the (possibly half-integral) bound g.
"""

from dataclasses import dataclass
from fractions import Fraction

from .characters import (
    char_coeff,
    lr_coef,
    twisted_branching,
)
from .charge import kostka_foulkes
from .kr_column import BOX, HDOM, VDOM
from .kr_column import vac_qt_energy  # noqa: F401  bench/tracing.py wraps this name here
from . import oscillating
from .kr_row import energy_row
from .oscillating import (
    GSSOT,
    ROW_KIND,
    SSOT,
    SSROT,
    aug,
    energy_counts,
    enumerate_chains,
    energy_of_chain,  # noqa: F401  bench/tracing.py wraps this name here
    hw_row_elements,
    strip_len,
)
from .partitions import (
    conjugate,
    get,
    is_partition,
    nn,
    norm,
    oc,
    oc_bar,
    partitions,
    partitions_upto,
    size,
)
from .polynomials import Poly, poly_str
from .qweight import kl_level_restricted, kl_poly, kl_qt_B
from .roots import is_spin, weight_str


@dataclass
class IdentityReport:
    identity: str
    params: dict
    lhs: str
    rhs: str
    equal: bool


# ---------------------------------------------------------------------------
# Lusztig side: combinatorial right-hand sides


def _chain_energies(kind, lam, mu, n, g):
    """energy_counts over the chains of Theorem C (SSOT, bound g) or B
    (GSSOT, bound g + 1/2) at rank n: shape oc(lam), weight oc_bar(mu)."""
    lam = tuple(get(lam, i) for i in range(n))
    mu = tuple(get(mu, i) for i in range(n))
    two_g = 2 * g + (1 if kind == GSSOT else 0)
    return energy_counts(kind, norm(oc(lam, g, n)), oc_bar(mu, g, n), two_g)


def thm_c_rhs(lam, mu, n, g):
    """Energy generating function over bounded chains for type C."""
    counts = {}
    for (d, _), c in _chain_energies(SSOT, lam, mu, n, g).items():
        counts[(d,)] = counts.get((d,), 0) + c
    return Poly(1, counts)


def thm_b_rhs(lam, mu, n, g):
    """q,t-energy generating function over generalized chains for type B
    spin weights: q^{(D - vac)/2} t^{vac} per chain."""
    counts = {}
    for (d, v), c in _chain_energies(GSSOT, lam, mu, n, g).items():
        if (d - v) % 2:
            raise ValueError("odd energy-vacancy gap")
        counts[((d - v) // 2, v)] = c
    return Poly(2, counts)


def rohs_bounded_len(lam, r, max_len):
    """The rohs strips of length r out of lam with bounded final length."""
    out = []
    # read from oscillating at call time: bench/tracing.py wraps it there
    for strip in oscillating._strips_from(norm(lam), r, SSROT, None):
        if len(norm(strip[2])) <= max_len:
            out.append(strip)
    return out


def _lambda_i(lam, n, i):
    """The shifted shapes of the recurrence, 1-indexed."""
    return tuple(lam[j] + 1 for j in range(i - 1)) + tuple(
        lam[j] for j in range(i, n)
    )


def morris_c(lam, mu, n):
    """Type C recurrence, one level deep, closing with the oracle."""
    if n < 2:
        raise ValueError("the recurrence needs n >= 2")
    lam = tuple(get(lam, i) for i in range(n))
    mu = tuple(get(mu, i) for i in range(n))
    mu_rest = tuple(2 * m for m in mu[1:])
    out = Poly.zero(1)
    for i in range(1, n + 1):
        total = lam[i - 1] - mu[0] + 1 - i
        if total < 0:
            continue
        li = _lambda_i(lam, n, i)
        for r in range(total % 2, total + 1, 2):
            m = (total - r) // 2
            for strip in rohs_bounded_len(li, r, n - 1):
                nu = strip[2]
                nud = tuple(2 * get(nu, j) for j in range(n - 1))
                term = kl_poly("C", n - 1, nud, mu_rest).shift((r + m,))
                out = out + (term if i % 2 == 1 else -term)
    return out


def morris_b_qt(lam, mu, n):
    """Type B spin q,t recurrence, one level deep."""
    if n < 2:
        raise ValueError("the recurrence needs n >= 2")
    lam = tuple(get(lam, i) for i in range(n))
    mu = tuple(get(mu, i) for i in range(n))
    mu_rest = tuple(2 * m + 1 for m in mu[1:])
    out = Poly.zero(2)
    for i in range(1, n + 1):
        total = lam[i - 1] - mu[0] + 1 - i
        if total < 0:
            continue
        li = _lambda_i(lam, n, i)
        for r in range(0, total + 1):
            m = total - r
            for strip in rohs_bounded_len(li, r, n - 1):
                nu = strip[2]
                nud = tuple(2 * get(nu, j) + 1 for j in range(n - 1))
                term = kl_qt_B(n - 1, nud, mu_rest).shift((r, m))
                out = out + (term if i % 2 == 1 else -term)
    return out


def add_rohs_phi(i, strip, chain, lam, mu, n, g, chain_weight=None):
    """Append the complemented strip to a chain, realizing the recurrence
    bijection; returns (new chain, new weight vector)."""
    lam = tuple(get(lam, j) for j in range(n))
    mu = tuple(get(mu, j) for j in range(n))
    li, zeta, nu = strip
    total = lam[i - 1] - mu[0] + 1 - i
    r = strip_len(strip)
    m = (total - r) // 2
    zeta_oc = tuple(g - get(zeta, n - 2 - j) for j in range(n - 1))
    mid = tuple(sorted(zeta_oc + (m,), reverse=True))
    new_strip = (
        norm(oc(nu, g, n - 1)),
        norm(mid),
        norm(oc(li, g, n - 1)),
    )
    if chain_weight is None:
        chain_weight = tuple(strip_len(s) for s in chain)
    return tuple(chain) + (new_strip,), tuple(chain_weight) + (total,)


def involution_partition(lam, mu, n, g):
    """The sets G_i of the sign-reversing involution, their two-block
    refinement, and the telescoping check data."""
    lam = tuple(get(lam, i) for i in range(n))
    mu = tuple(get(mu, i) for i in range(n))
    gs = []
    for i in range(1, n + 1):
        first = lam[i - 1] - mu[0] + 1 - i
        beta = (first,) + tuple(g - mu[j] for j in range(1, n))
        li = _lambda_i(lam, n, i)
        shape = norm(oc(li, g, n - 1))
        if first < 0:
            gs.append({"i": i, "chains": [], "g1": set(), "g2": set()})
            continue
        chains = enumerate_chains(SSOT, shape, beta, two_g=2 * g)
        g1, g2 = set(), set()
        for ch in chains:
            a = aug(ch, g - lam[i - 1] + i - 1, beta)
            tau = a[-1][2]
            if get(tau, n - i) >= g - lam[i - 1]:
                g1.add(a)
            else:
                g2.add(a)
        gs.append({"i": i, "chains": chains, "g1": g1, "g2": g2})
    return gs


# ---------------------------------------------------------------------------
# level-restricted identities

OSC_KIND = {"B": GSSOT, "C": SSOT, "D": SSROT}
DIAMOND = {t: ROW_KIND[k] for t, k in OSC_KIND.items()}
ZETA = {"B": 2, "C": 1, "D": 2}
DSIZE = {BOX: 1, HDOM: 2, VDOM: 2}


def _hat(wd, two_g, n):
    """oc as an integer partition from a doubled weight and doubled bound."""
    out = []
    for i in range(n):
        v = two_g - wd[n - 1 - i]
        if v % 2:
            raise ValueError("bound parity does not match the weight")
        out.append(v // 2)
    if not is_partition(tuple(out)):
        raise ValueError("complement is not a partition")
    return tuple(out)


def level_formula(lie_type, n, lam_d, mu_d, two_g):
    """The three expressions of the level-restriction theorem.

    lam_d, mu_d are doubled dominant weights, two_g twice the bound.
    Returns (lhs, mid, rhs) as one-variable polynomials.
    """
    lhs = kl_level_restricted(lie_type, n, lam_d, mu_d)

    lam_hat = _hat(lam_d, two_g, n)
    mu_hat = _hat(mu_d, two_g, n)

    table = twisted_branching(lie_type, n, lam_d, two_g)
    mid = Poly.zero(1)
    for kappa, d in table.items():
        if d:
            mid = mid + d * kostka_foulkes(kappa, mu_hat)

    # the g-bounded chains are exactly the elements with eps_0 <= zeta g
    rhs = xk_lhs(DIAMOND[lie_type], mu_hat, lam_hat, ZETA[lie_type] * two_g // 2)
    return lhs, mid, rhs


def p_diamond_member(kind, gamma):
    if kind == BOX:
        return True
    if kind == HDOM:
        return all(x % 2 == 0 for x in gamma)
    return all(x % 2 == 0 for x in conjugate(gamma))


def xk_lhs(kind, mu, lam, max_eps0=None):
    """The normalized energy sum over highest weight elements, with
    max_eps0 over those with eps_0 <= max_eps0 only, each listed element's
    eps_0 checked against it.  Each exponent is counted in a dict and one
    Poly built at the end."""
    two_g = None
    if max_eps0 is not None:
        two_g = 2 * max_eps0 if kind == HDOM else max_eps0
    dd = DSIZE[kind]
    base = 2 * nn(mu) + size(mu) - size(lam)
    counts = {}
    for _, tensor, e0 in hw_row_elements(kind, tuple(mu), norm(lam), two_g):
        if max_eps0 is not None and e0 > max_eps0:
            raise ValueError("a bounded element has eps_0 %d over %d" % (e0, max_eps0))
        num = base - dd * energy_row(tensor)
        if num % 2:
            raise ValueError("odd exponent in the energy sum")
        counts[num // 2] = counts.get(num // 2, 0) + 1
    return Poly(1, {(e,): c for e, c in counts.items()})


def xk_rhs_unfiltered(kind, mu, lam):
    """The Kostka-Foulkes expansion side of the unfiltered identity."""
    out = Poly.zero(1)
    for nu in partitions(size(mu), max_len=len(mu)):
        c = sum(
            lr_coef(nu, gamma, norm(lam))
            for gamma in partitions(size(mu) - size(lam))
            if p_diamond_member(kind, gamma)
        )
        if c:
            out = out + c * kostka_foulkes(nu, tuple(mu))
    return out


def xk_filter_table(kind, lam, mu, max_eps0):
    """Expand the filtered sum in the Kostka-Foulkes basis; the
    coefficients must come out as nonnegative integers."""
    mu = tuple(mu)
    lam = norm(lam)
    target = xk_lhs(kind, mu, lam, max_eps0)
    nus = [nu for nu in partitions(size(mu), max_len=len(mu))]
    basis = [kostka_foulkes(nu, mu) for nu in nus]
    keep = [i for i, b in enumerate(basis) if b.c]
    nus = [nus[i] for i in keep]
    basis = [basis[i] for i in keep]
    degrees = sorted({k for b in basis for k in b.c} | set(target.c))
    rows = len(degrees)
    mat = [[Fraction(b.c.get(d, 0)) for b in basis] for d in degrees]
    vec = [Fraction(target.c.get(d, 0)) for d in degrees]
    sol = _solve_exact(mat, vec)
    out = {}
    for nu, v in zip(nus, sol):
        if v:
            if v.denominator != 1 or v < 0:
                raise ValueError("expansion coefficient %s at %s" % (v, nu))
            out[nu] = int(v)
    return out


def _solve_exact(mat, vec):
    """Exact Gaussian elimination; requires a unique solution."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    m = [list(r) + [v] for r, v in zip(mat, vec)]
    piv = []
    rr = 0
    for c in range(cols):
        sel = None
        for r in range(rr, rows):
            if m[r][c]:
                sel = r
                break
        if sel is None:
            raise ValueError("singular expansion system")
        m[rr], m[sel] = m[sel], m[rr]
        pv = m[rr][c]
        m[rr] = [x / pv for x in m[rr]]
        for r in range(rows):
            if r != rr and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rr])]
        piv.append(c)
        rr += 1
        if rr == rows:
            break
    for r in range(rr, rows):
        if m[r][cols]:
            raise ValueError("inconsistent expansion system")
    sol = [Fraction(0)] * cols
    for r, c in enumerate(piv):
        sol[c] = m[r][cols]
    return sol


# ---------------------------------------------------------------------------
# q = 1 counting identities and the kappa-level lemmas


def count_chains(kind, shape, weight, two_g):
    return len(enumerate_chains(kind, norm(shape), tuple(weight), two_g=two_g))


def q1_count(lie_type, n, lam_d, mu_d, two_g):
    """(combinatorial count, weight multiplicity) for the q = 1 identity.

    two_g holds twice the bound, odd for spin weights, in which case the
    generalized chains see the half-integral bound directly.
    """
    kind = OSC_KIND[lie_type]
    lam_hat = _hat(lam_d, two_g, n)
    mu_hat = _hat(mu_d, two_g, n)
    cnt = count_chains(kind, lam_hat, mu_hat, two_g)
    mult = char_coeff(lie_type, n, lam_d, mu_d)
    return cnt, mult


def okada_K_B(lam, mu, r, n):
    """Multiplicity of the type B dual Pieri rule."""
    lam, mu = norm(lam), norm(mu)
    count = 0
    for xi in _vertical_strip_covers(lam, mu, n):
        s = (size(xi) - size(mu)) + (size(xi) - size(lam))
        if s not in (r, r - 1):
            continue
        if len(mu) < n:
            if s == r and len(xi) == max(len(mu), len(lam)):
                count += 1
            elif s == r - 1 and len(xi) == n:
                count += 1
        else:
            count += 1
    return count


def okada_K_D(lam, mu, r, n):
    lam, mu = norm(lam), norm(mu)
    count = 0
    for xi in _vertical_strip_covers(lam, mu, n):
        s = (size(xi) - size(mu)) + (size(xi) - size(lam))
        if s != r:
            continue
        if len(xi) in (n, len(mu), len(lam)):
            count += 1
    return count


def okada_M(lam, mu, n):
    """Doubling multiplicity of the type D dual Pieri rule: the output
    weight fills all n rows while the input does not."""
    return 2 if len(norm(lam)) == n and len(norm(mu)) < n else 1


def _vertical_strip_covers(lam, mu, n):
    """Partitions xi with xi/lam and xi/mu vertical strips, length <= n."""
    rows = min(n, max(len(lam), len(mu)) + 1)
    out = []

    def rec(i, acc):
        if i == rows:
            xi = norm(tuple(acc))
            if len(xi) <= n:
                out.append(xi)
            return
        lo = max(get(lam, i), get(mu, i))
        hi = min(get(lam, i), get(mu, i)) + 1
        if i > 0:
            hi = min(hi, acc[i - 1])
        for v in range(lo, hi + 1):
            acc.append(v)
            rec(i + 1, acc)
            acc.pop()

    rec(0, [])
    return out


# ---------------------------------------------------------------------------
# the verification registry: for each suite, its grid of instances and the
# check that computes both sides of one instance.  A grid yields (params,
# args) as plain data, so that a task (check, params, args) can be sent to
# a worker process.

Q = ("q",)
QT = ("q", "t")


def _grid(max_weight, n):
    for lam in partitions_upto(max_weight, max_len=n):
        for mu in partitions_upto(max_weight, max_len=n):
            yield lam, mu


def _dbl(lam, n, spin=False):
    return tuple(2 * get(lam, i) + (1 if spin else 0) for i in range(n))


def default_two_g(lam_d, mu_d):
    """Twice the default bound for doubled weights: max(lam_1, mu_1), at
    least 1, bumped to the right parity for spin weights."""
    two_g = max(lam_d[0], mu_d[0], 2)
    if (two_g % 2 == 1) != is_spin(lam_d):
        two_g += 1
    return two_g


def _compare(identity, params, lhs, rhs, variables):
    """A report on lhs == rhs; each side is computed once, by the caller."""
    lhs_str, rhs_str = poly_str(lhs, variables), poly_str(rhs, variables)
    return IdentityReport(identity, params, lhs_str, rhs_str, lhs == rhs)


def _thm_c_grid(max_weight, n):
    for lam, mu in _grid(max_weight, n):
        g = max(get(lam, 0), 1)
        for gg in (g, g + 1):
            params = {"n": n, "lambda": list(lam), "mu": list(mu), "g": gg}
            yield params, (n, lam, mu, gg)


def _thm_b_grid(max_weight, n):
    for lam, mu in _grid(max_weight, n):
        g = max(get(lam, 0), 1)
        params = {"n": n, "lambda": list(lam), "mu": list(mu), "g": g}
        yield params, (n, lam, mu, g)


def _morris_grid(max_weight, n):
    for lam, mu in _grid(max_weight, n):
        yield {"n": n, "lambda": list(lam), "mu": list(mu)}, (n, lam, mu)


def _bcd_grid(max_weight, n):
    """Types B, C and D (D from rank 2), spin weights too in B and D, at
    the default bound; args (lie_type, n, lam_d, mu_d, two_g)."""
    for lie_type in ("B", "C", "D"):
        if lie_type == "D" and n < 2:
            continue
        spins = (False, True) if lie_type in ("B", "D") else (False,)
        for lam, mu in _grid(max_weight, n):
            for spin in spins:
                lam_d, mu_d = _dbl(lam, n, spin), _dbl(mu, n, spin)
                two_g = default_two_g(lam_d, mu_d)
                params = {
                    "type": lie_type,
                    "n": n,
                    "lambda": weight_str(lam_d),
                    "mu": weight_str(mu_d),
                    "g": str(Fraction(two_g, 2)),
                }
                yield params, (lie_type, n, lam_d, mu_d, two_g)


def _xk_grid(max_weight, n):
    for kind, name in ((BOX, "box"), (HDOM, "hdom"), (VDOM, "vdom")):
        for mu in partitions_upto(max_weight, max_len=n):
            if not mu:
                continue
            for m in range(0, sum(mu) + 1):
                if kind in (HDOM, VDOM) and (sum(mu) - m) % 2:
                    continue
                for lam in partitions(m, max_len=n):
                    params = {"kind": name, "mu": list(mu), "lambda": list(lam)}
                    yield params, (kind, mu, lam)


def check_thm_c(params, n, lam, mu, g):
    oracle = kl_poly("C", n, _dbl(lam, n), _dbl(mu, n))
    return _compare("thm-c", params, oracle, thm_c_rhs(lam, mu, n, g), Q)


def check_thm_b(params, n, lam, mu, g):
    oracle = kl_qt_B(n, _dbl(lam, n, True), _dbl(mu, n, True))
    return _compare("thm-b", params, oracle, thm_b_rhs(lam, mu, n, g), QT)


def check_morris_c(params, n, lam, mu):
    oracle = kl_poly("C", n, _dbl(lam, n), _dbl(mu, n))
    return _compare("morris-c", params, oracle, morris_c(lam, mu, n), Q)


def check_morris_b(params, n, lam, mu):
    oracle = kl_qt_B(n, _dbl(lam, n, True), _dbl(mu, n, True))
    return _compare("morris-b", params, oracle, morris_b_qt(lam, mu, n), QT)


def check_level(params, *args):
    lhs, mid, rhs = level_formula(*args)
    mid_rhs = "%s / %s" % (poly_str(mid, Q), poly_str(rhs, Q))
    equal = lhs == mid == rhs
    return IdentityReport("level", params, poly_str(lhs, Q), mid_rhs, equal)


def check_xk(params, kind, mu, lam):
    lhs, rhs = xk_lhs(kind, mu, lam), xk_rhs_unfiltered(kind, mu, lam)
    return _compare("xk", params, lhs, rhs, Q)


def check_q1(params, *args):
    cnt, mult = q1_count(*args)
    return IdentityReport("q1", params, str(cnt), str(mult), cnt == mult)


SUITES = {
    "thm-c": (_thm_c_grid, check_thm_c),
    "thm-b": (_thm_b_grid, check_thm_b),
    "morris-c": (_morris_grid, check_morris_c),
    "morris-b": (_morris_grid, check_morris_b),
    "level": (_bcd_grid, check_level),
    "xk": (_xk_grid, check_xk),
    "q1": (_bcd_grid, check_q1),
}

# the lowest rank of each suite above 1: the recurrences peel one row off mu
MIN_RANK = {"morris-c": 2, "morris-b": 2}


def suite_tasks(suite, max_weight, n):
    """The suite's instances at rank n and |lambda|, |mu| <= max_weight, as
    (check, params, args) tasks in a fixed order."""
    grid, check = SUITES[suite]
    return [(check, params, args) for params, args in grid(max_weight, n)]


def run_task(task):
    """The IdentityReport of one task from suite_tasks."""
    check, params, args = task
    return check(params, *args)
