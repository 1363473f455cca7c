"""Command-line front end: compute polynomials, enumerate chains, evaluate
energies, and run verification suites.

Exit codes: 0 on success, 1 when a verification suite finds a mismatch,
2 on usage errors and bad input, with a one-line message on stderr.
"""

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

from .identities import (
    IdentityReport,
    level_formula,
    morris_b_qt,
    morris_c,
    q1_count,
    thm_b_rhs,
    thm_c_rhs,
    xk_lhs,
    xk_rhs_unfiltered,
)
from .kr_column import BOX, HDOM, VDOM, ColumnKR, energy_col, vac, vac_qt_energy
from .kr_row import RowKR, energy_row
from .letters import parse_word
from .oscillating import GSSOT, SSOT, SSROT, enumerate_chains
from .partitions import get, is_partition, norm, partitions_upto
from .polynomials import poly_str
from .qweight import kl_poly, kl_qt_B
from .roots import is_dominant, is_spin, parse_weight, weight_str


class BadInput(Exception):
    """Input the commands cannot take; main() prints it and exits 2."""


def _rank(n):
    if n < 1:
        raise BadInput("--n must be a positive rank, got %d" % n)
    return n


def _weights(args, lie_type):
    """--lambda and --mu as doubled weights of rank --n, each dominant."""
    n = _rank(args.n)
    out = []
    for flag, text in (("--lambda", args.lam), ("--mu", args.mu)):
        try:
            w = parse_weight(text, n)
        except (ValueError, ZeroDivisionError) as e:
            raise BadInput("%s %s: %s" % (flag, text, e)) from None
        if not is_dominant(lie_type, n, w):
            raise BadInput("%s %s is not a dominant weight of type %s%d" % (flag, text, lie_type, n))
        out.append(w)
    if is_spin(out[0]) != is_spin(out[1]):
        raise BadInput("--lambda and --mu must both be spin weights or neither")
    return out


def _two_g(text):
    """Twice the bound given as --g; g must be a half-integer >= 0."""
    try:
        f = Fraction(text) * 2
    except (ValueError, ZeroDivisionError):
        f = None
    if f is None or f.denominator != 1 or f < 0:
        raise BadInput("--g %s must be a nonnegative half-integer" % text)
    return int(f)


def _ints(flag, text):
    try:
        return tuple(int(x) for x in text.split(",")) if text else ()
    except ValueError:
        raise BadInput("%s %s must be comma-separated integers" % (flag, text)) from None


def _default_two_g(lam_d, mu_d):
    """Twice the default bound: max(lam_1, mu_1), at least 1, bumped to the
    right parity for spin weights."""
    two_g = max(lam_d[0] if lam_d else 0, mu_d[0] if mu_d else 0, 2)
    spin = is_spin(lam_d)
    if (two_g % 2 == 1) != spin:
        two_g += 1
    return two_g


def _parse_g(text, spin):
    two_g = _two_g(text)
    if (two_g % 2 == 1) != spin:
        raise BadInput("--g %s must be %s for these weights" % (text, "half an odd integer" if spin else "an integer"))
    return two_g


def _emit_poly(args, rendered, params):
    if getattr(args, "format", "text") == "json":
        print(json.dumps({"params": params, "poly": rendered}, sort_keys=True))
    else:
        print(rendered)
    return 0


def cmd_kl(args):
    n = args.n
    lam, mu = _weights(args, args.type)
    tag = "levelA" if args.level else "one"
    p = kl_poly(args.type, n, lam, mu, tag)
    params = {
        "type": args.type,
        "n": n,
        "lambda": weight_str(lam),
        "mu": weight_str(mu),
        "level": bool(args.level),
    }
    return _emit_poly(args, poly_str(p, ("q",)), params)


def cmd_kl_qt(args):
    n = args.n
    lam, mu = _weights(args, "B")
    p = kl_qt_B(n, lam, mu)
    params = {"n": n, "lambda": weight_str(lam), "mu": weight_str(mu)}
    return _emit_poly(args, poly_str(p, ("q", "t")), params)


def cmd_level(args):
    n = args.n
    lam, mu = _weights(args, args.type)
    two_g = _parse_g(args.g, is_spin(lam)) if args.g else _default_two_g(lam, mu)
    if two_g < max(lam[0], mu[0]):
        raise BadInput("--g %s is below lambda_1 or mu_1" % args.g)
    lhs, mid, rhs = level_formula(args.type, n, lam, mu, two_g)
    payload = {
        "identity": "level-formula",
        "params": {"type": args.type, "n": n, "lambda": weight_str(lam), "mu": weight_str(mu), "g": str(Fraction(two_g, 2))},
        "lhs": poly_str(lhs, ("q",)),
        "mid": poly_str(mid, ("q",)),
        "rhs": poly_str(rhs, ("q",)),
        "equal": lhs == mid == rhs,
    }
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print("lhs: %s" % payload["lhs"])
        print("mid: %s" % payload["mid"])
        print("rhs: %s" % payload["rhs"])
        print("equal: %s" % payload["equal"])
    return 0 if payload["equal"] else 1


_KINDS = {"ssot": SSOT, "gssot": GSSOT, "ssrot": SSROT}


def cmd_enumerate(args):
    kind = _KINDS[args.kind]
    shape = _ints("--shape", args.shape)
    weight = _ints("--weight", args.weight)
    if not is_partition(shape):
        raise BadInput("--shape %s is not a partition" % args.shape)
    if any(w < 0 for w in weight):
        raise BadInput("--weight %s has a negative entry" % args.weight)
    two_g = _two_g(args.g) if args.g else None
    chains = enumerate_chains(kind, norm(shape), weight, two_g=two_g)
    out = [[[list(p) for p in strip] for strip in chain] for chain in chains]
    print(json.dumps({"kind": args.kind, "count": len(chains), "chains": out}))
    return 0


def cmd_energy(args):
    kind = {"box": BOX, "hdom": HDOM, "vdom": VDOM}[args.kind]
    words = [parse_word(p) for p in args.element.split("|")]
    caps = None
    if args.caps:
        caps = [int(c) for c in args.caps.split(",")]
    if args.row:
        if caps is None:
            caps = [len(w) for w in words]
        factors = tuple(RowKR(kind, c, w) for c, w in zip(caps, words))
        d = energy_row(factors)
        print(d)
        return 0
    if caps is None:
        caps = [len(w) for w in words]
    factors = tuple(ColumnKR(kind, c, w) for c, w in zip(caps, words))
    d = energy_col(factors)
    if kind == BOX:
        print("%d vac=%d qt=%s" % (d, vac(factors), poly_str(vac_qt_energy(factors), ("q", "t"))))
    else:
        print(d)
    return 0


def _grid(max_weight, n):
    for lam in partitions_upto(max_weight, max_len=n):
        for mu in partitions_upto(max_weight, max_len=n):
            yield lam, mu


def _dbl(lam, n, spin=False):
    return tuple(2 * get(lam, i) + (1 if spin else 0) for i in range(n))


def _task_thm_c(n, lam, mu, gg):
    lam_d, mu_d = _dbl(lam, n), _dbl(mu, n)
    lhs = kl_poly("C", n, lam_d, mu_d)
    rhs = thm_c_rhs(lam, mu, n, gg)
    return IdentityReport(
        "thm-c",
        {"n": n, "lambda": list(lam), "mu": list(mu), "g": gg},
        poly_str(lhs, ("q",)),
        poly_str(rhs, ("q",)),
        lhs == rhs,
    )


def _suite_thm_c(max_weight, n):
    for lam, mu in _grid(max_weight, n):
        g = max(get(lam, 0), 1)
        for gg in (g, g + 1):
            yield lambda n=n, lam=lam, mu=mu, gg=gg: _task_thm_c(n, lam, mu, gg)


def _task_thm_b(n, lam, mu, g):
    lam_d, mu_d = _dbl(lam, n, True), _dbl(mu, n, True)
    lhs = kl_qt_B(n, lam_d, mu_d)
    rhs = thm_b_rhs(lam, mu, n, g)
    return IdentityReport(
        "thm-b",
        {"n": n, "lambda": list(lam), "mu": list(mu), "g": g},
        poly_str(lhs, ("q", "t")),
        poly_str(rhs, ("q", "t")),
        lhs == rhs,
    )


def _suite_thm_b(max_weight, n):
    for lam, mu in _grid(max_weight, n):
        g = max(get(lam, 0), 1)
        yield lambda n=n, lam=lam, mu=mu, g=g: _task_thm_b(n, lam, mu, g)


def _suite_morris_c(max_weight, n):
    for lam, mu in _grid(max_weight, n):
        yield lambda n=n, lam=lam, mu=mu: IdentityReport(
            "morris-c",
            {"n": n, "lambda": list(lam), "mu": list(mu)},
            poly_str(kl_poly("C", n, _dbl(lam, n), _dbl(mu, n)), ("q",)),
            poly_str(morris_c(lam, mu, n), ("q",)),
            kl_poly("C", n, _dbl(lam, n), _dbl(mu, n)) == morris_c(lam, mu, n),
        )


def _suite_morris_b(max_weight, n):
    for lam, mu in _grid(max_weight, n):
        yield lambda n=n, lam=lam, mu=mu: IdentityReport(
            "morris-b",
            {"n": n, "lambda": list(lam), "mu": list(mu)},
            poly_str(kl_qt_B(n, _dbl(lam, n, True), _dbl(mu, n, True)), ("q", "t")),
            poly_str(morris_b_qt(lam, mu, n), ("q", "t")),
            kl_qt_B(n, _dbl(lam, n, True), _dbl(mu, n, True)) == morris_b_qt(lam, mu, n),
        )


def _task_level(lie_type, n, lam, mu, spin):
    lam_d, mu_d = _dbl(lam, n, spin), _dbl(mu, n, spin)
    two_g = _default_two_g(lam_d, mu_d)
    lhs, mid, rhs = level_formula(lie_type, n, lam_d, mu_d, two_g)
    return IdentityReport(
        "level",
        {
            "type": lie_type,
            "n": n,
            "lambda": weight_str(lam_d),
            "mu": weight_str(mu_d),
            "g": str(Fraction(two_g, 2)),
        },
        poly_str(lhs, ("q",)),
        "%s / %s" % (poly_str(mid, ("q",)), poly_str(rhs, ("q",))),
        lhs == mid == rhs,
    )


def _suite_level(max_weight, n):
    for lie_type in ("B", "C", "D"):
        if lie_type == "D" and n < 2:
            continue
        for lam, mu in _grid(max_weight, n):
            for spin in ((False, True) if lie_type in ("B", "D") else (False,)):
                yield lambda lt=lie_type, n=n, lam=lam, mu=mu, spin=spin: _task_level(
                    lt, n, lam, mu, spin
                )


def _suite_xk(max_weight, n):
    for kind, name in ((BOX, "box"), (HDOM, "hdom"), (VDOM, "vdom")):
        for mu in partitions_upto(max_weight, max_len=n):
            if not mu:
                continue
            for m in range(0, sum(mu) + 1):
                from .partitions import partitions

                for lam in partitions(m, max_len=n):
                    if kind in (HDOM, VDOM) and (sum(mu) - m) % 2:
                        continue
                    yield lambda kind=kind, name=name, mu=mu, lam=lam: IdentityReport(
                        "xk",
                        {"kind": name, "mu": list(mu), "lambda": list(lam)},
                        poly_str(xk_lhs(kind, mu, lam), ("q",)),
                        poly_str(xk_rhs_unfiltered(kind, mu, lam), ("q",)),
                        xk_lhs(kind, mu, lam) == xk_rhs_unfiltered(kind, mu, lam),
                    )


def _task_q1(lie_type, n, lam, mu, spin):
    lam_d, mu_d = _dbl(lam, n, spin), _dbl(mu, n, spin)
    two_g = _default_two_g(lam_d, mu_d)
    cnt, mult = q1_count(lie_type, n, lam_d, mu_d, two_g)
    return IdentityReport(
        "q1",
        {
            "type": lie_type,
            "n": n,
            "lambda": weight_str(lam_d),
            "mu": weight_str(mu_d),
            "g": str(Fraction(two_g, 2)),
        },
        str(cnt),
        str(mult),
        cnt == mult,
    )


def _suite_q1(max_weight, n):
    for lie_type in ("B", "C", "D"):
        if lie_type == "D" and n < 2:
            continue
        for lam, mu in _grid(max_weight, n):
            for spin in ((False, True) if lie_type in ("B", "D") else (False,)):
                yield lambda lt=lie_type, n=n, lam=lam, mu=mu, spin=spin: _task_q1(
                    lt, n, lam, mu, spin
                )


SUITES = {
    "thm-c": _suite_thm_c,
    "thm-b": _suite_thm_b,
    "morris-c": _suite_morris_c,
    "morris-b": _suite_morris_b,
    "level": _suite_level,
    "xk": _suite_xk,
    "q1": _suite_q1,
}


def _jobs(flag):
    """--jobs, else KRLAB_JOBS, else 1; a positive worker count."""
    if flag is not None:
        source, text = "--jobs", str(flag)
    else:
        source, text = "KRLAB_JOBS", os.environ.get("KRLAB_JOBS", "1")
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise BadInput("%s %s must be a positive integer" % (source, text))
    return jobs


def cmd_verify(args):
    suite = SUITES[args.suite]
    _rank(args.n)
    jobs = _jobs(args.jobs)
    tasks = list(suite(args.max_weight, args.n))
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            work = list(pool.map(lambda t: t(), tasks))
    else:
        work = [t() for t in tasks]
    reports = [r.as_dict(args.witnesses) for r in work]
    ok = all(r["equal"] for r in reports)
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["identity", "params", "lhs", "rhs", "equal"])
        for r in reports:
            w.writerow(
                [r["identity"], json.dumps(r["params"], sort_keys=True), r["lhs"], r["rhs"], r["equal"]]
            )
        sys.stdout.write(buf.getvalue())
    else:
        print(json.dumps({"suite": args.suite, "ok": ok, "reports": reports}, sort_keys=True))
    return 0 if ok else 1


def build_parser():
    p = argparse.ArgumentParser(prog="krlab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    kl = sub.add_parser("kl", help="Lusztig q-weight multiplicity")
    kl.add_argument("--type", required=True, choices=("A", "B", "C", "D"))
    kl.add_argument("--n", type=int, required=True)
    kl.add_argument("--lambda", dest="lam", required=True)
    kl.add_argument("--mu", required=True)
    kl.add_argument("--level", action="store_true", help="use the level restriction weights")
    kl.add_argument("--format", default="text", choices=("text", "json"))
    kl.set_defaults(fn=cmd_kl)

    klqt = sub.add_parser("kl-qt", help="type B q,t-weight multiplicity")
    klqt.add_argument("--n", type=int, required=True)
    klqt.add_argument("--lambda", dest="lam", required=True)
    klqt.add_argument("--mu", required=True)
    klqt.add_argument("--format", default="text", choices=("text", "json"))
    klqt.set_defaults(fn=cmd_kl_qt)

    lv = sub.add_parser("level", help="level-restricted three-way identity")
    lv.add_argument("--type", required=True, choices=("B", "C", "D"))
    lv.add_argument("--n", type=int, required=True)
    lv.add_argument("--lambda", dest="lam", required=True)
    lv.add_argument("--mu", required=True)
    lv.add_argument("--g", default=None)
    lv.add_argument("--format", default="text", choices=("text", "json"))
    lv.set_defaults(fn=cmd_level)

    en = sub.add_parser("enumerate", help="enumerate oscillating chains")
    en.add_argument("--kind", required=True, choices=tuple(_KINDS))
    en.add_argument("--shape", default="")
    en.add_argument("--weight", default="")
    en.add_argument("--g", default=None)
    en.set_defaults(fn=cmd_enumerate)

    eng = sub.add_parser("energy", help="energy of a KR tensor element")
    eng.add_argument("--kind", required=True, choices=("box", "hdom", "vdom"))
    eng.add_argument("--element", required=True, help="factors a,b|c,d left to right; -3 bars, [] empties")
    eng.add_argument("--caps", default=None, help="capacities, comma separated")
    eng.add_argument("--row", action="store_true", help="row factors instead of columns")
    eng.set_defaults(fn=cmd_energy)

    vf = sub.add_parser("verify", help="run a verification suite")
    vf.add_argument("--suite", required=True, choices=tuple(SUITES))
    vf.add_argument("--max-weight", type=int, default=3)
    vf.add_argument("--n", type=int, default=2)
    vf.add_argument("--jobs", type=int, default=None)
    vf.add_argument("--format", default="json", choices=("json", "csv"))
    vf.add_argument("--witnesses", action="store_true")
    vf.set_defaults(fn=cmd_verify)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except BadInput as e:
        print("krlab %s: error: %s" % (args.command, e), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
