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
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from .identities import SUITES, default_two_g, level_formula, level_params, run_task, suite_tasks
from .kr_column import BOX, HDOM, VDOM, ColumnKR, energy_col, vac, vac_qt_energy
from .kr_row import RowKR, energy_row
from .letters import parse_word
from .oscillating import GSSOT, SSOT, SSROT, enumerate_chains
from .partitions import is_partition, norm
from .polynomials import poly_str
from .qweight import kl_poly, kl_qt_B
from .roots import is_dominant, is_spin, parse_weight, positive_roots, weight_str


class BadInput(Exception):
    """Input the commands cannot take; main() prints it and exits 2."""


def _rank(n):
    if n < 1:
        raise BadInput("--n must be a positive rank, got %d" % n)
    return n


def _weights(args, lie_type):
    """--lambda and --mu as doubled weights of rank --n, each dominant."""
    n = _rank(args.n)
    try:
        positive_roots(lie_type, n)
    except ValueError as e:
        raise BadInput("--n %d: %s" % (n, e)) from None
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


def _parse_g(text, spin):
    two_g = _two_g(text)
    if (two_g % 2 == 1) != spin:
        raise BadInput("--g %s must be %s for these weights" % (text, "half an odd integer" if spin else "an integer"))
    return two_g


def _emit_poly(args, rendered, params):
    if args.format == "json":
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
    two_g = _parse_g(args.g, is_spin(lam)) if args.g else default_two_g(lam, mu)
    if two_g < max(lam[0], mu[0]):
        raise BadInput("--g %s is below lambda_1 or mu_1" % args.g)
    lhs, mid, rhs = level_formula(args.type, n, lam, mu, two_g)
    payload = {
        "identity": "level-formula",
        "params": level_params(args.type, n, lam, mu, two_g),
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
    factor = RowKR if args.row else ColumnKR
    try:
        words = [parse_word(p) for p in args.element.split("|")]
        caps = _ints("--caps", args.caps) or [len(w) for w in words]
        if len(caps) != len(words):
            raise BadInput("--caps %s gives %d capacities for %d factors" % (args.caps, len(caps), len(words)))
        factors = tuple(factor(kind, c, w) for c, w in zip(caps, words))
    except ValueError as e:
        raise BadInput("--element %s: %s" % (args.element, e)) from None
    if args.row:
        print(energy_row(factors))
        return 0
    d = energy_col(factors)
    if kind == BOX:
        print("%d vac=%d qt=%s" % (d, vac(factors), poly_str(vac_qt_energy(factors), ("q", "t"))))
    else:
        print(d)
    return 0


def _jobs(flag):
    """--jobs, else 1; a positive worker count, capped at the number of
    CPUs."""
    jobs = 1 if flag is None else flag
    if jobs < 1:
        raise BadInput("--jobs %d must be a positive integer" % jobs)
    return min(jobs, os.cpu_count() or 1)


def _cost(task):
    """A task's cost proxy, |lambda| + |mu| (doubled in the level suites):
    the absolute entries of its weights, the tuples among its args in
    every suite's task shape, summed."""
    return sum(sum(map(abs, a)) for a in task[2] if isinstance(a, tuple))


def _run_chunk(tasks):
    return [run_task(t) for t in tasks]


def cmd_verify(args):
    _rank(args.n)
    if args.max_weight < 0:
        raise BadInput("--max-weight %d must be nonnegative" % args.max_weight)
    jobs = _jobs(args.jobs)
    tasks = suite_tasks(args.suite, args.max_weight, args.n)
    if jobs > 1:
        # Spawned workers start from a fresh import and fill their own
        # tables.  Four contiguous chunks per worker keep neighbouring
        # instances, which share tables, in one worker; the costliest
        # chunks go first, since each grid ends with its costly instances,
        # and the reports come back in grid order.
        size = max(1, len(tasks) // (4 * jobs))
        chunks = [tasks[i:i + size] for i in range(0, len(tasks), size)]
        order = sorted(range(len(chunks)), key=lambda i: -sum(map(_cost, chunks[i])))
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(jobs, mp_context=spawn) as pool:
            futures = {i: pool.submit(_run_chunk, chunks[i]) for i in order}
            reports = [r for i in range(len(chunks)) for r in futures[i].result()]
    else:
        reports = _run_chunk(tasks)
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

    def weights_command(name, summary, fn, types=None):
        """A subcommand on two weights: --type if types, --n, --lambda, --mu, --format."""
        sp = sub.add_parser(name, help=summary)
        if types:
            sp.add_argument("--type", required=True, choices=types)
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--lambda", dest="lam", required=True)
        sp.add_argument("--mu", required=True)
        sp.add_argument("--format", default="text", choices=("text", "json"))
        sp.set_defaults(fn=fn)
        return sp

    kl = weights_command("kl", "Lusztig q-weight multiplicity", cmd_kl, ("A", "B", "C", "D"))
    kl.add_argument("--level", action="store_true", help="use the level restriction weights")
    weights_command("kl-qt", "type B q,t-weight multiplicity", cmd_kl_qt)
    weights_command("level", "level-restricted three-way identity", cmd_level, ("B", "C", "D")).add_argument("--g")

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
    vf.set_defaults(fn=cmd_verify)
    return p


def _glue_signed(argv):
    """Write `--element -2,-1` as `--element=-2,-1`, and so `--lambda` and
    `--mu`: argparse takes a value that starts with a barred letter or a
    negative coordinate for an option unless it is glued."""
    out = []
    for tok in argv:
        if out and out[-1] in ("--element", "--lambda", "--mu") and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(_glue_signed(sys.argv[1:] if argv is None else argv))
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except BadInput as e:
        print("krlab %s: error: %s" % (args.command, e), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
