"""krlab benchmark: one workload, measured end to end or layer by layer.

    python3 bench/run.py --workload thm-c --seed 1 --seconds 30 --trace 0

Load comes from this one process as a closed loop with one client: one
instance after another, no threads.  Each pass over the instance list runs
in a fresh worker process (bench/worker.py), so krlab's memo tables start
cold, as they do for every krlab invocation, and reuse across instances
within a pass is part of what is measured.  There is no warm-up pass.

With --trace 0 the run makes as many passes as fit in --seconds (at least
one), each after SETUP_PROBES set-up-only workers, and reports the
end-to-end metrics, each a median over passes (for the tail, of each
instance's times).  With --trace 1 it makes one untraced pass and one
traced pass and reports the per-layer metrics of the traced one, plus the
tracing overhead.  Times are scaled to the machine's typical
speed (see speed.py); the unscaled ones are printed as raw.* and kept in
the run record under bench/out/.

Every instance is checked: both sides of its identity must agree, oracle
outputs must equal the polynomials recorded in golden.json, and the digest
of all outputs in canonical order must equal the recorded one.  golden.json
was recorded at the commit that added the benchmark; a change to an instance
list records it again.  The last line of output is one JSON object; the
exit code is 1 if anything failed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from time import perf_counter

from speed import NOMINAL_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("thm-c", "oracle", "level")
SETUP_PROBES = 2  # set-up-only workers started before each pass
DEADLINE_S = 170  # a run gives up, killing its worker, this long after it started


class BenchError(Exception):
    pass


def _worker(workload, seed, tiny, *flags):
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")
    return cmd + list(flags)


def run_pass(cmd, deadline):
    """Start one worker; return (seconds until READY, parsed RESULT).

    The worker is killed if it is still running at the deadline."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(deadline - t0, 0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise BenchError("worker %s exited with %s" % (" ".join(cmd[1:]), code))
    result = None
    for line in rest.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    return setup, result


def tail(values):
    """The time at the highest percentile with at least ten instances
    beyond it.  Below 100 instances that percentile is under p90 and says
    nothing about the tail, so the slowest instance is reported instead."""
    ordered = sorted(values)
    if len(ordered) < 100:
        return ordered[-1]
    return ordered[len(ordered) - 11]


def metadata(seed):
    meta = {"seed": seed, "nproc": os.cpu_count(), "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo") as fh:
            meta["cpu"] = next(
                (l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "unknown")
    except OSError:
        meta["cpu"] = "unknown"
    meta["commit"] = _git_commit()
    src = os.path.join(ROOT, "src", "krlab")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                lines += sum(1 for _ in fh)
    meta["src_lines"] = lines
    return meta


def _git_commit():
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def measure(workload, seed, seconds, traced, tiny=False):
    """Run the passes; return (metrics, passes, setup samples)."""
    deadline = perf_counter() + DEADLINE_S
    if traced:
        _, plain = run_pass(_worker(workload, seed, tiny), deadline)
        spans = os.path.join(OUT, "spans-%s.bin" % workload)
        _, traced_pass = run_pass(_worker(workload, seed, tiny, "--trace", "--spans", spans), deadline)
        metrics = dict(traced_pass.pop("layers"))
        scale = traced_pass["wall_s"] / traced_pass["raw_wall_s"]
        for name in metrics:
            if name.endswith(".busy_s"):
                metrics[name] *= scale
        metrics["trace.overhead_s"] = traced_pass["wall_s"] - plain["wall_s"]
        return metrics, [plain, traced_pass], []

    probe = _worker(workload, seed, tiny, "--setup-only")
    run_pass(probe, deadline)  # unmeasured: leaves compiled bytecode, as an installed krlab has
    setups, passes = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        work = _worker(workload, seed, tiny, "--pass-no", str(len(passes)))
        for cmd in [probe] * SETUP_PROBES + [work]:
            setup, result = run_pass(cmd, deadline)
            setups.append((setup, setup * NOMINAL_S / result["reference_s"][0]))
        passes.append(result)
        spent = perf_counter() - start
        if spent + (perf_counter() - t0) > seconds:
            break
    return summarize(passes, [s for _, s in setups]), passes, setups


def summarize(passes, setups, raw=""):
    """End-to-end metrics over the passes of one run, each a median over
    passes.  The tail is taken over each instance's median time, so that
    the instances that first fill a shared table, which differ from pass to
    pass, do not make the tail."""
    med = statistics.median
    per_instance = [med(ts) for ts in zip(*(p[raw + "instance_s"] for p in passes))]
    return {
        "wall_s": med(p[raw + "wall_s"] for p in passes),
        "setup_s": med(setups),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
        "instance_p50_ms": med(med(p[raw + "instance_s"]) for p in passes) * 1e3,
        "instance_tail_ms": tail(per_instance) * 1e3,
    }


def declared_units(traced):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def check(workload, passes, tiny):
    """(attempted, failed, problems) over every pass."""
    with open(os.path.join(HERE, "golden.json")) as fh:
        want = json.load(fh)["digests"].get(workload)
    attempted = sum(len(p["instance_s"]) for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    problems = ["failed: %s" % k for p in passes for k in p["failed"][:5]]
    digests = {p["digest"] for p in passes}
    if len(digests) != 1:
        problems.append("digests differ between passes: %s" % sorted(digests))
    elif not tiny and digests != {want}:
        problems.append("digest %s, recorded %s" % (digests.pop(), want))
    return attempted, failed, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="few-second instance lists (smoke test)")
    args = ap.parse_args(argv)

    units = declared_units(bool(args.trace))
    if not os.path.isfile(os.path.join(ROOT, "src", "krlab", "__init__.py")):
        print("bench: no krlab sources under %s" % ROOT, file=sys.stderr)
        return 2
    try:
        metrics, passes, setups = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2
    attempted, failed, problems = check(args.workload, passes, args.tiny)
    if set(metrics) != set(units):
        problems.append("metrics %s differ from BENCHMARK.json" % sorted(set(metrics) ^ set(units)))
    correct = failed == 0 and not problems

    meta = metadata(args.seed)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "meta": meta,
        "digest": passes[0]["digest"],
        "passes": len(passes),
        "setup_samples_s": setups,
        "raw_metrics": summarize(passes, [raw for raw, _ in setups], "raw_") if setups else None,
        "metrics": metrics,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "raw_pass_wall_s": [p["raw_wall_s"] for p in passes],
        "instance_s": [p["instance_s"] for p in passes],
        "caches": passes[-1].get("caches"),
        "problems": problems,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "%s-seed%d-trace%d%s.json" % (
            args.workload, args.seed, args.trace, "-tiny" if args.tiny else "")), "w") as fh:
        json.dump(record, fh)

    for problem in problems:
        print("FAIL %s" % problem)
    print("workload %s  seed %d  passes %d  digest %s" % (
        args.workload, args.seed, len(passes), passes[0]["digest"]))
    print("meta %s" % json.dumps(meta, sort_keys=True))
    print("fail_ratio %.6g  (%d of %d instances)" % (failed / attempted, failed, attempted))
    for name, value in metrics.items():
        print("%-32s %14.6f %s" % (name, value, units.get(name, "?")))
    for name, value in (record["raw_metrics"] or {}).items():
        print("%-32s %14.6f %s  (unscaled)" % ("raw." + name, value, units.get(name, "?")))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items() if k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
