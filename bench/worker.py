"""One pass over a workload's instance list, in a fresh process.

run.py starts this script once per pass, so krlab's memo tables start cold
each time, as they do for every krlab invocation.  The script prints READY
once the instances are built (so the caller can time set-up), runs every
instance one after another, and prints one RESULT line of JSON.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

from speed import NOMINAL_S, reference_s

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# Instance times are scaled to the machine's typical speed (see speed.py)
# with a reference timed every REF_EVERY_S of instance time.
REF_EVERY_S = 0.25


def _import_krlab():
    """Put the checkout's own sources first on the path."""
    if not os.path.isfile(os.path.join(SRC, "krlab", "__init__.py")):
        sys.exit("worker: no krlab sources at %s" % SRC)
    sys.path.insert(0, SRC)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pass-no", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="file for the traced spans")
    args = ap.parse_args(argv)

    _import_krlab()
    import workloads

    insts = workloads.instances(args.workload, tiny=args.tiny)
    order = workloads.run_order(args.workload, len(insts), args.seed, args.pass_no)
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)["outputs"].get(args.workload, {})
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    print("READY", flush=True)
    if args.setup_only:
        print("RESULT " + json.dumps({"reference_s": [reference_s()]}), flush=True)
        return 0

    outputs = [None] * len(insts)
    times = [0.0] * len(insts)
    segment = [0] * len(insts)
    refs = [reference_s()]
    failures = []
    seg_start = perf_counter()
    for idx in order:
        key, fn, fargs = insts[idx]
        t0 = perf_counter()
        try:
            if tracer:
                text, ok = tracer.instance_span(idx, fn, fargs)
            else:
                text, ok = fn(*fargs)
        except Exception as exc:  # an instance that raises counts as failed
            text, ok = "raised %s: %s" % (type(exc).__name__, exc), False
            traceback.print_exc()
        times[idx] = perf_counter() - t0
        if key in golden:
            ok = ok is not False and text == golden[key]
        if not ok:
            failures.append(key)
        outputs[idx] = (key, text)
        segment[idx] = len(refs) - 1
        if perf_counter() - seg_start >= REF_EVERY_S:
            refs.append(reference_s())
            seg_start = perf_counter()
    if segment[order[-1]] == len(refs) - 1:
        refs.append(reference_s())
    # a segment's speed: the median of the references within about a second
    scale = [NOMINAL_S / statistics.median(refs[max(0, i - 2):i + 4])
             for i in range(len(refs) - 1)]
    scaled = [t * scale[seg] for t, seg in zip(times, segment)]

    result = {
        "wall_s": sum(scaled),
        "instance_s": scaled,
        "raw_wall_s": sum(times),
        "raw_instance_s": times,
        "reference_s": refs,
        "failed": failures,
        "digest": workloads.digest(outputs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        tracer.restore()
        caches = tracing.cache_readout()
        result["layers"] = tracing.layer_metrics(tracer, caches)
        result["caches"] = caches
        result["spans"] = len(tracer.span_start)
        if args.spans:
            tracer.write(args.spans)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
