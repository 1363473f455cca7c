"""Summarize the run records that bench/run.py leaves in bench/out/.

    python3 bench/summarize.py [OUTPUT.json]

For each workload prints every end-to-end metric's median and quartiles over
the untraced runs, and each layer's share of busy time in the traced runs.
With an argument, also writes the summary there as JSON (as baseline.json
was written).
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def summarize(records):
    out = {}
    for rec in records:
        w = out.setdefault(rec["workload"], {"seeds": [], "end_to_end": {}, "per_layer": {}})
        kind = "per_layer" if rec["trace"] else "end_to_end"
        if not rec["trace"]:
            w["seeds"].append(rec["meta"]["seed"])
        for name, value in rec["metrics"].items():
            w[kind].setdefault(name, []).append(value)
    for w in out.values():
        for kind in ("end_to_end", "per_layer"):
            for name, values in w[kind].items():
                q1, q2, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                              else (values[0],) * 3)
                w[kind][name] = {"runs": len(values), "median": statistics.median(values),
                                 "q1": q1, "q3": q3,
                                 "spread": (q3 - q1) / q2 if q2 else 0.0}
        busy = {k[:-len(".busy_s")]: v["median"] for k, v in w["per_layer"].items()
                if k.endswith(".busy_s")}
        total = sum(busy.values())
        w["layer_share"] = {k: v / total for k, v in busy.items()} if total else {}
        w["seeds"].sort()
    return out


def main(argv):
    records = []
    for path in sorted(glob.glob(os.path.join(HERE, "out", "*-trace[01].json"))):
        with open(path) as fh:
            records.append(json.load(fh))
    if not records:
        sys.exit("no run records in bench/out/")
    summary = {"meta": records[-1]["meta"], "workloads": summarize(records)}
    summary["meta"].pop("seed")
    for name, w in summary["workloads"].items():
        print("== %s  (seeds %s)" % (name, w["seeds"]))
        for metric, s in w["end_to_end"].items():
            print("  %-18s median %12.4f  q1 %12.4f  q3 %12.4f  spread %.3f  runs %d" % (
                metric, s["median"], s["q1"], s["q3"], s["spread"], s["runs"]))
        for layer, share in sorted(w["layer_share"].items(), key=lambda kv: -kv[1]):
            print("  busy share %-12s %5.1f %%" % (layer, 100 * share))
    if argv:
        with open(argv[0], "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
