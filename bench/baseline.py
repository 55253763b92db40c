"""Write bench/baseline.json from the result records of finished runs.

    python3 bench/baseline.py --seeds 201-210 --trace-seed 201 \
        --about "parent commit abc1234, 2 vCPUs, ..."

It reads ``bench/out/result-<workload>-seed<n>-trace0.json`` for every
workload and seed, and ``...-seed<trace-seed>-trace1.json`` for the layer
breakdown.  For each end-to-end metric it records the median, the
quartiles (as ``statistics.quantiles(values, n=4)`` gives them) and the
spread, (q3 - q1) / median; for each workload the per-layer metrics of the
traced run, and apart from them the call counts that show which layers a
workload uses.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

from run import OUT, benchmark_spec  # noqa: E402


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(workload, seed, trace):
    path = os.path.join(OUT, f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        return json.load(fh)


def summary(values, unit):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"unit": unit, "runs": len(values), "median": round(median, 6),
            "q1": round(q1, 6), "q3": round(q3, 6),
            "spread": round((q3 - q1) / median, 4)}


def is_isolation_count(name):
    return name.endswith(".calls") or name == "betti.tables_per_result"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds, required=True,
                    help="seeds of the --trace 0 runs, as 201-210")
    ap.add_argument("--trace-seed", type=int, required=True)
    ap.add_argument("--about", required=True,
                    help="the commit, machine and settings measured")
    args = ap.parse_args(argv)
    spec = benchmark_spec()
    out = {"about": args.about, "end_to_end": {}, "per_layer": {},
           "isolation": {}}
    for w in spec["workloads"]:
        name = w["name"]
        runs = [record(name, s, 0) for s in args.seeds]
        out["end_to_end"][name] = {
            m["name"]: summary([r["metrics"][m["name"]] for r in runs],
                               m["unit"])
            for m in spec["end_to_end"]}
        layer = record(name, args.trace_seed, 1)["metrics"]
        out["per_layer"][name] = {m["name"]: round(layer[m["name"]], 6)
                                  for m in spec["per_layer"]}
        out["isolation"][name] = {k: v for k, v in layer.items()
                                  if is_isolation_count(k)}
    with open(os.path.join(BENCH, "baseline.json"), "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
