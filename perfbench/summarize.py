"""Summarize benchmark results over runs, per workload and metric.

    python3 perfbench/summarize.py [.perfbench_out] > perfbench/baseline.json

Reads every ``result-<workload>-seed<n>-trace<0|1>.json`` that run.py left
in the directory.  End-to-end metrics get the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
quartile distance as a share of the median; per-layer metrics get the
median over the traced runs.
"""

import glob
import json
import os
import statistics
import sys


def summarize(out_dir):
    runs = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "result-*-seed*-trace*.json"))):
        workload, seed, trace = os.path.basename(path)[len("result-"):-len(".json")].split("-")
        with open(path) as fh:
            runs.setdefault((workload, trace), []).append((int(seed[len("seed"):]), json.load(fh)))
    out = {}
    for (workload, trace), results in sorted(runs.items()):
        results.sort(key=lambda r: r[0])
        entry = out.setdefault(workload, {})
        entry["env"] = results[-1][1]["env"]
        metrics = {}
        for name, m in results[0][1]["metrics"].items():
            values = [r["metrics"][name]["value"] for _, r in results]
            med = statistics.median(values)
            stat = {"unit": m["unit"], "median": med}
            if trace == "trace0" and len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                stat.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
            metrics[name] = stat
        entry["trace1" if trace == "trace1" else "trace0"] = {
            "seeds": [s for s, _ in results],
            "all_correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": metrics,
        }
    return out


if __name__ == "__main__":
    json.dump(summarize(sys.argv[1] if len(sys.argv) > 1 else ".perfbench_out"),
              sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
