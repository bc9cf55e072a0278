#!/usr/bin/env python3
"""Alternating parent/change benchmark runs on one or more workloads.

    python3 scripts/bench_ab.py --workload learned,adaptive,compare,verify \
        --seeds 10-19 [--parent HEAD]

Exports the parent revision's files (``git archive``) into a temporary
directory, then, workload by workload, for each seed runs
``perfbench/run.py --workload W --seed S --trace 0`` once in that copy and
once in the working tree, alternating which side goes first, so both sides
sample the same stretch of a noisy machine.  Each run's last output line is
its JSON result.  After each workload it prints, per end-to-end metric of
``BENCHMARK.json``, each side's median and quartiles, the change's median
against the parent's, how many pairs the change won, and one verdict:

* ``gain``: the change won at least 9 of 10 pairs and its median differs
  from the parent's by more than the parent's interquartile range, with no
  larger share of failed ops than the parent;
* ``regression``: the change's median is worse than the parent's by more
  than the metric's ``bound`` (a share of the parent's median);
* ``unresolved``: anything else, including "no visible change".

The temporary copy is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("adaptive", "compare", "verify", "learned")


def parse_seeds(spec):
    """'10-19' or '3,5,8' -> a list of ints."""
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def parse_workloads(spec):
    """'learned,adaptive' -> ['learned', 'adaptive']; names are checked."""
    names = [w.strip() for w in spec.split(",") if w.strip()]
    bad = [w for w in names if w not in WORKLOADS]
    if bad or not names:
        raise argparse.ArgumentTypeError(
            f"unknown workload(s) {bad or spec!r}; choose from {', '.join(WORKLOADS)}")
    return names


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def export_tree(rev, dest):
    """The committed files of `rev` under `dest`."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_once(tree, workload, seed):
    """One benchmark run in `tree`; returns its JSON result."""
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0]
    q = statistics.quantiles(vals, n=4, method="inclusive")
    return q[0], q[2]


def verdict(better, bound, pm, cm, parent_iqr, wins, pairs, more_failures):
    """'gain', 'regression' or 'unresolved' for one metric on one workload."""
    worse_by = (cm - pm if better == "lower" else pm - cm) / abs(pm)
    if worse_by > bound:
        return "regression"
    if 10 * wins >= 9 * pairs and abs(cm - pm) > parent_iqr and not more_failures:
        return "gain"
    return "unresolved"


def failures(runs):
    """(failed, attempted) ops over all runs, for the parent and the change."""
    return [(sum(pair[i]["failed"] for pair in runs), sum(pair[i]["attempted"] for pair in runs))
            for i in (0, 1)]


def summarize(metrics, runs):
    """Rows of the per-metric table; runs is a list of (parent, change)."""
    (pf, pa), (cf, ca) = failures(runs)
    more_failures = cf * pa > pf * ca
    rows = []
    for m in metrics:
        name, better = m["name"], m["better"]
        pv = [p["metrics"][name]["value"] for p, _ in runs]
        cv = [c["metrics"][name]["value"] for _, c in runs]
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(pv, cv))
        pm, cm = statistics.median(pv), statistics.median(cv)
        (p1, p3), (c1, c3) = quartiles(pv), quartiles(cv)
        rows.append((name, m["unit"], better, pm, p1, p3, cm, c1, c3, wins,
                     verdict(better, m["bound"], pm, cm, p3 - p1, wins, len(runs),
                             more_failures)))
    return rows


def report(workload, rev, seeds, metrics, runs):
    print(f"\n{workload}, parent {rev[:12]} vs working tree, {len(runs)} pairs "
          f"(seeds {seeds}); median [quartiles]")
    for (name, unit, better, pm, p1, p3, cm, c1, c3, wins, v) in summarize(metrics, runs):
        print(f"{name:12s} {unit:4s} parent {pm:9.4g} [{p1:.4g}, {p3:.4g}]  change {cm:9.4g} "
              f"[{c1:.4g}, {c3:.4g}]  ratio {cm / pm:6.3f}  {better} better: change won "
              f"{wins}/{len(runs)}  parent IQR {p3 - p1:.4g}  {v}")
    bad = sum(not r["correct"] for pair in runs for r in pair)
    (pf, pa), (cf, ca) = failures(runs)
    print(f"runs not correct: {bad} of {2 * len(runs)}; failed ops: parent {pf}/{pa}, "
          f"change {cf}/{ca}", flush=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, type=parse_workloads,
                   help=f"one workload or a comma list of {', '.join(WORKLOADS)}")
    p.add_argument("--seeds", required=True, help="'10-19' or a comma list")
    p.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    args = p.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    rev = git("rev-parse", "--verify", args.parent + "^{commit}")
    if git("diff", "--name-only", rev, "--", "perfbench", "BENCHMARK.json"):
        print("warning: the benchmark differs between the parent and the working tree",
              file=sys.stderr)

    tmp = tempfile.mkdtemp(prefix="bench_ab-")
    tree = os.path.join(tmp, "parent")
    try:
        export_tree(rev, tree)
        for workload in args.workload:
            runs = []
            for i, seed in enumerate(seeds):
                sides = [("parent", tree), ("change", ROOT)]
                if i % 2:
                    sides.reverse()
                res = {side: run_once(where, workload, seed) for side, where in sides}
                runs.append((res["parent"], res["change"]))
                print(f"{workload} seed {seed} ({sides[0][0]} first): " + "; ".join(
                    f"{side} correct={r['correct']} failed={r['failed']}/{r['attempted']} "
                    f"ops_per_s={r['metrics']['ops_per_s']['value']:.4g}"
                    for side, r in res.items()), flush=True)
            report(workload, rev, args.seeds, metrics, runs)
    finally:
        shutil.rmtree(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
