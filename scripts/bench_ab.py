#!/usr/bin/env python3
"""Alternating parent/change benchmark runs on one workload.

    python3 scripts/bench_ab.py --workload compare --seeds 10-19 [--parent HEAD]

Checks the parent revision out into a temporary ``git worktree``, then for
each seed runs ``perfbench/run.py --workload W --seed S --trace 0`` once in
the worktree and once in the working tree, alternating which side goes
first, so both sides sample the same stretch of a noisy machine.  Each
run's last output line is its JSON result.  At the end it prints, per
end-to-end metric of ``BENCHMARK.json``, each side's median and quartiles,
the change's median against the parent's, how many pairs the change won,
and whether the medians differ by more than the parent's interquartile
range.  The worktree is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(spec):
    """'10-19' or '3,5,8' -> a list of ints."""
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


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


def summarize(metrics, runs):
    """Rows of the per-metric table; runs is a list of (parent, change)."""
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
                     abs(cm - pm) > p3 - p1))
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("adaptive", "compare", "verify", "learned"))
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
    git("worktree", "add", "--detach", tree, rev)
    runs = []
    try:
        for i, seed in enumerate(seeds):
            sides = [("parent", tree), ("change", ROOT)]
            if i % 2:
                sides.reverse()
            res = {side: run_once(where, args.workload, seed) for side, where in sides}
            runs.append((res["parent"], res["change"]))
            print(f"seed {seed} ({sides[0][0]} first): " + "; ".join(
                f"{side} correct={r['correct']} failed={r['failed']}/{r['attempted']} "
                f"ops_per_s={r['metrics']['ops_per_s']['value']:.4g}"
                for side, r in res.items()), flush=True)
    finally:
        git("worktree", "remove", "--force", tree)
        os.rmdir(tmp)

    print(f"\n{args.workload}, parent {rev[:12]} vs working tree, {len(runs)} pairs "
          f"(seeds {args.seeds}); median [quartiles]")
    for (name, unit, better, pm, p1, p3, cm, c1, c3, wins, beyond) in summarize(metrics, runs):
        print(f"{name:12s} {unit:4s} parent {pm:9.4g} [{p1:.4g}, {p3:.4g}]  change {cm:9.4g} "
              f"[{c1:.4g}, {c3:.4g}]  ratio {cm / pm:6.3f}  {better} better: change won "
              f"{wins}/{len(runs)}  |diff| > parent IQR: {'yes' if beyond else 'no'}")
    bad = sum(not r["correct"] for pair in runs for r in pair)
    print(f"runs not correct: {bad} of {2 * len(runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
