#!/usr/bin/env python3
"""Alternating parent/change benchmark runs on one or more workloads.

    python3 scripts/bench_ab.py --workload learned,adaptive,compare,verify \
        --seeds 10-19 [--parent HEAD] [--tier1 N] [--out BENCH_<n>.json]
    python3 scripts/bench_ab.py --cmd "verify --check optimization_chain --seed 0" \
        [--cmd "verify --seed 0" ...] [--parent HEAD] [--out FILE]

Exports the parent revision's files (``git archive``) into a temporary
directory, then, workload by workload, for each seed runs
``perfbench/run.py --workload W --seed S --trace 0`` once in that copy and
once in the working tree, alternating which side goes first, so both sides
sample the same stretch of a noisy machine.  Each run's last output line is
its JSON result.  After each workload it prints, per end-to-end metric of
``BENCHMARK.json``, each side's median and quartiles, the change's median
against the parent's, how many pairs the change won, and one verdict:

* ``gain``: over at least 10 pairs, the change won at least 9 in 10 of
  them, its median differs from the parent's by more than the parent's
  interquartile range, and no change run failed an op that its parent
  run of the same seed did not
  (failures are compared by distinct failing op, not by the share of
  failed ops: a run's fixed time ends anywhere in a cycle, so an op that
  fails once per cycle on both sides would give a faster change a larger
  share for no reason);
* ``regression``: the change's median is worse than the parent's by more
  than the metric's ``bound`` (a share of the parent's median);
* ``unresolved``: anything else, including "no visible change".

A crashed run prints its side, workload, seed and stderr tail before the
script stops; a run that finished but is not correct prints each distinct
``problem:`` line it gave, with its count, side, workload and seed.  Each pair's
line is printed as soon as it has run.  ``--tier1 N`` also times the Tier-1
test suite in both trees, N alternating pairs.  ``--out`` writes the
revisions, the machine (from the runs' ``env`` line), the workloads and
seeds, every pair's values, each metric's medians, quartiles and verdict,
and the Tier-1 times to a JSON file.  The temporary copy is removed on exit.

``--cmd`` times an ``embedlab`` command line instead, run as ``python -m
embedlab CMD`` against each tree's ``src`` from a fresh empty directory, so
its reports land there, over 10 alternating pairs; each repeated ``--cmd``
is timed the same way after the one before it.  It reports the same
table for the command's wall seconds and its peak RSS (``ru_maxrss`` from
``os.wait4``), with bounds taken from ``BENCHMARK.json``'s ``ops_per_s`` and
``peak_rss_mb``; a command that exits nonzero prints its side and stderr
tail and stops the script.
On Linux a child's ``ru_maxrss`` starts from the RSS of the process that
spawned it; this script imports no numpy, so that floor is about 14 MB.
A ``--parent`` whose files equal the working tree's is refused: the runs
would measure one tree against itself.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("adaptive", "compare", "verify", "learned")
STDERR_TAIL = 20   # lines of a crashed run's stderr to print
MACHINE_KEYS = ("nproc", "cpu_model", "python", "numpy", "scipy", "blas", "blas_threads",
                "blas_env")
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")
MIN_PAIRS = 10     # fewer pairs never give a gain: 2 wins of 2 would pass 9 in 10
CMD_METRICS = ({"name": "wall_s", "unit": "s", "better": "lower", "like": "ops_per_s"},
               {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "like": "peak_rss_mb"})


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


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def same_tree(rev):
    """True when the working tree holds exactly rev's files: no tracked
    file differs from rev and no untracked file is present."""
    diff = subprocess.run(["git", "diff", "--quiet", rev, "--"], cwd=ROOT).returncode
    return diff == 0 and not git("ls-files", "--others", "--exclude-standard")


def export_tree(rev, dest):
    """The committed files of `rev` under `dest`."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_once(side, tree, workload, seed):
    """One benchmark run in `tree`; returns its JSON result, with the run's
    environment record under "env".  A crashed run prints its side,
    workload, seed and the tail of its stderr, then raises; a run that is
    not correct prints its problem lines."""
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
             "--seed", str(seed), "--trace", "0"],
            cwd=tree, capture_output=True, text=True, check=True)
    except subprocess.CalledProcessError as exc:
        tail = "\n".join(exc.stderr.splitlines()[-STDERR_TAIL:])
        print(f"{side} run failed: workload {workload}, seed {seed}, exit {exc.returncode}; "
              f"stderr tail:\n{tail}", file=sys.stderr, flush=True)
        raise
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = next((json.loads(ln[len("env "):]) for ln in lines if ln.startswith("env ")),
                         {})
    result["failing"] = []
    if not result["correct"]:
        # a problem that recurs every cycle is printed once, with its count
        problems = Counter(ln[len("problem: "):] for ln in lines if ln.startswith("problem: "))
        problems = problems or {"(no problem line printed)": 1}
        for problem, n in problems.items():
            print(f"{side} run not correct: workload {workload}, seed {seed}: {problem}"
                  + (f" ({n} times)" if n > 1 else ""), file=sys.stderr, flush=True)
        result["failing"] = sorted({failing_op(problem) for problem in problems})
    return result


def cmd_once(side, tree, argv, scratch):
    """One run of `python -m embedlab argv` from tree's src, in a fresh
    directory under `scratch`, as a result with the metrics wall_s and
    peak_rss_mb.  A run that exits nonzero prints its side, command and
    stderr tail, then raises."""
    cwd = tempfile.mkdtemp(dir=scratch)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    with tempfile.TemporaryFile(dir=scratch) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "embedlab", *argv], cwd=cwd, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            err.seek(0)
            tail = "\n".join(err.read().decode().splitlines()[-STDERR_TAIL:])
            print(f"{side} run failed: embedlab {shlex.join(argv)}, exit {proc.returncode}; "
                  f"stderr tail:\n{tail}", file=sys.stderr, flush=True)
            raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return {"correct": True, "failed": 0, "attempted": 1, "failing": [],
            "metrics": {"wall_s": {"value": seconds},
                        "peak_rss_mb": {"value": usage.ru_maxrss / 1024}}}   # KiB on Linux


def failing_op(problem):
    """'op verify[3]' from 'op verify[3] failed: ...'; any other problem as is."""
    head, sep, _ = problem.partition(" failed: ")
    return head if sep and head.startswith("op ") else problem


def tier1_once(tree):
    """Wall seconds, exit code and summary line of the Tier-1 suite in `tree`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True,
                          text=True)
    seconds = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"seconds": seconds, "exit": proc.returncode, "summary": lines[-1] if lines else ""}


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
    if (pairs >= MIN_PAIRS and 10 * wins >= 9 * pairs and abs(cm - pm) > parent_iqr
            and not more_failures):
        return "gain"
    return "unresolved"


def failures(runs):
    """(failed, attempted) ops over all runs, for the parent and the change."""
    return [(sum(pair[i]["failed"] for pair in runs), sum(pair[i]["attempted"] for pair in runs))
            for i in (0, 1)]


def new_failures(runs):
    """The ops a change run failed that its parent run of the same seed did
    not, as sorted (seed index, op) pairs."""
    return sorted((i, op) for i, (p, c) in enumerate(runs)
                  for op in set(c["failing"]) - set(p["failing"]))


def summarize(metrics, runs):
    """One dict per metric; runs is a list of (parent, change)."""
    more_failures = bool(new_failures(runs))
    rows = []
    for m in metrics:
        name, better = m["name"], m["better"]
        pv = [p["metrics"][name]["value"] for p, _ in runs]
        cv = [c["metrics"][name]["value"] for _, c in runs]
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(pv, cv))
        pm, cm = statistics.median(pv), statistics.median(cv)
        (p1, p3), (c1, c3) = quartiles(pv), quartiles(cv)
        rows.append({"name": name, "unit": m["unit"], "better": better,
                     "parent_median": pm, "parent_quartiles": [p1, p3],
                     "change_median": cm, "change_quartiles": [c1, c3], "wins": wins,
                     "verdict": verdict(better, m["bound"], pm, cm, p3 - p1, wins, len(runs),
                                        more_failures)})
    return rows


def report(workload, rev, seeds, metrics, runs):
    """Print the per-metric table; returns its rows."""
    print(f"\n{workload}, parent {rev[:12]} vs working tree, {len(runs)} pairs"
          + (f" (seeds {seeds})" if seeds else "") + "; median [quartiles]")
    rows = summarize(metrics, runs)
    for r in rows:
        pm, (p1, p3), cm, (c1, c3) = (r["parent_median"], r["parent_quartiles"],
                                      r["change_median"], r["change_quartiles"])
        print(f"{r['name']:12s} {r['unit']:4s} parent {pm:9.4g} [{p1:.4g}, {p3:.4g}]  change "
              f"{cm:9.4g} [{c1:.4g}, {c3:.4g}]  ratio {cm / pm:6.3f}  {r['better']} better: "
              f"change won {r['wins']}/{len(runs)}  parent IQR {p3 - p1:.4g}  {r['verdict']}")
    bad = sum(not r["correct"] for pair in runs for r in pair)
    (pf, pa), (cf, ca) = failures(runs)
    new = new_failures(runs)
    print(f"runs not correct: {bad} of {2 * len(runs)}; failed ops: parent {pf}/{pa}, "
          f"change {cf}/{ca}; ops the change failed and its parent did not: "
          + (", ".join(f"{op} (pair {i})" for i, op in new) or "none"), flush=True)
    return rows


def pair_record(seed, first, parent, change):
    """One pair's values for the --out file."""
    def side(r):
        return {"correct": r["correct"], "failed": r["failed"], "attempted": r["attempted"],
                **{k: v["value"] for k, v in r["metrics"].items()}}
    return {"seed": seed, "first": first, "parent": side(parent), "change": side(change)}


def time_tier1(tree, pairs):
    """Alternating Tier-1 runs in the parent copy and the working tree."""
    runs = []
    for i in range(pairs):
        sides = [("parent", tree), ("change", ROOT)]
        if i % 2:
            sides.reverse()
        for side, where in sides:
            runs.append(dict(tier1_once(where), side=side))
            print(f"tier-1 {side}: {runs[-1]['seconds']:.1f} s, {runs[-1]['summary']}",
                  flush=True)
    medians = {side: statistics.median(r["seconds"] for r in runs if r["side"] == side)
               for side in ("parent", "change")}
    return {"command": "PYTHONPATH=src python " + " ".join(TIER1), "runs": runs,
            "median_seconds": medians}


def time_cmd(tree, rev, cmd, scratch, bounds):
    """Alternating runs of the embedlab command line `cmd` in the parent
    copy and the working tree; returns its pairs and metric rows."""
    argv = shlex.split(cmd)
    metrics = [dict(m, bound=bounds[m["like"]]) for m in CMD_METRICS]
    runs, records = [], []
    for i in range(MIN_PAIRS):
        sides = [("parent", tree), ("change", ROOT)]
        if i % 2:
            sides.reverse()
        res = {side: cmd_once(side, where, argv, scratch) for side, where in sides}
        runs.append((res["parent"], res["change"]))
        records.append(pair_record(None, sides[0][0], res["parent"], res["change"]))
        print(f"{cmd} pair {i} ({sides[0][0]} first): " + "; ".join(
            f"{side} {r['metrics']['wall_s']['value']:.3f} s "
            f"{r['metrics']['peak_rss_mb']['value']:.1f} MB" for side, r in res.items()),
            flush=True)
    return {"pairs": records, "metrics": report(f"embedlab {cmd}", rev, None, metrics, runs)}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", type=parse_workloads,
                      help=f"one workload or a comma list of {', '.join(WORKLOADS)}")
    what.add_argument("--cmd", action="append",
                      help="an embedlab command line to time instead, e.g. "
                           "'verify --check optimization_chain --seed 0'; repeat it "
                           "to time several, one after another")
    p.add_argument("--seeds", help="'10-19' or a comma list (with --workload)")
    p.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    p.add_argument("--tier1", type=int, default=0, metavar="N",
                   help="also time the Tier-1 suite, N alternating pairs (default 0)")
    p.add_argument("--out", help="write every pair, summary and the Tier-1 times to this "
                                 "JSON file (BENCH_<n>.json)")
    args = p.parse_args(argv)
    if args.workload and not args.seeds:
        p.error("--workload needs --seeds")
    seeds = parse_seeds(args.seeds) if args.workload else []

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    rev = git("rev-parse", "--verify", args.parent + "^{commit}")
    if same_tree(rev):
        p.error(f"--parent {args.parent} has the working tree's files; name the "
                "revision before the change")
    if git("diff", "--name-only", rev, "--", "perfbench", "BENCHMARK.json"):
        print("warning: the benchmark differs between the parent and the working tree",
              file=sys.stderr)
    record = {"revisions": {"parent": rev, "change": git("rev-parse", "HEAD"),
                            "change_uncommitted": bool(git("status", "--porcelain"))},
              "machine": {}, "workloads": args.workload or [], "seeds": seeds, "results": {}}

    tmp = tempfile.mkdtemp(prefix="bench_ab-")
    tree = os.path.join(tmp, "parent")
    try:
        export_tree(rev, tree)
        if args.cmd:
            record["commands"] = ["embedlab " + cmd for cmd in args.cmd]
        for cmd in args.cmd or []:
            record["results"][cmd] = time_cmd(tree, rev, cmd, tmp,
                                              {m["name"]: m["bound"] for m in metrics})
        for workload in args.workload or []:
            runs, pairs = [], []
            for i, seed in enumerate(seeds):
                sides = [("parent", tree), ("change", ROOT)]
                if i % 2:
                    sides.reverse()
                res = {side: run_once(side, where, workload, seed) for side, where in sides}
                runs.append((res["parent"], res["change"]))
                pairs.append(pair_record(seed, sides[0][0], res["parent"], res["change"]))
                record["machine"] = record["machine"] or {
                    k: res["change"]["env"][k] for k in MACHINE_KEYS if k in res["change"]["env"]}
                print(f"{workload} seed {seed} ({sides[0][0]} first): " + "; ".join(
                    f"{side} correct={r['correct']} failed={r['failed']}/{r['attempted']} "
                    f"ops_per_s={r['metrics']['ops_per_s']['value']:.4g}"
                    for side, r in res.items()), flush=True)
            rows = report(workload, rev, args.seeds, metrics, runs)
            record["results"][workload] = {"pairs": pairs, "metrics": rows}
        if args.tier1:
            record["tier1"] = time_tier1(tree, args.tier1)
    finally:
        shutil.rmtree(tmp)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
