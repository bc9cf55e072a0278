#!/usr/bin/env python3
"""False-alarm rates of the theory checks over a range of seeds.

    PYTHONPATH=src python3 scripts/false_alarms.py --seeds 0-399 \
        [--checks m1_folded_normal,jensen_convex]

Runs ``run_checks(seed, [name])`` for every seed and check (by default the
five Monte-Carlo ones), exactly as ``embedlab verify --check NAME --seed
SEED`` does, and prints per check how many seeds failed out of how many
ran, and which.  For ``m1_folded_normal`` it also prints the mean and
standard deviation of z = (m1 - expected) / se, which should be near 0 and
1 when the estimate is unbiased and its standard error right; its 3-SE
tolerance then fails about 0.27% of seeds.  Every check is deterministic given its seed, so a rate
reproduces exactly.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from bench_ab import parse_seeds
from embedlab.verify import ALL_CHECKS, run_checks

MONTE_CARLO = ("optimization_chain", "jensen_convex", "approx_bound", "m1_monotone",
               "m1_folded_normal")


def parse_checks(spec):
    names = [c.strip() for c in spec.split(",") if c.strip()]
    bad = [c for c in names if c not in ALL_CHECKS]
    if bad or not names:
        raise argparse.ArgumentTypeError(
            f"unknown check(s) {bad or spec!r}; choose from {', '.join(ALL_CHECKS)}")
    return names


def false_alarms(name, seeds):
    """(failing seeds, z values) of one check; z only for m1_folded_normal."""
    failed, zs = [], []
    for seed in seeds:
        res = run_checks(seed, [name])[name]
        if not res["passed"]:
            failed.append(seed)
        if name == "m1_folded_normal":
            zs.append((res["m1"] - res["expected"]) / res["se"])
    return failed, zs


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--checks", type=parse_checks, default=list(MONTE_CARLO),
                   help=f"comma list of checks (default: {','.join(MONTE_CARLO)})")
    p.add_argument("--seeds", required=True, help="'0-399' or a comma list")
    args = p.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    for name in args.checks:
        failed, zs = false_alarms(name, seeds)
        print(f"{name}: {len(failed)}/{len(seeds)} seeds failed "
              f"({len(failed) / len(seeds):.4f}); failing seeds {failed}", flush=True)
        if len(zs) > 1:
            print(f"{name}: z = (m1 - expected) / se: mean {statistics.mean(zs):.4f}, "
                  f"sd {statistics.stdev(zs):.4f}, |z| > 3 at {sum(abs(z) > 3 for z in zs)} "
                  f"seeds", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
