"""Command-line entry points.

Subcommands: train (score-matching training to a checkpoint), sample (one
experiment to records + metrics), compare (fixed vs adaptive vs baselines
with shared noise streams), sweep (one parameter grid to CSV), verify (the
theory-check suite to JSON).  All numeric output is printed and written
with 9 significant digits; report files contain nothing nondeterministic,
so identical (config, seed) runs produce byte-identical files.  The one
exception is records.jsonl, whose per-trajectory wall-clock fields are
measurements by nature.  records.jsonl holds one line per row of
run_experiment's record array, its steps in sampling order (t = T first).
A run samples all its trajectories as one batch, so every record of a run
carries the same wall_clock: the batch's update and denoise seconds
divided by the number of trajectories.  compare and sweep sample their
variants (the eight methods, or one config per swept value) as one batch
with run_variants: every variant at the same noise, each bit for bit its
solo run.  sweep checks every value's config before it samples any, and
a bad value names --param and the value.  Every report is written under a
temporary name and renamed over its target, so a failed command leaves no
half-written file.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from ..fileio import open_atomic
from ..models import ScoreNet, save_checkpoint, train_dsm
from ..verify import ALL_CHECKS, run_checks
from .config import (ConfigError, DateConfig, ExperimentConfig, config_from_dict, config_to_dict,
                     load_config)
from .metrics import paired_ttest
from .run import build_objects, run_experiment, run_variants


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


def round9(obj):
    """Round floats to 9 significant digits, recursively."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round9(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return round9(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return round9(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(path, obj):
    with open_atomic(path) as fh:
        json.dump(round9(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, header, rows):
    with open_atomic(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _load_cfg(args):
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=int(args.seed))
    if args.samples is not None:
        cfg = dataclasses.replace(cfg, n_samples=int(args.samples))
    if args.out is not None:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    return cfg


def _outdir(cfg):
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg.out_dir


def _record_to_dict(rec):
    T = len(rec.h)
    steps = zip(rec.x_t.tolist(), rec.c_t.tolist(), rec.x0_bar.tolist(), rec.h.tolist())
    return {
        "steps": [{"t": T - k, "x_t": x_t, "c_t": c_t, "x0_bar": x0_bar, "h": h}
                  for k, (x_t, c_t, x0_bar, h) in enumerate(steps)],
        "final_x0": rec.final_x0.tolist(),
        "wall_clock": {"update": float(rec.update_s), "denoise": float(rec.denoise_s)},
    }


def cmd_train(args):
    cfg = _load_cfg(args)
    out = _outdir(cfg)
    task, sched, _, _, _ = build_objects(cfg)
    net = ScoreNet(task.model.data_dim, task.model.embed_dim, seed=cfg.seed)
    losses = train_dsm(net, task.model, sched, steps=args.steps, batch=args.batch,
                       lr=args.lr, seed=cfg.seed, embeddings=task.embed_table)
    path = os.path.join(out, "checkpoint.json")
    save_checkpoint(net, path)
    write_csv(os.path.join(out, "train_losses.csv"), ["step", "loss"],
              [(i, float(v)) for i, v in enumerate(losses)])
    if len(losses):
        first = float(np.mean(losses[:max(1, len(losses) // 10)]))
        last = float(np.mean(losses[-max(1, len(losses) // 10):]))
        print(f"trained {args.steps} steps: loss {_fmt(first)} -> {_fmt(last)}")
    else:
        print(f"trained {args.steps} steps")
    print(f"checkpoint: {path}")
    return 0


def cmd_sample(args):
    cfg = _load_cfg(args)
    out = _outdir(cfg)
    run, report = run_experiment(cfg)
    with open_atomic(os.path.join(out, "records.jsonl")) as fh:
        for rec in run:
            fh.write(json.dumps(round9(_record_to_dict(rec))) + "\n")
    write_json(os.path.join(out, "metrics.json"), report.to_dict())
    se = "n/a" if report.se_h is None else _fmt(report.se_h)
    print(f"n={report.n_samples} mean_h={_fmt(report.mean_h)} se_h={se} "
          f"frechet={_fmt(report.frechet)}")
    return 0


_COMPARE_METHODS = ("fixed", "date", "cfg", "cg", "ug",
                    "ablation_random", "ablation_unnormalized",
                    "ablation_perturbed_h")


def _variant(cfg, method):
    from ..guidance import GuidanceConfig
    if method == "fixed":
        return dataclasses.replace(cfg, date=None, guidance=GuidanceConfig(kind="none"))
    if method == "date":
        return dataclasses.replace(cfg, guidance=GuidanceConfig(kind="none"))
    if method in ("cfg", "cg", "ug"):
        return dataclasses.replace(cfg, date=None,
                                   guidance=GuidanceConfig(kind=method, w=cfg.guidance.w))
    if method.startswith("ablation_"):
        kind = method[len("ablation_"):]
        return dataclasses.replace(
            cfg, guidance=GuidanceConfig(kind="ablation", ablation_kind=kind,
                                         rho=cfg.date.rho))
    raise ConfigError(f"unknown method {method!r}")


def cmd_compare(args):
    cfg = _load_cfg(args)
    if cfg.date is None:
        raise ConfigError("compare needs a date section in the config")
    out = _outdir(cfg)
    _, sched, _, h, update_steps = build_objects(cfg)
    n_updates = len(update_steps)
    rows = []
    finals = {}
    results = run_variants([_variant(cfg, method) for method in _COMPARE_METHODS])
    for method, (run, report) in zip(_COMPARE_METHODS, results):
        finals[method] = h.value(run.final_x0, cfg.prompt)
        upd = n_updates if (method == "date" or method.startswith("ablation")) else 0
        rows.append((method, report.mean_h, report.se_h if report.se_h is not None else "",
                     report.frechet, sched.T, upd))
    header = ["method", "mean_h", "se_h", "frechet", "steps", "updates"]
    write_csv(os.path.join(out, "compare.csv"), header, rows)

    pairings = []
    for method in _COMPARE_METHODS[1:]:
        tt = paired_ttest(finals[method], finals["fixed"])
        pairings.append((method, tt["mean_diff"], tt["t_stat"], tt["p_greater"]))
    write_csv(os.path.join(out, "compare_paired.csv"),
              ["method", "mean_diff_vs_fixed", "t_stat", "p_greater"], pairings)

    widths = [max(len(str(r[i])) for r in rows + [tuple(header)]) for i in range(len(header))]
    print("  ".join(hd.ljust(w) for hd, w in zip(header, widths)))
    for row in rows:
        print("  ".join(_fmt(v).ljust(w) for v, w in zip(row, widths)))
    return 0


_SWEEP_PARAMS = ("rho", "fraction", "placement", "iters")
_PARSE = {"int": int, "float": float, "str": str}   # a --values string, by its field's type


def _sweep_variant(cfg, param, raw):
    """cfg with its date section's `param` set to the string `raw`, parsed
    as its field's type and checked as a config file's value would be; a
    bad value is a ConfigError naming --param and the value."""
    raw_cfg = config_to_dict(cfg)
    date = raw_cfg["date"]
    key = "iters_per_update" if param == "iters" else param
    kind = next(f.type for f in dataclasses.fields(DateConfig) if f.name == key)
    try:
        date[key] = _PARSE[kind](raw)
    except ValueError:
        raise ConfigError(f"--param {param}: bad value {raw!r} (expected {kind})") from None
    if param in ("fraction", "placement"):
        date["update_steps"] = None
    try:
        return config_from_dict(raw_cfg)
    except ConfigError as exc:
        raise ConfigError(f"--param {param}: bad value {raw!r} ({exc})") from exc


def cmd_sweep(args):
    cfg = _load_cfg(args)
    if cfg.date is None:
        raise ConfigError("sweep needs a date section in the config")
    if args.param not in _SWEEP_PARAMS:
        raise ConfigError(f"--param must be one of {_SWEEP_PARAMS}")
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("--values is empty")
    variants = [_sweep_variant(cfg, args.param, raw) for raw in values]
    out = _outdir(cfg)
    rows = [(raw, report.mean_h, report.se_h if report.se_h is not None else "", report.frechet)
            for raw, (_, report) in zip(values, run_variants(variants))]
    path = os.path.join(out, "sweep.csv")
    write_csv(path, [args.param, "mean_h", "se_h", "frechet"], rows)
    for row in rows:
        print(",".join(_fmt(v) for v in row))
    print(f"wrote {path}")
    return 0


def cmd_verify(args):
    names = None
    if args.check:
        names = [args.check]
    results = run_checks(seed=args.seed if args.seed is not None else 0, names=names)
    outdir = args.out or "out"
    os.makedirs(outdir, exist_ok=True)
    write_json(os.path.join(outdir, "verify.json"),
               {"seed": args.seed if args.seed is not None else 0, "checks": results})
    all_ok = True
    for name, res in results.items():
        ok = bool(res.get("passed"))
        all_ok = all_ok and ok
        detail = {k: v for k, v in res.items() if k != "passed" and not isinstance(v, (list, dict))}
        pretty = " ".join(f"{k}={_fmt(v) if isinstance(v, float) else v}"
                          for k, v in detail.items())
        # FAIL lines go to stderr, so a caller that keeps only errors sees them
        print(f"{'PASS' if ok else 'FAIL'} {name} {pretty}", file=sys.stdout if ok else sys.stderr)
    print(f"report: {os.path.join(outdir, 'verify.json')}")
    return 0 if all_ok else 1


@functools.cache
def build_parser():
    """The CLI's parser, built once per process; subcommand NAME runs
    cmd_NAME, looked up at dispatch."""
    p = argparse.ArgumentParser(prog="embedlab",
                                description="desk-scale adaptive-embedding diffusion lab")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON experiment config")
        sp.add_argument("--seed", type=int, help="override config seed")
        sp.add_argument("--samples", type=int, help="override n_samples")
        sp.add_argument("--out", help="override output directory")

    sp = sub.add_parser("train", help="train the score net by score matching")
    common(sp)
    sp.add_argument("--steps", type=int, default=6000)
    sp.add_argument("--batch", type=int, default=256)
    sp.add_argument("--lr", type=float, default=2e-3)

    sp = sub.add_parser("sample", help="run one experiment")
    common(sp)

    sp = sub.add_parser("compare", help="fixed vs adaptive vs baselines, paired")
    common(sp)

    sp = sub.add_parser("sweep", help="grid over one update parameter")
    common(sp)
    sp.add_argument("--param", required=True, choices=_SWEEP_PARAMS)
    sp.add_argument("--values", required=True, help="comma-separated values")

    sp = sub.add_parser("verify", help="run the theory-check suite")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--check", choices=ALL_CHECKS, help="run a single check")
    sp.add_argument("--out", help="output directory (default: out)")
    return p


def cli_dispatch(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return globals()["cmd_" + args.cmd](args)
    except (ValueError, RuntimeError, OSError) as exc:
        # covers config, schedule, model, graph, update, and metric errors
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
