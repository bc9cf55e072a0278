"""Byte-for-byte golden outputs of the CLI on small fixed configs.

Every case runs its commands through ``cli_dispatch`` inside a fresh
working directory, with relative paths (the output directory and the
checkpoint path enter the config hash), and compares every report it wrote
with ``tests/golden/<case>/``.  ``records.jsonl`` is compared with its
``wall_clock`` fields removed, the only measurement in it, and a checkpoint
through its SHA-256.

The fixtures were written by the per-trajectory sampler, before sampling
was batched across trajectories; the ``verify_*`` fixtures, by the
mixture kernels that reduced every axis with ``np.sum``/``np.max``.  A
change of any number in them is a decision, made by regenerating them in
a reviewed diff:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

import pytest

from embedlab.harness.cli import cli_dispatch

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

_ALL = {"placement": "all"}

# case name -> (config, list of argv; "CFG" is replaced by the config path)
CASES = {
    "sample_fresh_cosine": (
        {"seed": 3, "n_samples": 3, "prompt": 1, "schedule": {"T": 12},
         "date": dict(_ALL, origin="fresh", rho=0.5)},
        [["sample", "--config", "CFG", "--out", "out"]]),
    "sample_previous_quadratic": (
        {"seed": 4, "n_samples": 3, "prompt": 2, "schedule": {"T": 12},
         "h": {"kind": "quadratic"},
         "date": dict(_ALL, origin="previous", rho=1.0, l2_weight=0.2)},
        [["sample", "--config", "CFG", "--out", "out"]]),
    "sample_composite_iters": (
        {"seed": 5, "n_samples": 3, "prompt": 0, "schedule": {"T": 12},
         "h": {"kind": "composite",
               "weights": [{"kind": "cosine", "weight": 0.7},
                           {"kind": "quadratic", "weight": 0.3}]},
         "date": {"fraction": 0.5, "origin": "previous", "rho": 0.5,
                  "iters_per_update": 2}},
        [["sample", "--config", "CFG", "--out", "out"]]),
    "sample_ddim": (
        {"seed": 6, "n_samples": 3, "prompt": 3, "schedule": {"T": 12},
         "sampler": "ddim", "date": dict(_ALL, rho=0.25)},
        [["sample", "--config", "CFG", "--out", "out"]]),
    "sample_alg1": (
        {"seed": 7, "n_samples": 3, "prompt": 1, "schedule": {"T": 12},
         "sampler": "alg1", "date": {"fraction": 0.5, "rho": 0.5}},
        [["sample", "--config", "CFG", "--out", "out"]]),
    "sweep_rho": (
        {"seed": 8, "n_samples": 3, "prompt": 2, "schedule": {"T": 10},
         "date": dict(_ALL, origin="previous")},
        [["sweep", "--config", "CFG", "--param", "rho", "--values", "0.25,2",
          "--out", "out"]]),
    "compare": (
        {"seed": 9, "n_samples": 3, "prompt": 0, "schedule": {"T": 10},
         "date": {"fraction": 0.3}},
        [["compare", "--config", "CFG", "--out", "out"]]),
    "learned": (
        {"seed": 10, "n_samples": 2, "prompt": 1, "schedule": {"T": 10},
         "date": dict(_ALL, origin="previous", rho=0.5),
         "model": {"kind": "learned", "checkpoint": "out/checkpoint.json"}},
        [["train", "--config", "train.json", "--steps", "6", "--batch", "32",
          "--out", "out"],
         ["sample", "--config", "CFG", "--out", "out"]]),
}

# the theory checks of perfbench's verify cycle, each alone at seed 0
VERIFY_CHECKS = ("tweedie_exact_k1", "tweedie_exact_mixture", "taylor_order_default",
                 "taylor_order_linear", "taylor_order_quadratic_k1", "score_expansion_default",
                 "score_expansion_quadratic_k1", "m1_folded_normal")
CASES.update({f"verify_{check}": ({}, [["verify", "--check", check, "--seed", "0",
                                        "--out", "out"]])
              for check in VERIFY_CHECKS})


def _strip_wall_clock(raw):
    lines = []
    for line in raw.decode().splitlines():
        rec = json.loads(line)
        rec.pop("wall_clock")
        lines.append(json.dumps(rec))
    return ("\n".join(lines) + "\n").encode()


def run_case(name, workdir):
    """Run case `name` in `workdir`; returns {report name: golden bytes}."""
    cfg, commands = CASES[name]
    old = os.getcwd()
    os.chdir(workdir)
    try:
        with open("cfg.json", "w") as fh:
            json.dump(cfg, fh)
        # training runs before the checkpoint exists, from a model-free copy
        with open("train.json", "w") as fh:
            json.dump({k: v for k, v in cfg.items() if k != "model"}, fh)
        for argv in commands:
            argv = ["cfg.json" if a == "CFG" else a for a in argv]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_dispatch(argv)
            assert code == 0, f"{name}: embedlab {' '.join(argv)} exited {code}"
        out = {}
        for fname in sorted(os.listdir("out")):
            with open(os.path.join("out", fname), "rb") as fh:
                raw = fh.read()
            if fname == "records.jsonl":
                out[fname] = _strip_wall_clock(raw)
            elif fname == "checkpoint.json":
                out[fname + ".sha256"] = (hashlib.sha256(raw).hexdigest() + "\n").encode()
            else:
                out[fname] = raw
        return out
    finally:
        os.chdir(old)


def _read_golden(name):
    top = os.path.join(GOLDEN, name)
    out = {}
    for fname in sorted(os.listdir(top)):
        with open(os.path.join(top, fname), "rb") as fh:
            out[fname] = fh.read()
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_reports_match_golden(name, tmp_path):
    got = run_case(name, tmp_path)
    want = _read_golden(name)
    assert sorted(got) == sorted(want)
    for fname in want:
        assert got[fname] == want[fname], f"{name}/{fname} differs from the golden file"


def _write_all():
    import tempfile
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            reports = run_case(name, tmp)
        top = os.path.join(GOLDEN, name)
        os.makedirs(top, exist_ok=True)
        for fname, raw in reports.items():
            with open(os.path.join(top, fname), "wb") as fh:
                fh.write(raw)
        print(f"wrote {top}: {', '.join(reports)}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    _write_all()
