"""The four workloads: generated inputs, one op per call, output checks.

Every workload is a fixed *cycle* of ops.  The workload seed picks the
inputs of each cycle position (program seeds, prompts, radii, origins) but
never its size, so every seed costs about the same and every run measures
the same mix of ops.  The timed loop runs whole cycles.

Ops go through the package's public calls only, mostly
``embedlab.harness.cli.cli_dispatch``; each writes its reports to its own
directory under ``.perfbench_work/`` (relative to the checkout root, which
is the working directory, so report contents never depend on where the
checkout lives).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil

import numpy as np

import embedlab.harness.cli as cli
# bound before the tracer can patch it: the benchmark's own report write
# (Verify.run_op) is not the program's and must not be traced
from embedlab.harness.cli import write_json as _write_json
from embedlab import verify as verify_mod
from embedlab.alignment import QuadraticAlignment
from embedlab.harness.config import config_from_dict
from embedlab.harness.run import build_objects
from embedlab.models import tiny_task
from embedlab.schedules import make_schedule

WORK_DIR = ".perfbench_work"
GOLDEN_DIR = os.path.join("perfbench", "golden")
DEFAULT_SEED = 0           # reference outputs are committed for this seed only

RHO_GRID = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0)     # the README's sweep grid
COMPARE_METHODS = ("fixed", "date", "cfg", "cg", "ug", "ablation_random",
                   "ablation_unnormalized", "ablation_perturbed_h")
LEARNED_TRAIN_STEPS = 25
LEARNED_BATCH = 256
# optimization_chain at the CLI's 21-point grid takes about 26 s on a 2-CPU
# Xeon VM, longer than a whole run; the 5-point grid keeps its batched
# (S, 512, K, d) rollouts with S = 729 sequences instead of 1024-sequence chunks
PROP1_GRID = 5
PROP1_ROLLOUTS = 512
PROP1_CHUNK = 1024         # embedlab.verify.check_prop1's rollout chunk

REPORT_FILES = ("metrics.json", "sweep.csv", "compare.csv", "compare_paired.csv",
                "verify.json", "train_losses.csv")
RECORDS = "records.jsonl"


class OpFailed(RuntimeError):
    """An op raised, returned a non-zero CLI code, or failed a check."""


def _dispatch(argv):
    err = io.StringIO()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(err):
        code = cli.cli_dispatch(argv)
    if code != 0:
        raise OpFailed(f"embedlab {' '.join(argv)} exited {code}: {err.getvalue().strip()}")


class Workload:
    """Base: a cycle of ops with per-position directories and configs."""

    name = ""
    OWN_REPORTS = ()         # op-directory paths the benchmark writes itself

    def __init__(self, seed):
        self.seed = int(seed)
        self.rng = random.Random(f"{self.name}:{self.seed}")
        self.root = os.path.join(WORK_DIR, self.name)
        self.cycle = []          # per position: what run_op(k) needs

    def op_dir(self, k):
        return os.path.join(self.root, f"op{k}")

    def _write_config(self, k, name, raw):
        os.makedirs(self.root, exist_ok=True)
        path = os.path.join(self.root, f"op{k}-{name}.json")
        with open(path, "w") as fh:
            json.dump(raw, fh, sort_keys=True)
        return path

    def _program_seed(self):
        return self.rng.randrange(2**31)

    def prepare(self):
        """Generate every cycle position's inputs; part of set-up."""
        raise NotImplementedError

    def run_op(self, k):
        """One op; the base runs cycle position k's argv through the CLI."""
        _dispatch(self.cycle[k])

    def check(self, k, reports):
        """Workload-specific checks beyond finiteness; returns problems."""
        return []

    def clear(self, k):
        shutil.rmtree(self.op_dir(k), ignore_errors=True)
        os.makedirs(self.op_dir(k))


class Adaptive(Workload):
    """sample/sweep ops, updating at every step, both origin strategies."""

    name = "adaptive"
    # (subcommand, n_samples, origin); sweeps run two radii, so every op
    # samples four trajectories and the op latencies stay unimodal
    SHAPE = (("sample", 4, "fresh"), ("sweep", 2, "fresh"),
             ("sample", 4, "previous"), ("sweep", 2, "previous"))

    def prepare(self):
        for k, (cmd, n, origin) in enumerate(self.SHAPE):
            rhos = self.rng.sample(RHO_GRID, 2)
            raw = {"seed": self._program_seed(), "n_samples": n,
                   "prompt": self.rng.randrange(4),
                   "date": {"placement": "all", "origin": origin, "rho": rhos[0]}}
            build_objects(config_from_dict(raw))
            path = self._write_config(k, cmd, raw)
            argv = [cmd, "--config", path, "--out", self.op_dir(k)]
            if cmd == "sweep":
                argv += ["--param", "rho", "--values", ",".join(map(str, rhos))]
            self.cycle.append(argv)


class Compare(Workload):
    """``embedlab compare`` on the desk config (10% uniform updates)."""

    name = "compare"
    N_SAMPLES = 2        # paired t-tests need two
    T = 40               # keeps a 20 s run above 40 ops
    POSITIONS = 4

    def prepare(self):
        for k in range(self.POSITIONS):
            raw = {"seed": self._program_seed(), "n_samples": self.N_SAMPLES,
                   "prompt": self.rng.randrange(4), "schedule": {"T": self.T}}
            build_objects(config_from_dict(raw))
            path = self._write_config(k, "compare", raw)
            self.cycle.append(["compare", "--config", path, "--out", self.op_dir(k)])

    def check(self, k, reports):
        rows = reports["compare.csv"].decode().splitlines()[1:]
        methods = tuple(r.split(",")[0] for r in rows)
        if methods != COMPARE_METHODS:
            return [f"compare.csv methods {methods}"]
        return []


class Verify(Workload):
    """The theory-check suite, as ops of nearly equal cost.

    Op k runs one cheap check through the CLI, then optimization_chain (the
    suite's batched-numpy bulk, about 90% of its time) at a reduced grid
    through ``check_prop1``, both at op k's seed.  Left out: m1_monotone,
    which alone would take 0.5 s against the other ops' 0.3 s; jensen_convex
    and approx_bound, which draw ten random t in 5..100 and run a
    4000-sample reverse chain from each, so their cost moves with the seed
    by about 17%.
    """

    name = "verify"
    OWN_REPORTS = ("optimization_chain/",)
    SKIPPED = ("optimization_chain", "m1_monotone", "jensen_convex", "approx_bound")

    def prepare(self):
        self.tiny = tiny_task()
        self.tiny_sched = make_schedule(3, "linear", 0.25, 0.65)
        self.tiny_h = QuadraticAlignment.for_task(self.tiny, sign=-1.0)
        idx = verify_mod.ALL_CHECKS.index("optimization_chain")
        for check in verify_mod.ALL_CHECKS:
            if check in self.SKIPPED:
                continue
            seed = self._program_seed()
            # the stream run_checks would give optimization_chain at this seed
            stream = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(idx,)))
            self.cycle.append((check, seed, int(stream.integers(0, 2**31))))

    def run_op(self, k):
        check, seed, chain_seed = self.cycle[k]
        _dispatch(["verify", "--check", check, "--seed", str(seed),
                   "--out", os.path.join(self.op_dir(k), check)])
        rep = verify_mod.check_prop1(self.tiny, self.tiny_sched, self.tiny_h, 0,
                                     rho=0.5, n_grid=PROP1_GRID,
                                     n_rollouts=PROP1_ROLLOUTS, seed=chain_seed)
        res = {"v_unconstrained": rep.v_unconstrained,
               "v_constrained": rep.v_constrained, "v_fixed": rep.v_fixed,
               "se_fixed": rep.se_fixed, "grid": rep.grid,
               "interpretation": rep.interpretation,
               "tolerance": "2 standard errors below fixed", "passed": rep.ordered}
        out = os.path.join(self.op_dir(k), "optimization_chain")
        os.makedirs(out)
        _write_json(os.path.join(out, "verify.json"),
                       {"seed": seed, "checks": {"optimization_chain": res}})

    def check(self, k, reports):
        expected = (self.cycle[k][0], "optimization_chain")
        seen, failed = [], []
        for name, raw in sorted(reports.items()):
            for check, res in json.loads(raw)["checks"].items():
                seen.append(check)
                if res.get("passed") is not True:
                    failed.append(check)
        if sorted(seen) != sorted(expected) or failed:
            return [f"verify ran {sorted(seen)}, failed {failed}"]
        return []

    def computed_bytes(self):
        """Largest arrays of the optimization_chain rollouts, from shapes."""
        m = self.tiny.model
        half = (PROP1_GRID - 1) // 2
        ext = np.unique(np.concatenate([np.arange(-half, half + 1) / half,
                                        np.arange(-3 * half, 3 * half + 1, 2) / half]))
        rows = min(PROP1_CHUNK, ext.size ** self.tiny_sched.T) * PROP1_ROLLOUTS
        return {"label": "computed from shapes, not measured",
                "score_rows": rows,
                "score_x_bytes": rows * m.data_dim * 8,
                "score_component_array_bytes": rows * m.n_components * m.data_dim * 8}


class Learned(Workload):
    """Train a ScoreNet, round-trip its checkpoint, sample with it."""

    name = "learned"
    N_SAMPLES = 2
    POSITIONS = 4

    def prepare(self):
        for k in range(self.POSITIONS):
            origin = ("fresh", "previous")[k % 2]
            seed = self._program_seed()
            date = {"placement": "all", "origin": origin,
                    "rho": self.rng.choice(RHO_GRID)}
            train = {"seed": seed, "n_samples": self.N_SAMPLES, "date": date}
            build_objects(config_from_dict(train))
            ckpt = os.path.join(self.op_dir(k), "checkpoint.json")
            sample = dict(train, model={"kind": "learned", "checkpoint": ckpt})
            self.cycle.append((
                ["train", "--config", self._write_config(k, "train", train),
                 "--steps", str(LEARNED_TRAIN_STEPS), "--batch", str(LEARNED_BATCH),
                 "--out", self.op_dir(k)],
                ["sample", "--config", self._write_config(k, "sample", sample),
                 "--out", self.op_dir(k)]))

    def run_op(self, k):
        train, sample = self.cycle[k]
        _dispatch(train)
        _dispatch(sample)


WORKLOADS = {w.name: w for w in (Adaptive, Compare, Verify, Learned)}


# -- reports and checks ---------------------------------------------------------

def _records_digest(raw):
    h = hashlib.sha256()
    for line in raw.decode().splitlines():
        rec = json.loads(line)
        if _nonfinite(rec):
            raise OpFailed(f"non-finite values in {RECORDS}")
        rec.pop("wall_clock", None)          # the only nondeterministic field
        h.update(json.dumps(rec, sort_keys=True).encode() + b"\n")
    return h.hexdigest().encode() + b"\n"


def _files(top):
    """(path relative to top, full path) of every file under top."""
    for dirpath, _, files in os.walk(top):
        rel = os.path.relpath(dirpath, top)
        for name in files:
            yield (name if rel == "." else f"{rel}/{name}"), os.path.join(dirpath, name)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def collect_reports(op_dir):
    """{path relative to op_dir: bytes} of the deterministic reports an op
    wrote; records.jsonl enters as a digest without its wall-clock fields."""
    out = {}
    for key, path in _files(op_dir):
        name = os.path.basename(path)
        if name in REPORT_FILES:
            out[key] = _read(path)
        elif name == RECORDS:
            out[key + ".sha256"] = _records_digest(_read(path))
    return out


def bytes_written(workload, k):
    """Bytes of the files the program left in op k's directory."""
    return sum(os.path.getsize(path) for key, path in _files(workload.op_dir(k))
               if not key.startswith(workload.OWN_REPORTS))


def _nonfinite(obj):
    if isinstance(obj, float):
        return not math.isfinite(obj)
    if isinstance(obj, dict):
        return any(_nonfinite(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_nonfinite(v) for v in obj)
    return False


def _finite_problems(reports):
    bad = []
    for name, raw in reports.items():
        if name.endswith(".json"):
            if _nonfinite(json.loads(raw)):
                bad.append(name)
        elif name.endswith(".csv"):
            for cell in raw.decode().replace("\n", ",").split(","):
                try:
                    value = float(cell)
                except ValueError:
                    continue
                if not math.isfinite(value):
                    bad.append(name)
                    break
    return [f"non-finite values in {name}" for name in bad]


def golden_dir(workload, k):
    return os.path.join(GOLDEN_DIR, workload.name, f"op{k}")


def check_op(workload, k, reports):
    """Every check an op's output must pass; returns a list of problems."""
    if not reports:
        return ["op wrote no report"]
    problems = _finite_problems(reports)
    problems += workload.check(k, reports)
    if workload.seed == DEFAULT_SEED:
        ref_dir = golden_dir(workload, k)
        if not os.path.isdir(ref_dir):
            return problems + [f"missing reference outputs {ref_dir}"]
        ref = {key: _read(path) for key, path in _files(ref_dir)}
        if ref.keys() != reports.keys():
            problems.append(f"report files {sorted(reports)} != reference {sorted(ref)}")
        problems += [f"{name} differs from {ref_dir}/{name}"
                     for name in sorted(ref.keys() & reports.keys())
                     if ref[name] != reports[name]]
    return problems
