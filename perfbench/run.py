"""embedlab benchmark: four closed-loop workloads, one client, in-process.

Usage (from the root of a checkout; the package is imported from ./src):

    python3 perfbench/run.py --workload adaptive --seed 0 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced runs of each op and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads, the metrics and their mapping.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 2          # extra set-ups in fresh processes; setup_s is the median
GAUGE_LOOP = 100_000
TAIL_LADDER = (99, 95, 90, 75, 50)
TAIL_MIN_BEYOND = 10
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Layers each workload must leave idle in a traced run; it must hit the rest.
# train_dsm must run on learned and nowhere else.
IDLE = {
    "adaptive": ("guidance", "verify"),
    "compare": ("verify",),
    "verify": ("harness.config", "harness.run", "harness.metrics", "guidance"),
    "learned": ("guidance", "verify"),
}


def nproc():
    return len(os.sched_getaffinity(0))


def pin_blas():
    """One BLAS thread (see README, "Load model"); must run before numpy
    is imported."""
    for var in BLAS_VARS:
        os.environ[var] = "1"


def blas_threads():
    """Thread counts reported by every OpenBLAS the process has loaded."""
    import ctypes
    libs = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower():
                    libs.add(path)
    except OSError:
        pass
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def env_record(workload):
    import numpy as np
    import scipy
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for idx in sorted(os.listdir(base)):
            d = os.path.join(base, idx)
            try:
                with open(os.path.join(d, "level")) as a, open(os.path.join(d, "type")) as b, \
                        open(os.path.join(d, "size")) as c:
                    caches[f"L{a.read().strip()}-{b.read().strip()}"] = c.read().strip()
            except OSError:
                continue
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rec = {"nproc": nproc(), "cpu_model": model, "caches": caches,
           "python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__,
           "blas": f"{blas.get('name')} {blas.get('version')}",
           "blas_threads": blas_threads(),
           "blas_env": {v: os.environ[v] for v in BLAS_VARS}}
    if hasattr(workload, "computed_bytes"):
        rec["computed_bytes"] = workload.computed_bytes()
    return rec


def tail(latencies):
    """(percentile, value, ops beyond): the highest ladder percentile, by
    nearest rank, with at least TAIL_MIN_BEYOND ops above it."""
    xs = sorted(latencies)
    for p in TAIL_LADDER:
        rank = max(1, -(-p * len(xs) // 100))
        value = xs[rank - 1]
        beyond = sum(1 for x in xs if x > value)
        if beyond >= TAIL_MIN_BEYOND:
            return p, value, beyond
    return 100, xs[-1], 0


class Runner:
    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.latencies = []                 # (cycle position, seconds)

    def op(self, k, traced=False, op_id=-1):
        """One op: run, time, collect and check reports.

        Returns (seconds, reports); reports is None when the op failed.
        """
        from workloads import check_op, collect_reports
        wl = self.wl
        wl.clear(k)
        gc.collect()                        # every op starts from a swept heap
        self.attempted += 1
        error = None
        if traced:
            self.tracer.install()
        try:
            t0 = time.perf_counter()
            try:
                if traced:
                    self.tracer.run_op(op_id, lambda: wl.run_op(k))
                else:
                    wl.run_op(k)
            except Exception as exc:        # any failure of the program counts
                error = exc
            dt = time.perf_counter() - t0
        finally:
            if traced:
                self.tracer.remove()
        reports = None
        if error is None:
            try:
                reports = collect_reports(wl.op_dir(k))
                problems = check_op(wl, k, reports)
            except Exception as exc:        # an unreadable report is a failed check
                error = exc
        if error is not None:
            problems = [f"{type(error).__name__}: {error}"]
        if problems:
            self.fail(k, problems)
            return dt, None
        return dt, reports

    def fail(self, k, problems):
        self.failed += 1
        msg = f"op {self.wl.name}[{k}] failed: " + "; ".join(problems)
        self.problems.append(msg)


def gauge():
    """Seconds of a fixed pure-Python loop, timed outside the ops: the
    machine's current speed for interpreter-bound code (README, "Noise")."""
    t0 = time.perf_counter()
    x = 0
    for i in range(GAUGE_LOOP):
        x += i * i
    return time.perf_counter() - t0


def run_plain(wl, seconds):
    """Whole cycles until the summed op time reaches seconds; the gauge is
    read after every cycle."""
    runner = Runner(wl)
    busy, gauges = 0.0, []
    while busy < seconds:
        for k in range(len(wl.cycle)):
            dt, _ = runner.op(k)
            runner.latencies.append((k, dt))
            busy += dt
        gauges.append(gauge())
    return runner, [dt for _, dt in runner.latencies], busy, gauges


def run_traced(wl, seconds):
    """Each op untraced and traced, order alternating per cycle."""
    from tracer import Tracer
    from workloads import bytes_written
    tracer = Tracer()
    runner = Runner(wl, tracer)
    busy = {False: 0.0, True: 0.0}
    written, cycles, op_id = [], 0, 0
    while busy[False] + busy[True] < seconds:
        for k in range(len(wl.cycle)):
            reports = {}
            for traced in ((False, True) if cycles % 2 == 0 else (True, False)):
                dt, reports[traced] = runner.op(k, traced=traced, op_id=op_id)
                busy[traced] += dt
                if traced:
                    written.append(bytes_written(wl, k))
            op_id += 1
            if None not in reports.values() and reports[False] != reports[True]:
                runner.fail(k, ["traced reports differ from untraced"])
        cycles += 1
    return runner, tracer, busy, written, cycles


def layer_metrics(wl, tracer, busy, written, cycles, runner):
    from tracer import LAYERS, layer_summary
    spans = tracer.spans()
    summary = layer_summary(spans)
    ops = len(written)
    op_s = busy[True]
    c = tracer.counters
    m = {}
    for layer in LAYERS:
        calls, secs = summary.get(layer, (0, 0.0))
        m[f"{layer}.calls"] = (calls // cycles, "count")
        m[f"{layer}.self_ms"] = (secs * 1e3 / ops, "ms")
        m[f"{layer}.share"] = (secs / op_s, "ratio")

    def ratio(a, b):
        return a / b if b else 0.0
    m["harness.run.us_per_traj_step"] = (ratio(op_s * 1e6, c["traj_steps"]), "us")
    m["models.rows_per_score_call"] = (ratio(c["score_rows"], c["score_calls"]), "rows")
    m["autodiff.nodes_per_eval"] = (ratio(c["eval_nodes"], c["eval_calls"]), "nodes")
    m["graphs.reuse_ratio"] = (1.0 - ratio(c["graph_builds"], c["graph_lookups"])
                               if c["graph_lookups"] else 0.0, "ratio")
    m["update.zero_grad_ratio"] = (ratio(c["zero_directions"], c["direction_calls"]), "ratio")
    m["harness.cli.bytes_written"] = (sum(written) / ops, "B")
    m["trace_overhead"] = (busy[False] / busy[True] - 1.0, "ratio")

    print(f"traced ops: {ops} in {cycles} cycles; traced {op_s:.6g} s, "
          f"untraced {busy[False]:.6g} s")
    print("bases: " + ", ".join(f"{k}={v}" for k, v in c.items()))
    print(f"benchmark glue (op root self time) share: "
          f"{summary.get('op', (0, 0.0))[1] / op_s:.4g}")
    per_method = {}
    for i, label, steps in tracer.runs:
        dur, n = per_method.get(label, (0.0, 0))
        per_method[label] = (dur + tracer.ends[i] - tracer.starts[i], n + steps)
    for label, (dur, n) in per_method.items():
        print(f"run_experiment {label}: {dur * 1e6 / n:.1f} us/traj-step over {n} traj-steps")

    for layer in LAYERS:
        hit = summary.get(layer, (0, 0.0))[0] > 0
        if hit == (layer in IDLE[wl.name]):
            runner.problems.append(f"layer {layer} {'hit' if hit else 'idle'} on {wl.name}, "
                                   "against the written mapping")
    if any(n.endswith(":train_dsm") for n in tracer.names) != (wl.name == "learned"):
        runner.problems.append(f"train_dsm ran or did not run on {wl.name} against the mapping")
    return m


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("adaptive", "compare", "verify", "learned"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up only, print the set-up seconds and exit")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "embedlab", "__init__.py")):
        print(f"error: no embedlab source under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    pin_blas()
    sys.path.insert(0, SRC)

    t0 = time.perf_counter()
    import embedlab
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.prepare()
    setup = time.perf_counter() - t0
    if not os.path.abspath(embedlab.__file__).startswith(SRC + os.sep):
        print(f"error: embedlab imported from {embedlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup))
        return 0

    env = env_record(wl)
    if max(env["blas_threads"].values(), default=0) > env["nproc"]:
        print(f"error: BLAS threads {env['blas_threads']} exceed nproc", file=sys.stderr)
        return 2
    print("env " + json.dumps(env, sort_keys=True))

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    samples = {}
    if args.trace:
        runner, tracer, busy, written, cycles = run_traced(wl, args.seconds)
        metrics = layer_metrics(wl, tracer, busy, written, cycles, runner)
        tracer.write_spans(os.path.join(OUT_DIR, f"spans-{tag}.csv"))
    else:
        runner, lat, busy, gauges = run_plain(wl, args.seconds)
        setups = [setup] + probe_setups(args)
        pct, tail_s, beyond = tail(lat)
        done = runner.attempted - runner.failed
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (done / busy, "1/s"),
            "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "op_tail_ms": (tail_s * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"ops: {runner.attempted} attempted in {len(lat) // len(wl.cycle)} cycles, "
              f"{busy:.6g} s busy; op_p50_ms over {len(lat)} ops; op_tail_ms is p{pct} "
              f"({beyond} ops beyond); setup_s is the median of {len(setups)} set-ups "
              f"{[round(s, 4) for s in setups]}")
        print(f"error_rate = {runner.failed / runner.attempted:.6g} "
              f"({runner.failed}/{runner.attempted} ops failed)")
        samples = {"setup_s": setups, "gauge_s": gauges}
        print(f"machine gauge: median {statistics.median(gauges) * 1e3:.4g} ms over "
              f"{len(gauges)} readings (a {GAUGE_LOOP}-step pure-Python loop, read after "
              "every cycle)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")

    correct = runner.failed == 0 and not runner.problems
    result = {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(dict(result, env=env, problems=runner.problems,
                       latencies=runner.latencies, samples=samples), fh,
                  indent=1, sort_keys=True)
    for problem in runner.problems:
        print(f"problem: {problem}")
    print(json.dumps(result))
    return 0


def probe_setups(args):
    """Set up again in fresh processes (imports included), one at a time."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


if __name__ == "__main__":
    sys.exit(main())
