"""Outside-in tracer: spans around the package's public calls.

Each patch point names a layer and a callable *where its caller looks it
up*: a module-level name in the calling module (``embedlab.update:evaluate``)
or a method on the class that instances resolve it from
(``embedlab.models:MixtureModel.score``).  Installing the tracer replaces
each of them with a wrapper that records a span (name, layer, start, end,
parent span, op id); removing it restores the originals.  A patch point
whose name no longer exists is an error, never a silent zero.

Spans stay in memory while the benchmark runs and are written out once at
the end (``Tracer.write_spans``).  Nothing here touches the source tree.
"""

from __future__ import annotations

import functools
import importlib
import time

# Layers are the package modules; autodiff is split into its forward
# (``evaluate``) and backward (``gradient``) sweeps.
LAYERS = (
    "harness.config", "harness.run", "harness.metrics", "harness.cli",
    "models", "schedules", "alignment", "graphs",
    "autodiff.forward", "autodiff.backward", "update", "guidance", "verify",
)

# (layer, module the caller resolves the name in, attribute path)
PATCH_POINTS = (
    ("harness.cli", "embedlab.harness.cli", "cli_dispatch"),
    ("harness.cli", "embedlab.harness.cli", "write_json"),
    ("harness.cli", "embedlab.harness.cli", "write_csv"),

    ("harness.config", "embedlab.harness.cli", "load_config"),
    ("harness.config", "embedlab.harness.run", "config_to_dict"),

    ("harness.run", "embedlab.harness.cli", "run_experiment"),
    ("harness.run", "embedlab.harness.cli", "build_objects"),

    ("harness.metrics", "embedlab.harness.run", "compute_metrics"),
    ("harness.metrics", "embedlab.harness.cli", "paired_ttest"),

    ("models", "embedlab.models", "MixtureModel.score"),
    ("models", "embedlab.models", "MixtureModel.log_likelihood"),
    ("models", "embedlab.models", "MixtureModel.posterior_mean_x0"),
    ("models", "embedlab.models", "MixtureModel.grad_c_log_likelihood"),
    ("models", "embedlab.models", "MixtureModel.moments_x0"),
    ("models", "embedlab.models", "MixtureModel.sample_x0"),
    ("models", "embedlab.models", "MixtureModel.emit_score"),
    ("models", "embedlab.models", "MixtureModel.emit_log_likelihood"),
    ("models", "embedlab.models", "ScoreNet.score"),
    ("models", "embedlab.models", "ScoreNet.emit_score"),
    ("models", "embedlab.harness.run", "unconditional_score"),
    ("models", "embedlab.harness.run", "default_task"),
    ("models", "embedlab.harness.run", "load_checkpoint"),
    ("models", "embedlab.harness.cli", "train_dsm"),
    ("models", "embedlab.harness.cli", "save_checkpoint"),
    ("models", "embedlab.verify", "ddpm_chain"),

    ("schedules", "embedlab.schedules", "NoiseSchedule.alpha_bar"),
    ("schedules", "embedlab.harness.run", "make_schedule"),
    ("schedules", "embedlab.harness.run", "step_ddpm"),
    ("schedules", "embedlab.harness.run", "step_alg1"),
    ("schedules", "embedlab.harness.run", "step_ddim"),
    ("schedules", "embedlab.models", "step_ddpm"),
    ("schedules", "embedlab.verify", "step_ddpm"),
    ("schedules", "embedlab.verify", "perturb"),
    ("schedules", "embedlab.verify", "tweedie_mean"),
    ("schedules", "embedlab.alignment", "tweedie_mean"),

    ("alignment", "embedlab.alignment", "CosineAlignment.value"),
    ("alignment", "embedlab.alignment", "CosineAlignment.emit"),
    ("alignment", "embedlab.alignment", "QuadraticAlignment.value"),
    ("alignment", "embedlab.alignment", "QuadraticAlignment.emit"),
    ("alignment", "embedlab.alignment", "LinearAlignment.value"),
    ("alignment", "embedlab.alignment", "LinearAlignment.emit"),
    ("alignment", "embedlab.alignment", "CompositeAlignment.value"),
    ("alignment", "embedlab.alignment", "CompositeAlignment.emit"),

    ("graphs", "embedlab.graphs", "GraphCache.h_t"),
    ("graphs", "embedlab.graphs", "GraphCache.perturbed_h"),
    ("graphs", "embedlab.graphs", "h_t_graph"),
    ("graphs", "embedlab.graphs", "perturbed_h_graph"),
    ("graphs", "embedlab.guidance", "classifier_graph"),
    ("graphs", "embedlab.verify", "directional_cgrad_graph"),

    ("autodiff.forward", "embedlab.update", "evaluate"),
    ("autodiff.forward", "embedlab.guidance", "evaluate"),
    ("autodiff.forward", "embedlab.verify", "evaluate"),
    ("autodiff.backward", "embedlab.update", "gradient"),
    ("autodiff.backward", "embedlab.guidance", "gradient"),
    ("autodiff.backward", "embedlab.verify", "gradient"),

    ("update", "embedlab.harness.run", "multi_iter_update"),
    ("update", "embedlab.harness.run", "build_update_schedule"),
    ("update", "embedlab.update", "scaled_direction"),
    ("update", "embedlab.guidance", "scaled_direction"),
    ("update", "embedlab.guidance", "grad_h_t_wrt_c"),
    ("update", "embedlab.verify", "grad_h_t_wrt_c"),

    ("guidance", "embedlab.harness.run", "cfg_score"),
    ("guidance", "embedlab.harness.run", "cg_score"),
    ("guidance", "embedlab.harness.run", "classifier_grad"),
    ("guidance", "embedlab.harness.run", "ug_score"),
    ("guidance", "embedlab.harness.run", "ablation_update"),

    ("verify", "embedlab.harness.cli", "run_checks"),
    ("verify", "embedlab.verify", "check_prop1"),
)

# Graph builders: each call is one build.  Lookups are cache calls plus the
# builders called without a cache in front of them.
_CACHE_LOOKUPS = ("GraphCache.h_t", "GraphCache.perturbed_h")
_CACHED_BUILDERS = ("h_t_graph", "perturbed_h_graph")
_UNCACHED_BUILDERS = ("classifier_graph", "directional_cgrad_graph")


class PatchError(RuntimeError):
    """A patch point no longer resolves to a callable."""


def _resolve(module_name, path):
    """Return (owner, attribute name, original) for a patch point."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise PatchError(f"{module_name}: cannot import ({exc})") from exc
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            raise PatchError(f"{module_name}:{path}: {name!r} no longer exists")
    # methods must be defined on the class itself, or restoring them would
    # shadow an inherited one
    found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(found):
        raise PatchError(f"{module_name}:{path}: {attr!r} no longer exists")
    return owner, attr, found


class Tracer:
    """In-memory spans plus the counters the per-layer ratios need."""

    def __init__(self):
        self.names, self.layers, self.starts, self.ends = [], [], [], []
        self.parents, self.ops = [], []
        self.counters = dict.fromkeys(
            ("score_calls", "score_rows", "eval_calls", "eval_nodes",
             "graph_lookups", "graph_builds", "direction_calls",
             "zero_directions", "traj_steps"), 0)
        self.runs = []          # (span index, method label, trajectory-steps)
        self._stack = []
        self._op = -1
        self._saved = []

    # -- spans -------------------------------------------------------------

    def _open(self, name, layer):
        i = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self._op)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i):
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id, fn):
        """Run fn() as one op under a root span of layer "op"."""
        self._op = op_id
        i = self._open("op", "op")
        try:
            return fn()
        finally:
            self._close(i)
            self._op = -1

    def _wrap(self, name, layer, fn):
        hook = _HOOKS.get(name.split(":")[1])
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer._open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if hook is not None:
                hook(tracer, i, args, kwargs, out)
            return out
        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        resolved = [(layer, f"{mod}:{path}", *_resolve(mod, path))
                    for layer, mod, path in PATCH_POINTS]
        for layer, name, owner, attr, orig in resolved:
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(name, layer, orig))

    def remove(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- output ------------------------------------------------------------

    def spans(self):
        return list(zip(self.names, self.layers, self.starts, self.ends,
                        self.parents, self.ops))

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,layer,start,end,parent,op\n")
            for i, (n, la, s, e, p, o) in enumerate(self.spans()):
                fh.write(f"{i},{n},{la},{s!r},{e!r},{p},{o}\n")


# -- counters -------------------------------------------------------------

def _rows(x):
    shape = getattr(x, "shape", None)
    if not shape:
        return 1
    n = 1
    for s in shape[:-1]:
        n *= s
    return n


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_score(tr, i, args, kwargs, out):
    tr.counters["score_calls"] += 1
    tr.counters["score_rows"] += _rows(_arg(args, kwargs, 1, "x"))


def _count_eval(tr, i, args, kwargs, out):
    tr.counters["eval_calls"] += 1
    tr.counters["eval_nodes"] += len(_arg(args, kwargs, 0, "graph").nodes)


def _count_lookup(tr, i, args, kwargs, out):
    tr.counters["graph_lookups"] += 1


def _count_build(tr, i, args, kwargs, out):
    tr.counters["graph_builds"] += 1


def _count_uncached_build(tr, i, args, kwargs, out):
    tr.counters["graph_lookups"] += 1
    tr.counters["graph_builds"] += 1


def _count_direction(tr, i, args, kwargs, out):
    tr.counters["direction_calls"] += 1
    tr.counters["zero_directions"] += out[1] == 0.0


def run_label(cfg):
    """The compare method an experiment config stands for."""
    kind = cfg.guidance.kind
    if kind == "ablation":
        return f"ablation_{cfg.guidance.ablation_kind}"
    if kind != "none":
        return kind
    return "fixed" if cfg.date is None else "date"


def _count_run(tr, i, args, kwargs, out):
    cfg = _arg(args, kwargs, 0, "cfg")
    steps = cfg.n_samples * cfg.schedule.T
    tr.counters["traj_steps"] += steps
    tr.runs.append((i, run_label(cfg), steps))


_HOOKS = {
    "MixtureModel.score": _count_score,
    "ScoreNet.score": _count_score,
    "evaluate": _count_eval,
    "scaled_direction": _count_direction,
    "run_experiment": _count_run,
    **{k: _count_lookup for k in _CACHE_LOOKUPS},
    **{k: _count_build for k in _CACHED_BUILDERS},
    **{k: _count_uncached_build for k in _UNCACHED_BUILDERS},
}


# -- analysis -------------------------------------------------------------

def self_times(spans):
    """Per-span self time: duration minus the durations of direct children.

    ``spans`` is a sequence of (name, layer, start, end, parent, op) with
    ``parent`` the index of the enclosing span or -1.  Spans on one thread
    nest, so direct children never overlap and their durations add up.
    """
    child = [0.0] * len(spans)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, _, start, end, _, _) in enumerate(spans)]


def layer_summary(spans):
    """{layer: (calls, self seconds)} including the benchmark's own "op" root."""
    out = {}
    for (_, layer, *_), st in zip(spans, self_times(spans)):
        calls, secs = out.get(layer, (0, 0.0))
        out[layer] = (calls + 1, secs + st)
    return out
