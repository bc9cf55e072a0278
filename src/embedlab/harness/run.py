"""The sampling loop: embedding updates, guidance, and reverse steps.

Each trajectory owns two RNG streams spawned from (seed, trajectory index):
one pre-draws every Gaussian the sampler will consume (the prior draw plus
one noise vector per step), the other feeds stochastic update methods.
Pre-drawing makes paired comparisons exact: two configurations run at the
same seed consume identical noise, so outcome differences are attributable
to the method alone.

All trajectories of a run advance together as one (n, d) state through a
single step loop.  Every batched computation treats each row exactly as it
would treat that row alone, so trajectory i is bit-for-bit the same in a
run of any size above i.

Configs that differ only in their update settings and guidance (a sweep's
values, a comparison's methods) run as one batch too: run_variants stacks
variant v's trajectory i as row v*n + i.  Every variant reuses trajectory
i's noise, and each step makes one call per kind of work (update, score,
unconditional score, guidance term) over the rows that need it, so a
variant's rows are bit-for-bit its solo run.

Per step the order is: update the embedding (when scheduled), form the
step score (plain, guided, or composed), record the predicted clean mean,
then take the reverse step.
"""

from __future__ import annotations

import time
from dataclasses import fields, replace

import numpy as np

from ..alignment import CompositeAlignment, CosineAlignment, QuadraticAlignment
from ..graphs import GraphCache
from ..guidance import ablation_update, cfg_score, cg_score, classifier_grad, ug_score
from ..models import default_task, load_checkpoint, unconditional_score
from ..schedules import make_schedule, step_alg1, step_ddim, step_ddpm
from ..update import DateConfig, DateRows, build_update_schedule, multi_iter_update
from .config import ConfigError, config_to_dict
from .metrics import compute_metrics


class TrajectoryAborted(RuntimeError):
    """A sampling trajectory produced a non-finite state.

    Names the earliest step at which any row's state is non-finite, and the
    first row among those at that step: its variant and its trajectory
    within the variant.
    """

    def __init__(self, trajectory, t, variant=0):
        super().__init__(f"non-finite state in variant {variant}, trajectory {trajectory} "
                         f"at step t={t}")
        self.variant = variant
        self.trajectory = trajectory
        self.t = t


def build_h(spec, task):
    if spec.kind == "cosine":
        return CosineAlignment.for_task(task, feature_dim=spec.feature_dim, seed=spec.seed)
    if spec.kind == "quadratic":
        return QuadraticAlignment.for_task(task, sign=spec.sign)
    if spec.kind == "composite":
        return CompositeAlignment([(build_h(replace(spec, kind=kind), task), w)
                                   for kind, w in spec.weights])
    raise ConfigError(f"unknown h kind {spec.kind!r}")


def _update_steps(cfg):
    """The timesteps at which cfg updates its embedding: none without a
    date section."""
    if cfg.date is None:
        return frozenset()
    if cfg.date.update_steps is not None:
        return frozenset(cfg.date.update_steps)
    return build_update_schedule(cfg.schedule.T, cfg.date.fraction, cfg.date.placement)


def build_objects(cfg):
    """Materialize the runtime pieces an experiment needs from its config:
    the task, schedule, model, alignment h and update steps."""
    task = default_task(seed=cfg.model.task_seed)
    sched = make_schedule(cfg.schedule.T, cfg.schedule.kind,
                          cfg.schedule.beta_lo, cfg.schedule.beta_hi)
    if cfg.model.kind == "learned":
        model = load_checkpoint(cfg.model.checkpoint)
    else:
        model = task.model
    return task, sched, model, build_h(cfg.h, task), _update_steps(cfg)


def run_experiment(cfg):
    """Run cfg.n_samples independent trajectories; returns (run, report).

    ``run`` is a numpy record array, one row per trajectory.  Per step, in
    sampling order (t = T first): ``x_t``, ``c_t``, ``x0_bar`` and ``h`` (at
    x0_bar), so ``run.x_t`` is (n, T, d) and ``r.x_t`` is (T, d) for ``r in
    run``.  Then ``final_x0``, and ``update_s`` and ``denoise_s``: the
    batch's update and denoise seconds divided by n_samples.
    """
    return run_variants([cfg])[0]


def _rows(mask, n):
    """Row selector for the variants where the list mask holds: all rows as
    a slice (a view), some as an index array, none as None."""
    if all(mask):
        return slice(None)
    if not any(mask):
        return None
    return np.flatnonzero(np.repeat(mask, n))


def run_variants(cfgs):
    """Run configs that differ only in date and guidance as one batch;
    returns one (run, report) per config, each as run_experiment(cfg)
    returns it, bit for bit.

    Row v*n + i is variant v's trajectory i.  All variants consume
    trajectory i's pre-drawn noise, and each gets fresh generators from
    trajectory i's method stream.  Per step there is one call per kind of
    work: one multi_iter_update over the rows whose variant updates at t
    (per-row rho, iteration count and origin), one ablation_update per
    ablation kind, one model.score over the plain, ablation and cfg rows,
    one unconditional_score over the cfg, cg and ug rows, one
    classifier_grad over the cg rows and one ug_score over the ug rows.
    Any difference besides date and guidance is a ConfigError naming the
    field.  update_s and denoise_s are the batch's seconds over its rows.
    """
    cfgs = list(cfgs)
    if not cfgs:
        raise ConfigError("run_variants needs at least one config")
    base = cfgs[0]
    for f in fields(base):
        if f.name in ("date", "guidance"):
            continue
        for v, cfg in enumerate(cfgs[1:], 1):
            if getattr(cfg, f.name) != getattr(base, f.name):
                raise ConfigError(f"{f.name}: variant {v} differs from variant 0; "
                                  "variants may differ only in date and guidance")
    task, sched, model, h, _ = build_objects(base)
    y = base.prompt
    if y >= task.n_prompts:
        raise ConfigError(f"prompt: id {y} outside 0..{task.n_prompts - 1}")
    # a variant without a date section has no update steps, so its
    # settings are never read
    dates = [cfg.date or DateConfig() for cfg in cfgs]
    update_steps = [_update_steps(cfg) for cfg in cfgs]
    guides = [cfg.guidance for cfg in cfgs]
    c_enc = task.embedding(y)
    T = sched.T
    n = base.n_samples
    V = len(cfgs)
    R = V * n
    d = model.data_dim
    conditionals = task.conditionals()
    priors = task.priors
    cache = GraphCache()

    streams = [np.random.SeedSequence(entropy=base.seed, spawn_key=(i,)).spawn(2)
               for i in range(n)]
    # noise[k, v*n + i] is trajectory i's k-th draw: the prior, then one per step
    noise = np.tile(np.stack([np.random.default_rng(ns).standard_normal((T + 1, d))
                              for ns, _ in streams], axis=1), (1, V, 1))
    method_rngs = np.empty(R, dtype=object)
    method_rngs[:] = [np.random.default_rng(ms) if g.kind == "ablation" else None
                      for g in guides for _, ms in streams]

    # which rows do what, and each row's settings
    def rows_of(pred):
        return _rows([pred(g) for g in guides], n)

    conditional = rows_of(lambda g: g.kind in ("none", "ablation", "cfg"))
    unconditional = rows_of(lambda g: g.kind in ("cfg", "cg", "ug"))
    # cfg_score returns an input itself at w = 0 and w = 1, so w stays a scalar
    cfg_rows = {w: rows_of(lambda g: g.kind == "cfg" and g.w == w)
                for w in dict.fromkeys(g.w for g in guides if g.kind == "cfg")}
    cg_rows = rows_of(lambda g: g.kind == "cg")
    ug_rows = rows_of(lambda g: g.kind == "ug")
    w_col = np.repeat([g.w for g in guides], n)[:, None]
    ablations = tuple(dict.fromkeys(g.ablation_kind for g in guides if g.kind == "ablation"))
    date_rows = DateRows.repeat(dates, n)
    abl_rho = np.repeat([dc.rho if g.rho is None else g.rho for dc, g in zip(dates, guides)],
                        n)[:, None]
    fresh = np.repeat([dc.origin == "fresh" for dc in dates], n)[:, None]

    x = noise[0].copy()
    c = np.tile(c_enc, (R, 1))
    xs, cs, x0_bars, hs = [], [], [], []
    t_update = 0.0
    t_denoise = 0.0

    for t in range(T, 0, -1):
        due = [t in steps for steps in update_steps]
        if any(due):
            tic = time.perf_counter()
            # fresh rows start from the encoder output, previous ones from c
            origin = np.where(fresh, c_enc, c)
            c = c.copy()
            dated = [u and g.kind != "ablation" for u, g in zip(due, guides)]
            rows = _rows(dated, n)
            if rows is not None:
                c[rows] = multi_iter_update(x[rows], origin[rows], t, date_rows[rows], model,
                                            sched, h, y, c_encoder=c_enc, cache=cache)
            for a in ablations:
                rows = _rows([u and g.ablation_kind == a for u, g in zip(due, guides)], n)
                if rows is not None:
                    c[rows] = ablation_update(a, x[rows], origin[rows], t, abl_rho[rows],
                                              model, sched, h, y, method_rngs[rows],
                                              cache=cache)
            t_update += time.perf_counter() - tic

        tic = time.perf_counter()
        s = np.empty_like(x)
        if conditional is not None:
            s[conditional] = model.score(x[conditional], c[conditional], t, sched)
        if unconditional is not None:
            s_uncond = np.empty_like(x)
            s_uncond[unconditional] = unconditional_score(conditionals, priors,
                                                          x[unconditional], t, sched)
            for w, rows in cfg_rows.items():
                s[rows] = cfg_score(s[rows], s_uncond[rows], w)
            if cg_rows is not None:
                grad = classifier_grad(conditionals, priors, y, x[cg_rows], t, sched)
                s[cg_rows] = cg_score(s_uncond[cg_rows], grad, w_col[cg_rows])
            if ug_rows is not None:
                s[ug_rows] = ug_score(s_uncond[ug_rows], x[ug_rows], c[ug_rows], t, model,
                                      sched, h, y, w_col[ug_rows], cache=cache)

        ab = sched.alpha_bar(t)
        x0_bar = (x + (1.0 - ab) * s) / np.sqrt(ab)
        xs.append(x)
        cs.append(c)
        x0_bars.append(x0_bar)
        hs.append(h.value(x0_bar, y))

        if base.sampler == "ddpm":
            z = noise[t] if t > 1 else np.zeros((R, d))
            x = step_ddpm(x, s, t, z, sched)
        elif base.sampler == "alg1":
            x = step_alg1(x, s, t, sched)
        else:  # ddim, eta = 0
            x = step_ddim(x, x0_bar, t, t - 1, sched)
        bad = ~np.all(np.isfinite(x), axis=-1)
        if bad.any():
            row = int(np.argmax(bad))
            raise TrajectoryAborted(row % n, t, variant=row // n)
        t_denoise += time.perf_counter() - tic

    hs = np.stack(hs, axis=1)
    steps = {"x_t": np.stack(xs, axis=1), "c_t": np.stack(cs, axis=1),
             "x0_bar": np.stack(x0_bars, axis=1), "h": hs, "final_x0": x}
    timing = {"update_s": np.full(n, t_update / R), "denoise_s": np.full(n, t_denoise / R)}
    out = []
    for v, cfg in enumerate(cfgs):
        block = slice(v * n, (v + 1) * n)
        cols = {k: a[block] for k, a in steps.items()} | timing
        run = np.rec.fromarrays(list(cols.values()),
                                dtype=[(k, a.dtype, a.shape[1:]) for k, a in cols.items()])
        # from contiguous row blocks: the record array's columns are strided views
        report = compute_metrics(x[block], hs[block], config_to_dict(cfg), h, y,
                                 task.model, c_enc)
        out.append((run, report))
    return out
