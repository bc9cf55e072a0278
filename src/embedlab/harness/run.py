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

Per step the order is: update the embedding (when scheduled), form the
step score (plain, guided, or composed), record the predicted clean mean,
then take the reverse step.
"""

from __future__ import annotations

import time

import numpy as np

from ..alignment import CompositeAlignment, CosineAlignment, QuadraticAlignment
from ..graphs import GraphCache
from ..guidance import ablation_update, cfg_score, cg_score, classifier_grad, ug_score
from ..models import default_task, load_checkpoint, unconditional_score
from ..schedules import make_schedule, step_alg1, step_ddim, step_ddpm
from ..update import DateConfig, build_update_schedule, multi_iter_update, select_origin
from .config import ConfigError, config_to_dict
from .metrics import compute_metrics


class TrajectoryAborted(RuntimeError):
    """A sampling trajectory produced a non-finite state.

    Names the earliest step at which any trajectory's state is non-finite,
    and the lowest-numbered trajectory among those at that step.
    """

    def __init__(self, trajectory, t):
        super().__init__(f"non-finite state in trajectory {trajectory} at step t={t}")
        self.trajectory = trajectory
        self.t = t


def build_h(spec, task):
    if spec.kind == "cosine":
        return CosineAlignment.for_task(task, feature_dim=spec.feature_dim, seed=spec.seed)
    if spec.kind == "quadratic":
        return QuadraticAlignment.for_task(task, sign=spec.sign)
    if spec.kind == "composite":
        parts = []
        for kind, w in spec.weights:
            if kind == "cosine":
                parts.append((CosineAlignment.for_task(task, feature_dim=spec.feature_dim,
                                                       seed=spec.seed), w))
            else:
                parts.append((QuadraticAlignment.for_task(task, sign=spec.sign), w))
        return CompositeAlignment(parts)
    raise ConfigError(f"unknown h kind {spec.kind!r}")


def build_objects(cfg):
    """Materialize the runtime pieces an experiment needs from its config."""
    task = default_task(seed=cfg.model.task_seed)
    sched = make_schedule(cfg.schedule.T, cfg.schedule.kind,
                          cfg.schedule.beta_lo, cfg.schedule.beta_hi)
    if cfg.model.kind == "learned":
        model = load_checkpoint(cfg.model.checkpoint)
    else:
        model = task.model
    h = build_h(cfg.h, task)
    date_cfg = None
    if cfg.date is not None:
        if cfg.date.update_steps is not None:
            steps = frozenset(cfg.date.update_steps)
        else:
            steps = build_update_schedule(cfg.schedule.T, cfg.date.fraction,
                                          cfg.date.placement)
        date_cfg = DateConfig(rho=cfg.date.rho, update_steps=steps,
                              origin=cfg.date.origin, l2_weight=cfg.date.l2_weight,
                              iters_per_update=cfg.date.iters_per_update)
    return task, sched, model, h, date_cfg


def run_experiment(cfg):
    """Run cfg.n_samples independent trajectories; returns (run, report).

    ``run`` is a numpy record array, one row per trajectory.  Per step, in
    sampling order (t = T first): ``x_t``, ``c_t``, ``x0_bar`` and ``h`` (at
    x0_bar), so ``run.x_t`` is (n, T, d) and ``r.x_t`` is (T, d) for ``r in
    run``.  Then ``final_x0``, and ``update_s`` and ``denoise_s``: the
    batch's update and denoise seconds divided by n_samples.
    """
    task, sched, model, h, date_cfg = build_objects(cfg)
    y = cfg.prompt
    if y >= task.n_prompts:
        raise ConfigError(f"prompt: id {y} outside 0..{task.n_prompts - 1}")
    c_enc = task.embedding(y)
    T = sched.T
    n = cfg.n_samples
    d = model.data_dim
    conditionals = task.conditionals()
    priors = task.priors
    guidance = cfg.guidance
    cache = GraphCache()

    update_steps = date_cfg.update_steps if date_cfg is not None else frozenset()
    abl_rho = None
    if guidance.kind == "ablation":
        abl_rho = guidance.rho if guidance.rho is not None else date_cfg.rho

    streams = [np.random.SeedSequence(entropy=cfg.seed, spawn_key=(i,)).spawn(2)
               for i in range(n)]
    # noise[k, i] is trajectory i's k-th draw: the prior, then one per step
    noise = np.stack([np.random.default_rng(ns).standard_normal((T + 1, d))
                      for ns, _ in streams], axis=1)
    method_rngs = [np.random.default_rng(ms) for _, ms in streams]

    x = noise[0].copy()
    c_rows = np.tile(c_enc, (n, 1))
    c = c_rows
    c_prev = None
    xs, cs, x0_bars, hs = [], [], [], []
    t_update = 0.0
    t_denoise = 0.0

    for t in range(T, 0, -1):
        if t in update_steps:
            tic = time.perf_counter()
            origin = select_origin(date_cfg.origin, c_prev, c_rows)
            if guidance.kind == "ablation":
                c = ablation_update(guidance.ablation_kind, x, origin, t,
                                    abl_rho, model, sched, h, y,
                                    method_rngs, cache=cache)
            else:
                c = multi_iter_update(x, origin, t, date_cfg, model, sched,
                                      h, y, c_encoder=c_enc, cache=cache)
            c_prev = c
            t_update += time.perf_counter() - tic

        tic = time.perf_counter()
        if guidance.kind in ("cfg", "cg", "ug"):
            s_uncond = unconditional_score(conditionals, priors, x, t, sched)
            if guidance.kind == "cfg":
                s = cfg_score(model.score(x, c, t, sched), s_uncond, guidance.w)
            elif guidance.kind == "cg":
                grad = classifier_grad(conditionals, priors, y, x, t, sched)
                s = cg_score(s_uncond, grad, guidance.w)
            else:
                s = ug_score(s_uncond, x, c, t, model, sched, h, y,
                             guidance.w, cache=cache)
        else:
            s = model.score(x, c, t, sched)

        ab = sched.alpha_bar(t)
        x0_bar = (x + (1.0 - ab) * s) / np.sqrt(ab)
        xs.append(x)
        cs.append(c)
        x0_bars.append(x0_bar)
        hs.append(h.value(x0_bar, y))

        if cfg.sampler == "ddpm":
            z = noise[t] if t > 1 else np.zeros((n, d))
            x = step_ddpm(x, s, t, z, sched)
        elif cfg.sampler == "alg1":
            x = step_alg1(x, s, t, sched)
        else:  # ddim, eta = 0
            x = step_ddim(x, x0_bar, t, t - 1, sched)
        bad = ~np.all(np.isfinite(x), axis=-1)
        if bad.any():
            raise TrajectoryAborted(int(np.argmax(bad)), t)
        t_denoise += time.perf_counter() - tic

    hs = np.stack(hs, axis=1)
    fields = {"x_t": np.stack(xs, axis=1), "c_t": np.stack(cs, axis=1),
              "x0_bar": np.stack(x0_bars, axis=1), "h": hs, "final_x0": x,
              "update_s": np.full(n, t_update / n), "denoise_s": np.full(n, t_denoise / n)}
    run = np.rec.fromarrays(list(fields.values()),
                            dtype=[(k, a.dtype, a.shape[1:]) for k, a in fields.items()])
    # from the contiguous arrays: the record array's columns are strided views
    report = compute_metrics(x, hs, config_to_dict(cfg), h, y, task.model, c_enc)
    return run, report
