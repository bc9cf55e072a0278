"""Per-timestep conditioning-embedding updates.

The update moves the embedding from its origin by a fixed radius rho along
the normalized gradient of the time-lifted alignment h_t:

    c_hat = c_org + rho * g / ||g||,   g = grad_c h_t(x_t, c_org)

which is the maximizer of the first-order model of h_t over the rho-ball.
A zero gradient carries no information, so it leaves the origin unchanged.
When updates chain from the previous step's embedding, a squared-L2
regularizer toward the encoder embedding keeps the walk anchored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import evaluate, gradient
from .graphs import GraphCache


class UpdateError(ValueError):
    pass


@dataclass(frozen=True)
class DateConfig:
    """The update settings: the config file's date section and the runtime
    settings at once.  Explicit update_steps override fraction/placement."""
    rho: float = 0.5
    fraction: float = 0.1
    placement: str = "uniform"       # "uniform" | "early" | "mid" | "late" | "all"
    update_steps: tuple | None = None
    origin: str = "fresh"            # "fresh" | "previous"
    l2_weight: float = 0.1
    iters_per_update: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.rho) and self.rho > 0.0):
            raise UpdateError("rho: must be finite and positive")
        if not (0.0 <= self.fraction <= 1.0):
            raise UpdateError("fraction: must lie in [0, 1]")
        if self.placement not in ("uniform", "early", "mid", "late", "all"):
            raise UpdateError("placement: must be uniform/early/mid/late/all")
        if self.origin not in ("fresh", "previous"):
            raise UpdateError("origin: must be 'fresh' or 'previous'")
        if not (np.isfinite(self.l2_weight) and self.l2_weight >= 0.0):
            raise UpdateError("l2_weight: must be finite and >= 0")
        if self.iters_per_update < 1:
            raise UpdateError("iters_per_update: must be >= 1")
        if self.update_steps is not None:
            object.__setattr__(self, "update_steps",
                               tuple(sorted(int(t) for t in self.update_steps)))

    @property
    def anchored(self):
        """Whether the update pulls toward the encoder embedding."""
        return self.origin == "previous" and self.l2_weight > 0.0


@dataclass(frozen=True)
class DateRows:
    """The DateConfigs of a batch's rows, one per row, as columns.

    ``rho`` and ``l2_weight`` are (rows, 1), ``iters_per_update`` and
    ``anchored`` (rows,).  ``rho * grad`` has the bits of a scalar rho per
    element, so a row updates as it would under its own DateConfig.
    """
    rho: np.ndarray
    l2_weight: np.ndarray
    iters_per_update: np.ndarray
    anchored: np.ndarray

    @classmethod
    def repeat(cls, cfgs, n):
        """Each DateConfig of cfgs over n consecutive rows."""
        col = lambda name: np.repeat([getattr(c, name) for c in cfgs], n)
        return cls(rho=col("rho")[:, None], l2_weight=col("l2_weight")[:, None],
                   iters_per_update=col("iters_per_update"), anchored=col("anchored"))

    def __getitem__(self, rows):
        return DateRows(self.rho[rows], self.l2_weight[rows],
                        self.iters_per_update[rows], self.anchored[rows])


@dataclass(frozen=True)
class UpdateDirection:
    eps: np.ndarray        # the applied step; norm rho whenever grad_norm > 0
    grad_norm: float       # gradient norm before normalization (largest row norm)


def grad_h_t_wrt_c(x_t, c, t, model, sched, h, y, cache=None):
    """Exact reverse-mode gradient of h(tweedie_mean(x_t, c, t); y) in c.

    x_t and c are one row each or equally long batches of rows; the result
    has one gradient row per row.
    """
    cache = cache or GraphCache()
    g = cache.h_t(model, h, y, t, sched)
    evaluate(g, {"x": np.asarray(x_t, dtype=np.float64),
                 "c": np.asarray(c, dtype=np.float64)})
    out = gradient(g, "c")
    if not np.all(np.isfinite(out)):
        raise UpdateError("non-finite embedding gradient")
    return out


def scaled_direction(grad, rho):
    """rho * grad / ||grad|| per row, with zeros for a row whose gradient
    vanishes.

    Returns the direction and the gradient norm; for a batch of rows, the
    largest row norm, which is 0 exactly when no row moves.
    """
    grad = np.asarray(grad, dtype=np.float64)
    norms = np.sqrt(np.vecdot(grad, grad))       # the bits of np.linalg.norm per row
    moved = norms[..., None] != 0.0
    eps = np.divide(rho * grad, norms[..., None], out=np.zeros_like(grad), where=moved)
    return eps, float(np.max(norms))


def date_update(x_t, c_org, t, cfg, model, sched, h, y, c_encoder=None, cache=None):
    """One normalized-gradient embedding update at timestep t.

    Under the "previous" origin strategy the optimized objective is
    h_t(c) - l2_weight * ||c - c_encoder||^2, differentiated at the origin;
    under "fresh" the regularizer is inactive (the origin IS the encoder
    embedding).  Returns the updated embedding and the applied direction.
    A batch of rows (x_t and c_org of shapes (n, d) and (n, e)) updates
    every row at once, each exactly as it would be on its own; cfg is then
    one DateConfig for all rows or a DateRows with one setting per row.
    """
    c_org = np.asarray(c_org, dtype=np.float64)
    grad = grad_h_t_wrt_c(x_t, c_org, t, model, sched, h, y, cache=cache)
    if np.any(cfg.anchored):
        if c_encoder is None:
            raise UpdateError("previous-origin updates need the encoder embedding")
        pulled = grad - 2.0 * cfg.l2_weight * (c_org - np.asarray(c_encoder, dtype=np.float64))
        grad = np.where(cfg.anchored[:, None], pulled, grad) if np.ndim(cfg.anchored) else pulled
    eps, gnorm = scaled_direction(grad, cfg.rho)
    return c_org + eps, UpdateDirection(eps=eps, grad_norm=gnorm)


def build_update_schedule(T_steps, fraction, placement="uniform"):
    """Pick ceil(fraction * T) timesteps in 1..T according to a policy.

    uniform spreads them evenly; early / mid / late place a contiguous block
    in the corresponding third of the sampling trajectory, where "early"
    means early in sampling order (high t).
    """
    T_steps = int(T_steps)
    if not (0.0 <= fraction <= 1.0):
        raise UpdateError("fraction must lie in [0, 1]")
    if placement == "all":
        return frozenset(range(1, T_steps + 1))
    m = int(np.ceil(fraction * T_steps))
    if m == 0:
        return frozenset()
    if placement == "uniform":
        steps = np.unique(np.round(np.linspace(1, T_steps, m)).astype(int))
        return frozenset(int(s) for s in steps)
    if placement == "early":
        return frozenset(range(T_steps - m + 1, T_steps + 1))
    if placement == "late":
        return frozenset(range(1, m + 1))
    if placement == "mid":
        lo = (T_steps - m) // 2 + 1
        return frozenset(range(lo, lo + m))
    raise UpdateError(f"unknown placement {placement!r}")


def multi_iter_update(x_t, c_org, t, cfg, model, sched, h, y, c_encoder=None, cache=None):
    """Repeated updates within one timestep, each re-anchored at the last
    output; one iteration reduces exactly to date_update.

    With a DateRows cfg, iteration k updates the rows whose
    iters_per_update exceeds k and leaves the others where they stopped.
    """
    c = np.asarray(c_org, dtype=np.float64)
    iters = cfg.iters_per_update
    for k in range(int(np.max(iters))):
        if k == 0 or np.ndim(iters) == 0:   # every row makes its first iteration
            c, _ = date_update(x_t, c, t, cfg, model, sched, h, y,
                               c_encoder=c_encoder, cache=cache)
        else:   # c is the previous iteration's fresh array
            rows = np.flatnonzero(iters > k)
            c[rows], _ = date_update(x_t[rows], c[rows], t, cfg[rows], model, sched, h, y,
                                     c_encoder=c_encoder, cache=cache)
    return c
