"""Score-composition baselines and embedding-update ablations.

Classifier-free guidance blends conditional and unconditional scores;
classifier guidance adds the data-space gradient of a Bayes classifier;
universal guidance adds the data-space gradient of the alignment function
evaluated at the Tweedie mean.  The alignment gradient is used directly
(not through a log) because desk evaluation functions may be negative.

The ablations mirror the embedding update with its information source
removed or distorted: a random sphere direction, the raw unnormalized
gradient, or a gradient taken in perturbed space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import evaluate, gradient
from .graphs import GraphCache, classifier_graph
from .update import grad_h_t_wrt_c, scaled_direction


class GuidanceError(ValueError):
    pass


_KINDS = ("none", "cfg", "cg", "ug", "ablation")
_ABLATIONS = ("random", "unnormalized", "perturbed_h")


@dataclass(frozen=True)
class GuidanceConfig:
    kind: str = "none"
    w: float = 2.0
    ablation_kind: str | None = None
    rho: float | None = None

    def __post_init__(self):
        # each message starts with its field, so a config error names its key
        if self.kind not in _KINDS:
            raise GuidanceError(f"kind: unknown guidance kind {self.kind!r}")
        if not np.isfinite(self.w):
            raise GuidanceError("w: guidance scale must be finite")
        if self.kind == "ablation":
            if self.ablation_kind not in _ABLATIONS:
                raise GuidanceError(f"ablation_kind: unknown ablation kind {self.ablation_kind!r}")
        elif self.ablation_kind is not None:
            raise GuidanceError("ablation_kind: only applies to kind='ablation'")
        if self.rho is not None and not (np.isfinite(self.rho) and self.rho > 0.0):
            raise GuidanceError("rho: must be finite and positive")


def cfg_score(s_cond, s_uncond, w):
    """s_uncond + w * (s_cond - s_uncond).

    The endpoints w = 0 and w = 1 return the corresponding input exactly
    (no float re-association), since they are identities of the formula.
    """
    s_cond = np.asarray(s_cond, dtype=np.float64)
    s_uncond = np.asarray(s_uncond, dtype=np.float64)
    if s_cond.shape != s_uncond.shape:
        raise GuidanceError("score dimensions differ")
    if w == 0.0:
        return s_uncond.copy()
    if w == 1.0:
        return s_cond.copy()
    return s_uncond + w * (s_cond - s_uncond)


def cg_score(s_uncond, grad_log_classifier, w):
    """s_uncond + w * grad_x log p(y | x_t)."""
    s_uncond = np.asarray(s_uncond, dtype=np.float64)
    grad_log_classifier = np.asarray(grad_log_classifier, dtype=np.float64)
    if s_uncond.shape != grad_log_classifier.shape:
        raise GuidanceError("score dimensions differ")
    return s_uncond + w * grad_log_classifier


def classifier_grad(conditionals, priors, y, x_t, t, sched):
    """grad_x log p(y | x_t) by a reverse sweep through the Bayes classifier,
    one gradient row per row of x_t.

    Deliberately independent of the closed-form score algebra, so that the
    w = 1 identity against the exact conditional score is a real check.
    """
    g = classifier_graph(conditionals, priors, y, t, sched)
    evaluate(g, {"x": np.asarray(x_t, dtype=np.float64)})
    return gradient(g, "x")


def ug_score(s_uncond, x_t, c, t, model, sched, h, y, w, cache=None):
    """s_uncond + w * grad_x h(tweedie_mean(x_t, c, t); y), per row."""
    cache = cache or GraphCache()
    graph = cache.h_t(model, h, y, t, sched)
    evaluate(graph, {"x": np.asarray(x_t, dtype=np.float64),
                     "c": np.asarray(c, dtype=np.float64)})
    grad = gradient(graph, "x")
    if not np.all(np.isfinite(grad)):
        raise GuidanceError("non-finite guidance gradient")
    return np.asarray(s_uncond, dtype=np.float64) + w * grad


def ablation_update(kind, x_t, c_org, t, rho, model, sched, h, y, rng, cache=None):
    """Embedding-update ablations sharing the radius-rho geometry.

    random        - rho times a uniform direction on the unit sphere;
    unnormalized  - c_org + rho * grad_c h_t (no normalization);
    perturbed_h   - the normalized update applied to the embedding gradient
                    of h evaluated directly at the perturbed sample.  That
                    sample does not depend on the embedding, so the gradient
                    vanishes and the update degenerates to a no-op; the
                    gradient is still computed rather than assumed.

    x_t and c_org may be batches of rows; then `rng` is a sequence of
    generators, one per row, so each row draws from its own stream.
    """
    c_org = np.asarray(c_org, dtype=np.float64)
    cache = cache or GraphCache()
    if kind == "random":
        rngs = [rng] if c_org.ndim == 1 else rng
        u = np.stack([r.standard_normal(c_org.shape[-1]) for r in rngs]).reshape(c_org.shape)
        u /= np.sqrt(np.vecdot(u, u))[..., None]   # the bits of np.linalg.norm per row
        return c_org + rho * u
    if kind == "unnormalized":
        grad = grad_h_t_wrt_c(x_t, c_org, t, model, sched, h, y, cache=cache)
        return c_org + rho * grad
    if kind == "perturbed_h":
        graph = cache.perturbed_h(h, y)
        evaluate(graph, {"x": np.asarray(x_t, dtype=np.float64), "c": c_org})
        grad = gradient(graph, "c")
        eps, _ = scaled_direction(grad, rho)
        return c_org + eps
    raise GuidanceError(f"unknown ablation kind {kind!r}")
