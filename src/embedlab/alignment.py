"""Data-space evaluation functions h(x0; y) and their time-lifted form.

Higher h means better alignment between a sample and its prompt.  The
cosine kind scores g(F x0; p_y) with a fixed linear feature map F and one
prototype vector per prompt; the quadratic kind is +/- ||x0 - target_y||^2;
composites are weighted sums.  Every kind exposes:

* ``value(x0, y)``      - scalar, batched over leading axes of x0, each
                          row exactly as it is alone,
* ``emit(g, node, y)``  - tape emission; a reverse sweep gives the gradient
                          in data space, or through the score model and the
                          Tweedie map when ``node`` is their output.

The time-lifted h_t is literally h composed with the Tweedie mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schedules import tweedie_mean


class AlignmentError(ValueError):
    pass


class CosineAlignment:
    """g(F x0; prototype_y) with g the cosine similarity."""

    kind = "cosine"

    def __init__(self, feature_map, prototypes):
        self.feature_map = np.asarray(feature_map, dtype=np.float64)
        self.prototypes = np.asarray(prototypes, dtype=np.float64)
        if self.feature_map.ndim != 2 or self.prototypes.ndim != 2:
            raise AlignmentError("feature_map and prototypes must be 2-D")
        if self.prototypes.shape[1] != self.feature_map.shape[0]:
            raise AlignmentError("prototype dim must match feature dim")
        if np.any(np.linalg.norm(self.prototypes, axis=1) == 0.0):
            raise AlignmentError("prototypes must be nonzero")

    def value(self, x0, y):
        # stacked 1-row products and vecdot: each row of a batch gets the
        # bits it gets alone
        x0 = np.asarray(x0, dtype=np.float64)
        feats = np.matmul(x0[..., None, :], self.feature_map.T)[..., 0, :]
        p = self.prototypes[int(y)]
        nf = np.linalg.norm(feats, axis=-1)
        if np.any(nf == 0.0):
            raise AlignmentError("zero feature vector in cosine alignment")
        return np.vecdot(feats, p) / (nf * np.linalg.norm(p))

    def emit(self, g, x0_ref, y):
        feats = g.affine(x0_ref, self.feature_map)
        proto = g.constant(self.prototypes[int(y)])
        return g.cosine(feats, proto)

    def operator_norm(self):
        """Largest singular value of the feature map (its exact Lipschitz
        constant as a linear map)."""
        return float(np.linalg.svd(self.feature_map, compute_uv=False)[0])

    @classmethod
    def for_task(cls, task, feature_dim=8, seed=0):
        """Feature map seeded at random; prototypes are the features of each
        prompt's dominant component mean at that prompt's embedding."""
        d = task.model.data_dim
        rng = np.random.default_rng(seed)
        F = rng.standard_normal((feature_dim, d)) / np.sqrt(d)
        protos = []
        for y in range(task.n_prompts):
            c = task.embed_table[y]
            k = int(np.argmax(task.model.weights(c)))
            protos.append(F @ task.model.component_means(c)[k])
        return cls(F, np.stack(protos))


class QuadraticAlignment:
    """sign * ||x0 - target_y||^2; concave (sign=-1) peaks at the target."""

    kind = "quadratic"

    def __init__(self, targets, sign=-1.0):
        self.targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
        if float(sign) not in (-1.0, 1.0):
            raise AlignmentError("sign must be +1 (convex) or -1 (concave)")
        self.sign = float(sign)

    def value(self, x0, y):
        d = np.asarray(x0, dtype=np.float64) - self.targets[int(y)]
        return self.sign * np.sum(d * d, axis=-1)

    def emit(self, g, x0_ref, y):
        d = g.sub(x0_ref, g.constant(self.targets[int(y)]))
        return g.scale(g.dot(d, d), self.sign)

    @classmethod
    def for_task(cls, task, sign=-1.0):
        """Targets are each prompt's dominant component mean."""
        targets = []
        for y in range(task.n_prompts):
            c = task.embed_table[y]
            k = int(np.argmax(task.model.weights(c)))
            targets.append(task.model.component_means(c)[k])
        return cls(np.stack(targets), sign=sign)


class LinearAlignment:
    """v_y . x0; zero curvature, used by the Taylor-order checks."""

    kind = "linear"

    def __init__(self, vectors):
        self.vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))

    def value(self, x0, y):
        # vecdot, not a matrix-vector product: each row gets its solo bits
        return np.vecdot(np.asarray(x0, dtype=np.float64), self.vectors[int(y)])

    def emit(self, g, x0_ref, y):
        return g.dot(x0_ref, g.constant(self.vectors[int(y)]))


class CompositeAlignment:
    """Weighted sum of evaluation functions."""

    kind = "composite"

    def __init__(self, parts):
        if len(parts) == 0:
            raise AlignmentError("composite needs at least one part")
        self.parts = [(h, float(w)) for h, w in parts]
        if not all(np.isfinite(w) for _, w in self.parts):
            raise AlignmentError("composite weights must be finite")

    def value(self, x0, y):
        return sum(w * h.value(x0, y) for h, w in self.parts)

    def emit(self, g, x0_ref, y):
        out = None
        for h, w in self.parts:
            term = g.scale(h.emit(g, x0_ref, y), w)
            out = term if out is None else g.add(out, term)
        return out


def eval_h_t(h, x_t, c, t, model, sched, y):
    """Time-lifted alignment: h evaluated at the Tweedie mean, nothing more."""
    return h.value(tweedie_mean(x_t, c, t, model, sched), y)


@dataclass(frozen=True)
class AlignmentBoundInputs:
    """Ingredients of the cosine approximation bound."""
    k_lower: float         # lower bound on ||F x0|| over the posterior support
    grad_norm_max: float   # operator norm of the feature map
    m1: float              # mean deviation of the clean-data posterior

    def __post_init__(self):
        if min(self.k_lower, self.grad_norm_max, self.m1) < 0.0 or self.k_lower == 0.0:
            raise AlignmentError("bound inputs must be positive (m1 may be 0)")


def lipschitz_bound(h, inputs):
    """Upper bound (1/K) * ||F||_op * m1 on |E[h] - h(mean)| for cosine h.

    Follows from the cosine similarity being (1/K)-Lipschitz on the region
    where feature norms stay above K, composed with the linear feature map.
    """
    if getattr(h, "kind", None) != "cosine":
        raise AlignmentError("the deviation bound applies to the cosine kind only")
    return inputs.grad_norm_max * inputs.m1 / inputs.k_lower
