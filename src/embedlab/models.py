"""Conditional score models.

Two families share one interface (``score(x, c, t, sched)``):

* :class:`MixtureModel` - an analytic conditional Gaussian mixture.  The
  embedding c enters through both the component means (M_k c + b_k) and the
  component weights softmax_k(a_k . c), so the conditional score and
  log-likelihood have nontrivial embedding gradients.  All quantities are
  exact, which makes this family the oracle for every theory check.
* :class:`ScoreNet` - a small SiLU MLP over concat(x, c, time features),
  trained by denoising score matching with plain SGD.

Embeddings are plain float arrays throughout; per-step variants and update
directions are handled by the update module.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .autodiff import Param
from .schedules import step_ddpm


class ModelError(ValueError):
    pass


class TrainingDiverged(RuntimeError):
    def __init__(self, step):
        super().__init__(f"loss became non-finite at step {step}")
        self.step = step


def _logsumexp(a, axis=-1):
    m = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(m, axis=axis) + np.log(np.sum(np.exp(a - m), axis=axis))


def _responsibilities(comp):
    return np.exp(comp - _logsumexp(comp)[..., None])


def _score_from(comp, diff, variances):
    """sum_k r_k (mu_k - x) / var_k from a log joint; overwrites diff."""
    np.negative(diff, out=diff)
    diff /= variances
    return np.sum(_responsibilities(comp)[..., None] * diff, axis=-2)


@dataclass(frozen=True)
class MixtureModel:
    """Conditional Gaussian mixture with diagonal component covariances.

    p(x0 | c) = sum_k softmax_k(a_k . c) N(x0; M_k c + b_k, diag(S_k))

    Under forward perturbation to step t the mixture stays a mixture with
    means sqrt(ab_t) (M_k c + b_k) and variances ab_t S_k + (1 - ab_t).
    """

    mean_maps: np.ndarray      # (K, d, e)
    mean_offsets: np.ndarray   # (K, d)
    covs: np.ndarray           # (K, d) diagonal entries
    weight_logits: np.ndarray  # (K, e)

    def __post_init__(self):
        for name in ("mean_maps", "mean_offsets", "covs", "weight_logits"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if self.mean_maps.ndim != 3:
            raise ModelError("mean_maps must have shape (K, d, e)")
        K, d, e = self.mean_maps.shape
        if self.mean_offsets.shape != (K, d) or self.covs.shape != (K, d):
            raise ModelError("mean_offsets/covs must have shape (K, d)")
        if self.weight_logits.shape != (K, e):
            raise ModelError("weight_logits must have shape (K, e)")
        if np.any(self.covs <= 0.0):
            raise ModelError("component covariances must be positive")

    @property
    def n_components(self):
        return self.mean_maps.shape[0]

    @property
    def data_dim(self):
        return self.mean_maps.shape[1]

    @property
    def embed_dim(self):
        return self.mean_maps.shape[2]

    # -- exact quantities ---------------------------------------------------

    def weights(self, c):
        logits = np.einsum("ke,...e->...k", self.weight_logits, np.asarray(c, dtype=np.float64))
        e = np.exp(logits - np.max(logits, axis=-1, keepdims=True))
        return e / np.sum(e, axis=-1, keepdims=True)

    def component_means(self, c):
        """Clean-data component means M_k c + b_k, shape (..., K, d)."""
        c = np.asarray(c, dtype=np.float64)
        return np.einsum("kde,...e->...kd", self.mean_maps, c) + self.mean_offsets

    def perturbed_params(self, c, t, sched):
        """Means and diagonal variances of the step-t perturbed mixture."""
        ab = sched.alpha_bar(t)
        means = np.sqrt(ab) * self.component_means(c)
        variances = ab * self.covs + (1.0 - ab)
        return means, variances

    def _log_weights(self, c):
        logits = np.einsum("ke,...e->...k", self.weight_logits, c)
        return logits - _logsumexp(logits)[..., None]

    def _log_joint(self, x, c, t, sched):
        """log w_k(c) + log N_t(x; mu_k, var_k), shape (..., K), with x - mu_k,
        shape (..., K, d), and the variances, shape (K, d).  Leading axes of x
        and c broadcast, so embeddings stacked on a new axis take one pass."""
        means, variances = self.perturbed_params(c, t, sched)
        diff = np.asarray(x, dtype=np.float64)[..., None, :] - means
        logpdfs = -0.5 * np.sum(diff * diff / variances + np.log(2.0 * np.pi * variances), axis=-1)
        return self._log_weights(c) + logpdfs, diff, variances

    def log_likelihood(self, x, c, t, sched):
        """Exact log p_t(x | c); batched over leading axes of x (and c)."""
        return _logsumexp(self._log_joint(x, c, t, sched)[0])

    def score(self, x, c, t, sched):
        """Exact conditional score grad_x log p_t(x | c)."""
        return _score_from(*self._log_joint(x, c, t, sched))

    def grad_c_log_likelihood(self, x, c, t, sched):
        """Exact grad_c log p_t(x | c) for a single (x, c) pair."""
        ab = sched.alpha_bar(t)
        comp, diff, variances = self._log_joint(x, c, t, sched)
        mean_logit = np.exp(self._log_weights(c)) @ self.weight_logits
        pulls = np.sqrt(ab) * self.mean_maps.transpose(0, 2, 1) @ (diff / variances)[..., None]
        return np.sum(_responsibilities(comp)[:, None]
                      * (self.weight_logits - mean_logit + pulls[..., 0]), axis=0)

    def posterior_mean_x0(self, x_t, c, t, sched):
        """Responsibility-weighted posterior mean E[x0 | x_t, c], exact."""
        ab = sched.alpha_bar(t)
        comp, diff, variances = self._log_joint(x_t, c, t, sched)
        cond_means = self.component_means(c) + np.sqrt(ab) * self.covs / variances * diff
        return np.sum(_responsibilities(comp)[..., None] * cond_means, axis=-2)

    def moments_x0(self, c):
        """Mean and covariance of the clean conditional p(x0 | c)."""
        w = self.weights(c)
        means = self.component_means(c)
        mean = w @ means
        cov = -np.outer(mean, mean)
        for k in range(self.n_components):
            cov += w[k] * (np.diag(self.covs[k]) + np.outer(means[k], means[k]))
        return mean, cov

    def sample_x0(self, c, n, rng):
        """Draw n samples from p(x0 | c)."""
        w = self.weights(c)
        means = self.component_means(c)
        ks = rng.choice(self.n_components, size=n, p=w)
        eps = rng.standard_normal((n, self.data_dim))
        return means[ks] + np.sqrt(self.covs[ks]) * eps

    # -- tape emission -------------------------------------------------------

    def _emit_log_joint(self, g, x_ref, c_ref, t, sched):
        """Nodes for the logits, each unnormalized log w_k + log N_t(x; mu_k,
        var_k) and each mu_k; also the variances."""
        ab = sched.alpha_bar(t)
        variances = ab * self.covs + (1.0 - ab)
        logits = g.affine(c_ref, self.weight_logits)
        mus = [g.affine(c_ref, np.sqrt(ab) * M, np.sqrt(ab) * b)
               for M, b in zip(self.mean_maps, self.mean_offsets)]
        comps = [g.add(g.pick(logits, k), g.gauss_logpdf(x_ref, mu, v))
                 for k, (mu, v) in enumerate(zip(mus, variances))]
        return logits, comps, mus, variances

    def emit_log_likelihood(self, g, x_ref, c_ref, t, sched):
        """Append nodes computing log p_t(x | c) to graph g."""
        logits, comps, _, _ = self._emit_log_joint(g, x_ref, c_ref, t, sched)
        return g.sub(g.logsumexp(g.pack(comps)), g.logsumexp(logits))

    def emit_score(self, g, x_ref, c_ref, t, sched):
        """Append nodes computing the conditional score vector to graph g."""
        _, comps, mus, variances = self._emit_log_joint(g, x_ref, c_ref, t, sched)
        resp = g.softmax(g.pack(comps))
        pulls = [g.affine(g.sub(x_ref, mu), np.diag(-1.0 / v)) for mu, v in zip(mus, variances)]
        return reduce(g.add, [g.smul(g.pick(resp, k), pull) for k, pull in enumerate(pulls)])


def _mlp_layer_shapes(data_dim, embed_dim, hidden, depth, time_feats):
    """(weight shape, bias shape) of each ScoreNet layer, input first."""
    sizes = [data_dim + embed_dim + time_feats] + [hidden] * depth + [data_dim]
    return [((fan_out, fan_in), (fan_out,)) for fan_in, fan_out in zip(sizes[:-1], sizes[1:])]


class ScoreNet:
    """SiLU MLP score model over concat(x, c, sinusoidal time features)."""

    def __init__(self, data_dim, embed_dim, hidden=64, depth=3, time_feats=8, seed=0):
        if time_feats % 2 != 0:
            raise ModelError("time_feats must be even")
        self.data_dim = int(data_dim)
        self.embed_dim = int(embed_dim)
        self.hidden = int(hidden)
        self.depth = int(depth)
        self.time_feats = int(time_feats)
        rng = np.random.default_rng(seed)
        layers = _mlp_layer_shapes(self.data_dim, self.embed_dim, self.hidden, self.depth,
                                   self.time_feats)
        self.params = []
        for i, (w_shape, b_shape) in enumerate(layers):
            scale = np.sqrt(1.0 / w_shape[1])
            if i == len(layers) - 1:
                scale *= 0.1
            self.params.append(Param(rng.normal(0.0, scale, w_shape)))
            self.params.append(Param(np.zeros(b_shape)))

    def time_features(self, t, T):
        """Sinusoidal features of t/T at octave frequencies."""
        tau = float(t) / float(T)
        freqs = 2.0 ** np.arange(self.time_feats // 2)
        ang = 2.0 * np.pi * freqs * tau
        return np.concatenate([np.sin(ang), np.cos(ang)])

    def _forward_cached(self, inp, rowwise=False):
        """Forward pass keeping every layer's input and pre-activation.

        rowwise=True multiplies each row on its own (a stack of 1-row
        products), which gives a row the same bits alone or in any batch;
        the default is one gemm over the batch, as training uses.
        """
        acts = [inp]
        pre = []
        h = inp
        n_layers = len(self.params) // 2
        for i in range(n_layers):
            W, b = self.params[2 * i].value, self.params[2 * i + 1].value
            z = (np.matmul(h[..., None, :], W.T)[..., 0, :] if rowwise else h @ W.T) + b
            pre.append(z)
            if i < n_layers - 1:
                sig = 1.0 / (1.0 + np.exp(-z))
                h = z * sig
                acts.append(h)
            else:
                h = z
        return h, acts, pre

    def score(self, x, c, t, sched):
        """Network forward pass; batched over leading axes of x (and c),
        each row exactly as it is alone."""
        x = np.asarray(x, dtype=np.float64)
        c = np.asarray(c, dtype=np.float64)
        feats = self.time_features(t, sched.T)
        lead = np.broadcast_shapes(x.shape[:-1], c.shape[:-1])
        inp = np.concatenate([np.broadcast_to(x, lead + (self.data_dim,)),
                              np.broadcast_to(c, lead + (self.embed_dim,)),
                              np.broadcast_to(feats, lead + (self.time_feats,))], axis=-1)
        out, _, _ = self._forward_cached(inp, rowwise=True)
        return out

    def emit_score(self, g, x_ref, c_ref, t, sched):
        """Append the network forward pass to graph g (inputs x, c)."""
        feats = g.constant(self.time_features(t, sched.T))
        h = g.concat([x_ref, c_ref, feats])
        n_layers = len(self.params) // 2
        for i in range(n_layers):
            h = g.affine(h, self.params[2 * i], self.params[2 * i + 1])
            if i < n_layers - 1:
                h = g.silu(h)
        return h

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()


def train_dsm(net, model, sched, steps, batch, lr, seed, embeddings=None):
    """Denoising score matching with plain fixed-step SGD.

    Per sample: draw c (from `embeddings` rows if given, else standard
    normal), x0 ~ p(x0|c), t uniform in 1..T, eps ~ N(0, I); perturb and
    regress the network output onto -eps / sqrt(1 - ab_t).  Returns the
    per-step loss curve; the net is updated in place.
    """
    steps = int(steps)
    batch = int(batch)
    if steps < 0 or (steps > 0 and (batch < 1 or lr <= 0.0)):
        raise ModelError("need steps >= 0, batch >= 1, lr > 0")
    rng = np.random.default_rng(seed)
    losses = np.zeros(steps)
    n_layers = len(net.params) // 2
    # one row per timestep, each from the same call a single row would make,
    # so a batch's features are bit-equal to per-row calls
    feat_table = np.stack([net.time_features(t, sched.T) for t in range(1, sched.T + 1)])

    for step in range(steps):
        if embeddings is not None:
            cs = embeddings[rng.integers(0, len(embeddings), size=batch)]
        else:
            cs = rng.standard_normal((batch, net.embed_dim))
        # componentwise mixture draw per row
        w = model.weights(cs)                        # (B, K)
        u = rng.random((batch, 1))
        ks = np.sum(np.cumsum(w, axis=1) < u, axis=1)
        mu0 = np.einsum("kde,be->bkd", model.mean_maps, cs) + model.mean_offsets
        x0 = mu0[np.arange(batch), ks] + np.sqrt(model.covs[ks]) * rng.standard_normal((batch, model.data_dim))

        ts = rng.integers(1, sched.T + 1, size=batch)
        ab = sched.alpha_bars[ts - 1][:, None]
        eps = rng.standard_normal((batch, model.data_dim))
        xt = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
        target = -eps / np.sqrt(1.0 - ab)

        inp = np.concatenate([xt, cs, feat_table[ts - 1]], axis=1)
        out, acts, pre = net._forward_cached(inp)

        resid = out - target
        loss = float(np.mean(np.sum(resid * resid, axis=1)))
        if not np.isfinite(loss):
            raise TrainingDiverged(step)
        losses[step] = loss

        # hand-rolled backprop through the MLP (checked against the tape
        # engine in the test suite)
        grad = 2.0 * resid / batch
        for i in range(n_layers - 1, -1, -1):
            W = net.params[2 * i]
            b = net.params[2 * i + 1]
            a_in = acts[i]
            W.grad = grad.T @ a_in
            b.grad = grad.sum(axis=0)
            if i > 0:
                upstream = grad @ W.value
                z = pre[i - 1]
                sig = 1.0 / (1.0 + np.exp(-z))
                grad = upstream * sig * (1.0 + z * (1.0 - sig))
        for p in net.params:
            p.value = p.value - lr * p.grad
        net.zero_grad()
    return losses


def prompt_stack(conditionals, priors):
    """Check a prompt set; return its one model, (P, e) embeddings, (P,) priors."""
    P = len(conditionals)
    if P == 0:
        raise ModelError("empty prompt set")
    model = conditionals[0][0]
    if any(m is not model for m, _ in conditionals):
        raise ModelError("prompts use more than one model; the stacked pass needs one")
    priors = np.asarray(priors, dtype=np.float64)
    if priors.shape != (P,):
        raise ModelError(f"priors have shape {priors.shape}, expected ({P},) for {P} prompts")
    if abs(priors.sum() - 1.0) > 1e-9:
        raise ModelError(f"priors sum to {priors.sum():.12g}, not 1")
    return model, np.stack([np.asarray(c, dtype=np.float64) for _, c in conditionals]), priors


def _prompt_posterior(conditionals, priors, x, t, sched):
    """log p(y | x) for every prompt y, shape (P, ...), from one pass with the
    embeddings stacked as (P, 1, ..., e) against x of shape (..., d); also
    that pass's log joint, x - mu_k and variances."""
    model, cs, priors = prompt_stack(conditionals, priors)
    lift = (len(cs),) + (1,) * (np.ndim(x) - 1)
    joint = model._log_joint(x, cs.reshape(lift + cs.shape[-1:]), t, sched)
    lp = _logsumexp(joint[0]) + np.log(priors).reshape(lift)
    return lp - _logsumexp(lp, axis=0), joint


def classifier_log_prob(conditionals, priors, x_t, t, sched):
    """Bayes posterior log p(y | x_t) over a list of (model, embedding) pairs."""
    return _prompt_posterior(conditionals, priors, x_t, t, sched)[0]


def unconditional_score(conditionals, priors, x, t, sched):
    """Score of the prior-weighted mixture over prompts.

    grad_x log sum_y pi_y p(x|c_y) = sum_y p(y|x) grad_x log p(x|c_y).
    """
    log_post, joint = _prompt_posterior(conditionals, priors, x, t, sched)
    return np.sum(np.exp(log_post)[..., None] * _score_from(*joint), axis=0)


def ddpm_chain(model, sched, x_t, t, c, n, rng):
    """Sample n draws of x0 from the reverse chain started at (x_t, t).

    Stochastic ancestral steps throughout, with the final step to x0 taken
    at the posterior mean (sigma_1 = 0 under the schedule convention makes
    this automatic).
    """
    x = np.broadcast_to(np.asarray(x_t, dtype=np.float64), (n, len(x_t))).copy()
    for tau in range(int(t), 0, -1):
        s = model.score(x, c, tau, sched)
        noise = rng.standard_normal(x.shape) if tau > 1 else np.zeros_like(x)
        x = step_ddpm(x, s, tau, noise, sched)
    return x


# -- checkpoints -------------------------------------------------------------

def save_checkpoint(model, path):
    """Write a model to JSON.  Doubles survive the round trip bit-exactly
    because floats are serialised with repr precision.  The file is written
    under a temporary name in the same directory and then renamed over
    `path`, so a failed write leaves any earlier checkpoint as it was."""
    if isinstance(model, MixtureModel):
        doc = {
            "kind": "mixture",
            "n_components": model.n_components,
            "data_dim": model.data_dim,
            "embed_dim": model.embed_dim,
            "mean_maps": model.mean_maps.reshape(-1).tolist(),
            "mean_offsets": model.mean_offsets.reshape(-1).tolist(),
            "covs": model.covs.reshape(-1).tolist(),
            "weight_logits": model.weight_logits.reshape(-1).tolist(),
        }
    elif isinstance(model, ScoreNet):
        doc = {
            "kind": "scorenet",
            "data_dim": model.data_dim,
            "embed_dim": model.embed_dim,
            "hidden": model.hidden,
            "depth": model.depth,
            "time_feats": model.time_feats,
            "weights": [p.value.reshape(-1).tolist() for p in model.params],
        }
    else:
        raise ModelError(f"cannot checkpoint {type(model).__name__}")
    # json.dumps takes the C encoder, which json.dump never does; same bytes
    text = json.dumps(doc)
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _checkpoint_size(doc, key, least):
    v = doc[key]
    if type(v) is not int or v < least:
        raise ModelError(f"{key} must be an integer >= {least}, got {v!r}")
    return v


def _checkpoint_array(flat, key, shape):
    """A flat JSON list as a float64 array of `shape`."""
    try:
        a = np.asarray(flat, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ModelError(f"{key} is not a list of numbers ({exc})") from None
    n = math.prod(shape)
    if a.shape != (n,):
        raise ModelError(f"{key} has shape {a.shape}, expected {n} values for shape {shape}")
    return a.reshape(shape)


def _mixture_from(doc):
    K, d, e = (_checkpoint_size(doc, k, 1) for k in ("n_components", "data_dim", "embed_dim"))
    shapes = {"mean_maps": (K, d, e), "mean_offsets": (K, d), "covs": (K, d),
              "weight_logits": (K, e)}
    return MixtureModel(**{k: _checkpoint_array(doc[k], k, shape) for k, shape in shapes.items()})


def _scorenet_from(doc):
    dims = {k: _checkpoint_size(doc, k, least)
            for k, least in (("data_dim", 1), ("embed_dim", 1), ("hidden", 1),
                             ("depth", 0), ("time_feats", 0))}
    shapes = [shape for layer in _mlp_layer_shapes(**dims) for shape in layer]
    weights = doc["weights"]
    if not isinstance(weights, list) or len(weights) != len(shapes):
        held = (f"{len(weights)} arrays" if isinstance(weights, list)
                else f"a {type(weights).__name__}")
        raise ModelError(f"weights holds {held}, expected {len(shapes)} arrays "
                         f"for depth {dims['depth']}")
    values = [_checkpoint_array(flat, f"weights[{i}]", shape)
              for i, (flat, shape) in enumerate(zip(weights, shapes))]
    net = ScoreNet(**dims, seed=0)
    for p, v in zip(net.params, values):
        p.value = v
    return net


_CHECKPOINT_KINDS = {"mixture": _mixture_from, "scorenet": _scorenet_from}


def load_checkpoint(path):
    """Read a model written by save_checkpoint.  Every size, array count and
    array length is checked against the declared sizes before a model is
    built; a malformed file raises ModelError naming the file and the key."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ModelError("not a JSON object")
        kind = doc.get("kind")
        build = _CHECKPOINT_KINDS.get(kind) if isinstance(kind, str) else None
        if build is None:
            raise ModelError(f"unknown checkpoint kind {kind!r}")
        return build(doc)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelError(f"{path}: not valid JSON ({exc})") from None
    except KeyError as exc:
        raise ModelError(f"{path}: missing key {exc}") from None
    except ModelError as exc:
        raise ModelError(f"{path}: {exc}") from None


# -- desk tasks ---------------------------------------------------------------

@dataclass(frozen=True)
class DeskTask:
    """A model plus a discrete prompt table standing in for a text encoder."""
    model: MixtureModel
    embed_table: np.ndarray   # (n_prompts, embed_dim)
    priors: np.ndarray        # (n_prompts,)

    @property
    def n_prompts(self):
        return self.embed_table.shape[0]

    def embedding(self, y):
        y = int(y)
        if not (0 <= y < self.n_prompts):
            raise ModelError(f"prompt id {y} outside 0..{self.n_prompts - 1}")
        return self.embed_table[y].copy()

    def conditionals(self):
        return [(self.model, self.embed_table[y]) for y in range(self.n_prompts)]


def default_task(seed=7):
    """The standard desk instance: 2-D data, 4-D embeddings, K = 2, 4 prompts.

    Geometry is calibrated so that radius-0.5 embedding moves are a mild
    perturbation, mirroring how a 0.5-radius ball sits inside a real text
    encoder's embedding scale: prompt embeddings have norm 4, every prompt
    resolves to a clearly dominant component (logit margin 6), and the
    component means respond gently to the embedding.  Far larger moves
    (radius ~4) can flip component weights outright, which is what makes
    oversized update radii visibly degrade the generated distribution.
    """
    rng = np.random.default_rng(seed)
    e, d, K, P = 4, 2, 2, 4
    cscale, logit_margin = 4.0, 6.0
    table = rng.standard_normal((P, e))
    table *= cscale / np.linalg.norm(table, axis=1, keepdims=True)
    v = rng.standard_normal(e)
    v *= logit_margin / np.min(np.abs(2.0 * table @ v))
    model = MixtureModel(
        mean_maps=rng.normal(0.0, 0.03 / cscale, (K, d, e)),
        mean_offsets=rng.normal(0.0, 1.0, (K, d)),
        covs=rng.uniform(0.2, 0.45, (K, d)),
        weight_logits=np.stack([v, -v]),
    )
    priors = np.full(P, 1.0 / P)
    return DeskTask(model=model, embed_table=table, priors=priors)


def tiny_task(seed=11):
    """1-D data, 1-D embedding, K = 2; used by the exhaustive-search checks."""
    rng = np.random.default_rng(seed)
    table = np.array([[0.5], [-0.5]])
    model = MixtureModel(
        mean_maps=rng.normal(0.0, 0.9, (2, 1, 1)),
        mean_offsets=np.array([[1.3], [-1.1]]),
        covs=rng.uniform(0.05, 0.15, (2, 1)),
        weight_logits=np.array([[1.2], [-1.2]]),
    )
    return DeskTask(model=model, embed_table=table, priors=np.array([0.5, 0.5]))
