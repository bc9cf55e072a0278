"""Conditional score models.

Two families share one interface (``score(x, c, t, sched)``):

* :class:`MixtureModel` - an analytic conditional Gaussian mixture.  The
  embedding c enters through both the component means (M_k c + b_k) and the
  component weights softmax_k(a_k . c), so the conditional score and
  log-likelihood have nontrivial embedding gradients.  All quantities are
  exact, which makes this family the oracle for every theory check.
* :class:`ScoreNet` - a small SiLU MLP over concat(x, c, time features),
  trained by denoising score matching with plain SGD.  One backprop serves
  training and the tape, where the network is a single node.

Embeddings are plain float arrays throughout; per-step variants and update
directions are handled by the update module.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .fileio import open_atomic
from .schedules import step_ddpm


class ModelError(ValueError):
    pass


class TrainingDiverged(RuntimeError):
    def __init__(self, step):
        super().__init__(f"loss became non-finite at step {step}")
        self.step = step


# The mixture's batched math is laid out components first: every internal
# array is (K, d, *rows), or (K, *rows) after the sum over d, with rows the
# broadcast leading axes of x and c.  So every elementwise op, broadcasts
# included, runs one long inner loop over the rows, and a sum or max over K,
# d or the P prompts is a chain of whole-slice ops along a leading axis.
#
# The chains keep the bits np.sum and np.max gave on the rows-first
# (*rows, K, d) layout.  There numpy added an axis of fewer than _CHAIN_MAX
# entries one entry after another, starting from +0.0, as the chain does.
# From _CHAIN_MAX entries on it summed the axis pairwise where it was the
# innermost loop, that is where only size-1 axes followed it (the caller
# says so with `inner`), and such an axis is copied last and handed to
# numpy's reduce; elsewhere numpy still added one entry after another.  The
# sum chains over a C-ordered copy of a strided input: numpy's strided loops
# take a NaN's sign from other operands than its contiguous ones, and numpy
# reduced C-ordered arrays.
_CHAIN_MAX = 8


def _sum(a, axis=0, inner=True, exps=False):
    """np.sum over a leading axis to the last bit, as a fresh array.  `inner`
    says whether the rows-first layout had the axis innermost.  exps=True
    says the terms are exponentials, never -0.0, so the chain can skip
    numpy's +0.0 start."""
    n = a.shape[axis]
    if n >= _CHAIN_MAX and inner:
        return np.add.reduce(np.moveaxis(a, axis, -1).copy(), -1)
    a = np.ascontiguousarray(a)
    if axis:
        a = a.swapaxes(0, axis)
    # numpy's sum starts from +0.0, so -0.0 terms alone sum to +0.0
    pair = n > 1 and exps
    out = a[0] + (a[1] if pair else 0.0)
    for i in range(1 + pair, n):
        out += a[i]
    return out


def _max(a, inner=True):
    """np.max over axis 0 to the last bit, as a fresh array; `inner` as for
    _sum."""
    n = len(a)
    if n >= _CHAIN_MAX and inner:
        return np.maximum.reduce(np.moveaxis(a, 0, -1).copy(), -1)
    out = a[0]
    for i in range(1, n):
        out = np.maximum(out, a[i])
    return out if n > 1 else out.copy()


def _logsumexp(a, inner=True):
    """log sum exp over axis 0."""
    m = _max(a, inner)
    e = a - m
    return m + np.log(_sum(np.exp(e, out=e), 0, inner, exps=True))


def _responsibilities(comp):
    r = comp - _logsumexp(comp)
    return np.exp(r, out=r)


def _front(x, nrows):
    """View of x, shaped (*r, d), as (d, *r), r padded in front with 1s to
    nrows axes."""
    if x.ndim <= nrows:
        x = x.reshape((1,) * (nrows + 1 - x.ndim) + x.shape)
    return x.transpose((nrows, *range(nrows)))


def _back(a):
    """(n, *rows) as a C-ordered (*rows, n) array."""
    return np.ascontiguousarray(a.transpose((*range(1, a.ndim), 0)))


def _score_from(comp, diff, variances):
    """sum_k r_k (mu_k - x) / var_k, shape (d, *rows), from a log joint;
    overwrites diff."""
    np.negative(diff, out=diff)
    diff /= variances
    diff *= _responsibilities(comp)[:, None]
    return _sum(diff, 0, diff.shape[1] == 1)


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
    # mean_maps' K d rows, then weight_logits' K rows, (K d + K, e): one
    # einsum gives M_k c and a_k . c rows last, with the bits of the two
    # rows-first einsums it replaces
    _maps: np.ndarray = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_maps", np.concatenate(
            [self.mean_maps.reshape(K * d, e), self.weight_logits]))

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
        c = np.ascontiguousarray(c, dtype=np.float64)
        logits = np.einsum("ke,...e->k...", self.weight_logits, c, order="C")
        e = np.exp(logits - _max(logits))
        return _back(e / _sum(e))

    def component_means(self, c):
        """Clean-data component means M_k c + b_k, shape (..., K, d)."""
        c = np.ascontiguousarray(c, dtype=np.float64)
        return np.einsum("kde,...e->...kd", self.mean_maps, c) + self.mean_offsets

    def _perturbed(self, clean, ab, shape):
        """Step-ab means from the clean means M_k c + b_k, and the diagonal
        variances shaped `shape`."""
        return math.sqrt(ab) * clean, (ab * self.covs + (1.0 - ab)).reshape(shape)

    def perturbed_params(self, c, t, sched):
        """Means and diagonal variances of the step-t perturbed mixture."""
        return self._perturbed(self.component_means(c), sched.alpha_bar(t), self.covs.shape)

    def _log_joint(self, x, c, t, sched):
        """log w_k(c) + log N_t(x; mu_k, var_k), shape (K, *rows), with x - mu_k,
        shape (K, d, *rows), the variances, shape (K, d, 1, ...), and from c
        alone the clean means M_k c + b_k, shape (K, d, ...), and log w_k(c),
        shape (K, ...).  rows broadcasts the leading axes of x and c, so
        embeddings stacked on a new axis take one pass."""
        x = np.asarray(x, dtype=np.float64)
        # einsum sums a strided embedding axis in another order
        c = np.ascontiguousarray(c, dtype=np.float64)
        nrows = max(x.ndim, c.ndim) - 1
        lift = self.covs.shape + (1,) * nrows
        maps = np.einsum("je,...e->j...", self._maps, c, order="C")
        rows = (1,) * (nrows + 1 - c.ndim) + maps.shape[1:]
        kd = self.mean_offsets.size
        clean = maps[:kd].reshape(self.covs.shape + rows) + self.mean_offsets.reshape(lift)
        means, variances = self._perturbed(clean, sched.alpha_bar(t), lift)
        diff = np.subtract(_front(x, nrows), means, order="C")
        # the density's terms d first, (d, K, *rows), so the sum over d
        # chains over contiguous slices
        dk, var_dk = diff.swapaxes(0, 1), variances.swapaxes(0, 1)
        q = np.multiply(dk, dk, order="C")
        q /= var_dk
        q += np.log(2.0 * np.pi * var_dk)
        comp = _sum(q)
        comp *= -0.5
        logits = maps[kd:].reshape(self.covs.shape[:1] + rows)
        logw = logits - _logsumexp(logits)
        comp += logw
        return comp, diff, variances, clean, logw

    def log_likelihood(self, x, c, t, sched):
        """Exact log p_t(x | c); batched over leading axes of x (and c)."""
        return _logsumexp(self._log_joint(x, c, t, sched)[0])

    def score(self, x, c, t, sched):
        """Exact conditional score grad_x log p_t(x | c)."""
        return _back(_score_from(*self._log_joint(x, c, t, sched)[:3]))

    def grad_c_log_likelihood(self, x, c, t, sched):
        """Exact grad_c log p_t(x | c) for a single (x, c) pair."""
        comp, diff, variances, _, logw = self._log_joint(x, c, t, sched)
        mean_logit = np.exp(logw) @ self.weight_logits
        pulls = (np.sqrt(sched.alpha_bar(t)) * self.mean_maps.transpose(0, 2, 1)
                 @ (diff / variances)[..., None])
        return _sum(_responsibilities(comp)[:, None]
                    * (self.weight_logits - mean_logit + pulls[..., 0]), 0, self.embed_dim == 1)

    def posterior_mean_x0(self, x_t, c, t, sched):
        """Responsibility-weighted posterior mean E[x0 | x_t, c], exact."""
        ab = sched.alpha_bar(t)
        comp, diff, variances, clean, _ = self._log_joint(x_t, c, t, sched)
        # M_k c + b_k + sqrt(ab) S_k / var_k (x - mu_k), in place of diff
        diff *= np.sqrt(ab) * self.covs.reshape(variances.shape) / variances
        diff += clean
        diff *= _responsibilities(comp)[:, None]
        return _back(_sum(diff, 0, self.data_dim == 1))

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
        """Nodes for the logits, the unnormalized log w_k + log N_t(x; mu_k,
        var_k) and the means mu_k, each stacked over k, and the variances.
        Embeddings stacked as (P, e) stack every node over P in front of k."""
        ab = sched.alpha_bar(t)
        variances = ab * self.covs + (1.0 - ab)
        logits = g.affine(c_ref, self.weight_logits)
        mus = g.affine(c_ref, np.sqrt(ab) * self.mean_maps, np.sqrt(ab) * self.mean_offsets)
        return logits, g.add(logits, g.gauss_logpdf(x_ref, mus, variances)), mus, variances

    def emit_log_likelihood(self, g, x_ref, c_ref, t, sched):
        """Append nodes computing log p_t(x | c) to graph g."""
        logits, comps, _, _ = self._emit_log_joint(g, x_ref, c_ref, t, sched)
        return g.sub(g.logsumexp(comps), g.logsumexp(logits))

    def emit_score(self, g, x_ref, c_ref, t, sched):
        """Append nodes computing the conditional score vector to graph g."""
        _, comps, mus, variances = self._emit_log_joint(g, x_ref, c_ref, t, sched)
        resp = g.softmax(comps)
        # (x - mu_k) * -1/var_k: a product by diag(-1/var_k) adds only
        # exact zeros to each entry
        pulls = g.scale(g.sub(x_ref, mus), -1.0 / variances)
        return g.wsum(resp, pulls)


def _mlp_layer_shapes(data_dim, embed_dim, hidden, depth, time_feats):
    """(weight shape, bias shape) of each ScoreNet layer, input first."""
    sizes = [data_dim + embed_dim + time_feats] + [hidden] * depth + [data_dim]
    return [((fan_out, fan_in), (fan_out,)) for fan_in, fan_out in zip(sizes[:-1], sizes[1:])]


class ScoreNet:
    """SiLU MLP score model over concat(x, c, sinusoidal time features);
    params holds plain arrays W_0, b_0, W_1, b_1, ..., input layer first."""

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
            self.params.append(rng.normal(0.0, scale, w_shape))
            self.params.append(np.zeros(b_shape))

    def time_features(self, t, T):
        """Sinusoidal features of t/T at octave frequencies."""
        tau = float(t) / float(T)
        freqs = 2.0 ** np.arange(self.time_feats // 2)
        ang = 2.0 * np.pi * freqs * tau
        return np.concatenate([np.sin(ang), np.cos(ang)])

    def _forward_cached(self, inp, rowwise=False):
        """Forward pass; returns the output and what _backprop reads: every
        layer's input, and each hidden layer's pre-activation and sigmoid.

        rowwise=True multiplies each row on its own (a stack of 1-row
        products), which gives a row the same bits alone or in any batch;
        the default is one gemm over the batch, as training uses.
        """
        acts, pre, sigs = [inp], [], []
        h = inp
        n_layers = len(self.params) // 2
        for i in range(n_layers):
            W, b = self.params[2 * i], self.params[2 * i + 1]
            h = (np.matmul(h[..., None, :], W.T)[..., 0, :] if rowwise else h @ W.T) + b
            if i < n_layers - 1:
                sig = 1.0 / (1.0 + np.exp(-h))
                pre.append(h)
                sigs.append(sig)
                h = h * sig
                acts.append(h)
        return h, (acts, pre, sigs)

    def _backprop(self, grad, cache, rowwise=False):
        """Reverse sweep from the output adjoint `grad`, in the layout of the
        _forward_cached call that gave `cache`.  Per row (the tape), returns
        the adjoint of each input row; in the gemm layout (training), the
        gradient of every weight and bias summed over the rows, in params
        order, without the input's adjoint, which training never reads."""
        acts, pre, sigs = cache
        grads = []
        for i in range(len(self.params) // 2 - 1, -1, -1):
            W = self.params[2 * i]
            if not rowwise:
                grads[:0] = (grad.T @ acts[i], grad.sum(axis=0))
                if i == 0:
                    return grads
            grad = np.matmul(grad[..., None, :], W)[..., 0, :] if rowwise else grad @ W
            if i > 0:
                sig = sigs[i - 1]
                grad = grad * sig * (1.0 + pre[i - 1] * (1.0 - sig))
        return grad

    def _rows(self, x, c, feats):
        """The input rows concat(x, c, feats), over the broadcast leading
        axes of x and c."""
        x = np.asarray(x, dtype=np.float64)
        c = np.asarray(c, dtype=np.float64)
        lead = np.broadcast_shapes(x.shape[:-1], c.shape[:-1])
        return np.concatenate([np.broadcast_to(x, lead + (self.data_dim,)),
                               np.broadcast_to(c, lead + (self.embed_dim,)),
                               np.broadcast_to(feats, lead + (self.time_feats,))], axis=-1)

    def score(self, x, c, t, sched):
        """Network forward pass; batched over leading axes of x (and c),
        each row exactly as it is alone."""
        inp = self._rows(x, c, self.time_features(t, sched.T))
        return self._forward_cached(inp, rowwise=True)[0]

    def emit_score(self, g, x_ref, c_ref, t, sched):
        """Append the network to graph g (inputs x, c) as one node: its
        value has the bits of score, and its adjoints come from the per-row
        backprop."""
        feats = self.time_features(t, sched.T)
        d, e = self.data_dim, self.embed_dim

        def forward(x, c):
            out, cache = self._forward_cached(self._rows(x, c, feats), rowwise=True)

            def vjp(adj):
                grad = self._backprop(adj, cache, rowwise=True)
                return grad[..., :d], grad[..., d:d + e]
            return out, vjp
        return g.fused(forward, (x_ref, c_ref))


def train_dsm(net, model, sched, steps, batch, lr, seed, embeddings=None):
    """Denoising score matching with plain fixed-step SGD.

    Per sample: draw c (from `embeddings` rows if given, else standard
    normal), x0 ~ p(x0|c), t uniform in 1..T, eps ~ N(0, I); perturb and
    regress the network output onto -eps / sqrt(1 - ab_t).  Returns the
    per-step loss curve; the net is updated in place.
    """
    steps = int(steps)
    batch = int(batch)
    if steps < 0 or (steps > 0 and batch < 1):
        raise ModelError("need steps >= 0, batch >= 1")
    if steps > 0 and not 0.0 < lr < math.inf:
        raise ModelError(f"lr must be finite and > 0, got {lr!r}")
    rng = np.random.default_rng(seed)
    losses = np.zeros(steps)
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
        out, cache = net._forward_cached(inp)

        resid = out - target
        loss = float(np.mean(np.sum(resid * resid, axis=1)))
        if not np.isfinite(loss):
            raise TrainingDiverged(step)
        losses[step] = loss

        grads = net._backprop(2.0 * resid / batch, cache)
        net.params = [p - lr * grad for p, grad in zip(net.params, grads)]
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


def unconditional_score(conditionals, priors, x, t, sched):
    """Score of the prior-weighted mixture over prompts.

    grad_x log sum_y pi_y p(x|c_y) = sum_y p(y|x) grad_x log p(x|c_y),
    from one pass with the embeddings stacked as (P, 1, ..., e) against x of
    shape (..., d).
    """
    model, cs, priors = prompt_stack(conditionals, priors)
    lift = (len(cs),) + (1,) * (np.ndim(x) - 1)
    comp, diff, variances, _, _ = model._log_joint(x, cs.reshape(lift + cs.shape[-1:]), t, sched)
    lp = _logsumexp(comp) + np.log(priors).reshape(lift)
    # numpy reduced P innermost in the rows-first (P, *rows, d) layout only
    # for a single x (and for the score only at d = 1)
    alone = lp.size == len(cs)
    post = lp - _logsumexp(lp, alone)
    s = _score_from(comp, diff, variances)
    s *= np.exp(post, out=post)
    return _back(_sum(s, 1, alone and model.data_dim == 1))


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
            "weights": [p.reshape(-1).tolist() for p in model.params],
        }
    else:
        raise ModelError(f"cannot checkpoint {type(model).__name__}")
    # json.dumps takes the C encoder, which json.dump never does; same bytes
    text = json.dumps(doc)
    with open_atomic(path) as fh:
        fh.write(text)


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
    net.params = values
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
