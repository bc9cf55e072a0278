"""Executable checks for the theory behind the embedding update.

Every check runs on analytically tractable mixture instances where exact
scores, likelihoods, and posterior means are available, so inequalities and
expansion orders can be measured rather than assumed:

* the optimization chain (unconstrained >= constrained >= fixed) via
  exhaustive grid search with common random numbers,
* the first-order expansion of the updated score (O(rho^2) remainder),
* the first-order expansion of h_t in the embedding,
* the Jensen inequality for convex h,
* the cosine-alignment deviation bound with its measured ingredients,
* Tweedie exactness against independent posterior-mean algebra.

Checks are deterministic given (configuration, seed); every Monte-Carlo
tolerance is expressed in standard errors of the estimate it guards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .alignment import (
    AlignmentBoundInputs,
    CosineAlignment,
    LinearAlignment,
    QuadraticAlignment,
    eval_h_t,
    lipschitz_bound,
)
from .autodiff import evaluate, gradient
from .graphs import directional_cgrad_graph
from .models import MixtureModel, DeskTask, ddpm_chain, default_task, tiny_task
from .schedules import default_schedule, make_schedule, step_ddpm, perturb, tweedie_mean
from .update import grad_h_t_wrt_c


class VerificationError(ValueError):
    pass


@dataclass(frozen=True)
class SlopeFit:
    """A log-log power-law fit of residual magnitudes against scales."""
    xs: np.ndarray
    ys: np.ndarray
    slope: float
    r2: float
    degenerate: bool = False   # all residuals at floating-point floor

    @property
    def max_residual(self):
        return float(np.max(self.ys))


@dataclass(frozen=True)
class ChainReport:
    v_unconstrained: float
    v_constrained: float
    v_fixed: float
    se_unconstrained: float
    se_constrained: float
    se_fixed: float
    n_rollouts: int
    grid: dict = field(default_factory=dict)
    interpretation: str = "right-to-left re-decision, all-equal-henceforth"

    @property
    def ordered(self):
        return (self.v_unconstrained >= self.v_constrained
                and self.v_constrained >= self.v_fixed - 2.0 * self.se_fixed)


def fit_loglog(xs, ys, floor=1e-14):
    """Least-squares slope of log y against log x, with fit quality."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    order = np.argsort(-xs)
    xs, ys = xs[order], ys[order]
    if np.any(xs <= 0.0) or np.any(ys < 0.0):
        raise VerificationError("scales must be positive, residuals nonnegative")
    if np.all(ys <= floor):
        return SlopeFit(xs=xs, ys=ys, slope=0.0, r2=1.0, degenerate=True)
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return SlopeFit(xs=xs, ys=ys, slope=float(slope), r2=float(r2))


# -- Tweedie exactness --------------------------------------------------------

def _k1_posterior_mean(model, x_t, c, t, sched):
    """Linear-Gaussian posterior mean in precision-weighted form; written
    independently of the responsibility algebra used by the model."""
    ab = sched.alpha_bar(t)
    mu0 = model.component_means(c)[0]
    S = model.covs[0]
    precision = 1.0 / S + ab / (1.0 - ab)
    return (mu0 / S + np.sqrt(ab) * np.asarray(x_t) / (1.0 - ab)) / precision


def check_tweedie_exact(model, sched, probes=100, seed=0):
    """Max |tweedie_mean - exact posterior mean| over random probes.

    For mixtures the oracle is the responsibility-weighted posterior mean;
    for a single component the linear-Gaussian closed form is also checked.
    """
    rng = np.random.default_rng(seed)
    worst_resp = 0.0
    worst_k1 = 0.0
    for _ in range(int(probes)):
        t = int(rng.integers(1, sched.T + 1))
        x = rng.normal(0.0, 2.0, model.data_dim)
        c = rng.standard_normal(model.embed_dim)
        tw = tweedie_mean(x, c, t, model, sched)
        worst_resp = max(worst_resp, float(np.max(np.abs(
            tw - model.posterior_mean_x0(x, c, t, sched)))))
        if model.n_components == 1:
            worst_k1 = max(worst_k1, float(np.max(np.abs(
                tw - _k1_posterior_mean(model, x, c, t, sched)))))
    return {"max_error_responsibility": worst_resp,
            "max_error_closed_form_k1": worst_k1 if model.n_components == 1 else None}


# -- posterior sampling and the deviation bound -------------------------------

def _mc_size(n_mc):
    """n_mc as an int; a standard error (ddof=1) needs at least two samples."""
    n_mc = int(n_mc)
    if n_mc < 2:
        raise VerificationError(f"n_mc must be >= 2 for a standard error, got {n_mc}")
    return n_mc


def estimate_m1(x_t, c, t, model, sched, n_mc, seed=0):
    """Monte-Carlo mean deviation E||x0 - tweedie_mean|| of the clean-data
    posterior reached by the stochastic reverse chain from (x_t, t)."""
    n_mc = _mc_size(n_mc)
    rng = np.random.default_rng(seed)
    x0 = ddpm_chain(model, sched, x_t, t, c, n_mc, rng)
    center = tweedie_mean(x_t, c, t, model, sched)
    devs = np.linalg.norm(x0 - center, axis=1)
    return float(np.mean(devs)), float(np.std(devs, ddof=1) / np.sqrt(n_mc))


def check_jensen(x_t, c, t, model, sched, h, y, n_mc=10_000, seed=0):
    """h(tweedie mean) <= E[h(x0)] + 3 SE for convex h (Jensen)."""
    convex = (getattr(h, "kind", None) == "linear"
              or (getattr(h, "kind", None) == "quadratic" and h.sign > 0))
    if not convex:
        raise VerificationError("Jensen check needs a convex evaluation function")
    rng = np.random.default_rng(seed)
    x0 = ddpm_chain(model, sched, x_t, t, c, _mc_size(n_mc), rng)
    hs = h.value(x0, y)
    lhs = float(h.value(tweedie_mean(x_t, c, t, model, sched), y))
    rhs = float(np.mean(hs))
    se = float(np.std(hs, ddof=1) / np.sqrt(len(hs)))
    return {"lhs": lhs, "rhs": rhs, "se": se, "margin": rhs - lhs,
            "passed": lhs <= rhs + 3.0 * se}


def check_approx_bound(x_t, c, t, model, sched, h, y, n_mc=10_000, seed=0):
    """|E[h] - h(tweedie mean)| against (1/K) ||F||_op m1 for cosine h.

    K is measured as the minimum feature norm over the posterior samples and
    the operator norm is the exact largest singular value of the feature map.
    """
    if getattr(h, "kind", None) != "cosine":
        raise VerificationError("the deviation bound applies to cosine alignment")
    rng = np.random.default_rng(seed)
    x0 = ddpm_chain(model, sched, x_t, t, c, _mc_size(n_mc), rng)
    feats = x0 @ h.feature_map.T
    k_lower = float(np.min(np.linalg.norm(feats, axis=1)))
    if k_lower < 1e-8:
        raise VerificationError("ill-posed instance: feature norms reach zero")
    center = tweedie_mean(x_t, c, t, model, sched)
    m1_hat = float(np.mean(np.linalg.norm(x0 - center, axis=1)))
    hs = h.value(x0, y)
    gap = abs(float(np.mean(hs)) - float(h.value(center, y)))
    se = float(np.std(hs, ddof=1) / np.sqrt(len(hs)))
    bound = lipschitz_bound(h, AlignmentBoundInputs(
        k_lower=k_lower, grad_norm_max=h.operator_norm(), m1=m1_hat))
    return {"gap": gap, "bound": bound, "se": se, "k_lower": k_lower,
            "m1": m1_hat, "passed": gap <= bound + 3.0 * se}


# -- expansion orders ---------------------------------------------------------

def check_taylor_order(x_t, c, t, model, sched, h, y, direction=None,
                       scale_list=(0.2, 0.1, 0.05, 0.025)):
    """Residual of the first-order expansion of h_t in the embedding.

    |h_t(c + s u) - h_t(c) - s u . grad h_t(c)| should shrink like s^2.
    The values h_t(...) come from the plain forward path while the gradient
    comes from the reverse sweep, so the two routes cross-check each other.
    """
    c = np.asarray(c, dtype=np.float64)
    grad = grad_h_t_wrt_c(x_t, c, t, model, sched, h, y)
    if direction is None:
        n = np.linalg.norm(grad)
        if n == 0.0:
            raise VerificationError("zero gradient; supply a direction")
        direction = grad / n
    u = np.asarray(direction, dtype=np.float64)
    u = u / np.linalg.norm(u)
    base = float(eval_h_t(h, x_t, c, t, model, sched, y))
    lin = float(u @ grad)
    resid = [abs(float(eval_h_t(h, x_t, c + s * u, t, model, sched, y))
                 - base - s * lin) for s in scale_list]
    return fit_loglog(np.asarray(scale_list), np.asarray(resid))


def check_thm2_order(x_t, c_org, t, model, sched, h, y,
                     rho_list=(0.2, 0.1, 0.05, 0.025), residual="score"):
    """Remainder order of the updated-embedding score expansion.

    residual="score" measures, for each rho,

        || s(x, c + rho u) - s(x, c) - rho grad_x { u . grad_c log p(x|c) } ||

    with u the normalized embedding gradient of h_t at c_org and the mixed
    derivative obtained by a reverse sweep through the directional
    embedding-derivative graph.  residual="logdensity" measures the
    underlying expansion |log p(x|c + rho u) - log p(x|c) - rho u . grad_c
    log p|, which is exactly quadratic for a single-component model.
    """
    if not isinstance(model, MixtureModel):
        raise VerificationError("the expansion check needs the analytic model")
    c_org = np.asarray(c_org, dtype=np.float64)
    x_t = np.asarray(x_t, dtype=np.float64)
    g = grad_h_t_wrt_c(x_t, c_org, t, model, sched, h, y)
    gn = np.linalg.norm(g)
    if gn == 0.0:
        raise VerificationError("zero alignment gradient at the origin")
    u = g / gn

    if residual == "score":
        graph = directional_cgrad_graph(model, u, c_org, t, sched)
        evaluate(graph, {"x": x_t})
        guidance = gradient(graph, "x")
        base = model.score(x_t, c_org, t, sched)
        resid = [float(np.linalg.norm(
            model.score(x_t, c_org + rho * u, t, sched) - base - rho * guidance))
            for rho in rho_list]
    elif residual == "logdensity":
        base = model.log_likelihood(x_t, c_org, t, sched)
        dirderiv = float(u @ model.grad_c_log_likelihood(x_t, c_org, t, sched))
        resid = [abs(float(model.log_likelihood(x_t, c_org + rho * u, t, sched))
                     - float(base) - rho * dirderiv) for rho in rho_list]
    else:
        raise VerificationError(f"unknown residual kind {residual!r}")
    return fit_loglog(np.asarray(rho_list), np.asarray(resid))


# -- the optimization chain ---------------------------------------------------

_BLOCK_ROWS = 64   # prefixes stepped together: 64 x 512 rollouts x K = 2 float64
                   # is 0.5 MiB per temporary, inside a 2 MiB L2


def _rollout_values(seqs, z0, step_noise, model, sched, h, y):
    """Mean h(x0) over the rollouts, and its standard error, per sequence.

    seqs has shape (S, T); column t-1 is the embedding applied at step t.
    Every sequence starts from the rows of z0 and takes the same step noise,
    so sequences sharing (c_T, ..., c_t) reach the same state after step t.
    Rows are sorted by that prefix and the prefix tree is walked level by
    level: at step t each distinct prefix is stepped once from its parent's
    state, in chunks of at most _BLOCK_ROWS prefixes.  Only the level above
    keeps its states; at the leaf each chunk is reduced to its means and
    standard errors, which are then scattered back to the rows.
    """
    S, T = seqs.shape
    n_rollouts = z0.shape[0]
    order = np.lexsort(seqs.T)          # by c_T, then c_{T-1}, ...
    seqs = seqs[order]
    x = z0[None]          # the level above's states: at first the one before step T
    parent = np.zeros(S, dtype=np.intp)   # sorted row -> state index
    starts = np.zeros(S, dtype=bool)      # row opens a new prefix
    starts[0] = True
    for t in range(T, 0, -1):
        cs = seqs[:, t - 1]
        starts[1:] |= cs[1:] != cs[:-1]
        first = np.flatnonzero(starts)
        up, cs = parent[first], cs[first]
        # a level above the leaf keeps its states, the leaf each prefix's
        # mean and standard error
        out = np.empty((first.size,) + z0.shape if t > 1 else (2, first.size))
        for lo in range(0, first.size, _BLOCK_ROWS):
            chunk = slice(lo, lo + _BLOCK_ROWS)
            xc = x[up[chunk]]
            s = model.score(xc, cs[chunk, None, None], t, sched)
            # identical noise across candidate sequences: common random numbers
            noise = (np.broadcast_to(step_noise[t - 1], xc.shape)
                     if t > 1 else np.zeros_like(xc))
            xc = step_ddpm(xc, s, t, noise, sched)
            if t > 1:
                out[chunk] = xc
            else:
                hs = h.value(xc, y)
                out[0, chunk] = np.mean(hs, axis=1)
                out[1, chunk] = np.std(hs, axis=1, ddof=1) / np.sqrt(n_rollouts)
        x = out
        parent = np.cumsum(starts) - 1
    stats = np.empty((2, S))
    stats[:, order] = x[:, parent]
    return stats[0], stats[1]


def check_prop1(task, sched, h, y, rho=0.5, n_grid=21, n_rollouts=512, seed=0):
    """Exhaustive-search evaluation of the optimization chain on a tiny task.

    All three programs are evaluated with common random numbers: the same
    prior draws and the same per-step Gaussian noise for every candidate
    embedding sequence, so the ordering is variance-reduced.

    fixed          - the encoder embedding at every step.
    constrained    - the nested ball-constrained program, evaluated right to
                     left: the choice at step t commits all later-decided
                     (earlier-index) steps to the same value, each earlier
                     stage re-deciding its suffix.
    unconstrained  - independent per-step choices over a grid extended to
                     three times the ball radius.
    """
    model = task.model
    if model.embed_dim != 1:
        raise VerificationError("exhaustive search implemented for 1-D embeddings")
    T = sched.T
    if T > 3:
        raise VerificationError("tiny instance expected (T <= 3)")
    if n_grid < 1 or n_grid % 2 == 0:
        raise VerificationError(
            f"n_grid must be odd and >= 1 so the origin is a grid point, got {n_grid}")
    if n_rollouts < 2:
        raise VerificationError(
            f"n_rollouts must be >= 2 for a standard error, got {n_rollouts}")
    c_org = float(task.embedding(y)[0])
    half = (n_grid - 1) // 2
    if half == 0:
        ball = np.array([c_org])
        ext = np.array([c_org])
    else:
        ball = c_org + rho * (np.arange(-half, half + 1) / half)
        ext = np.unique(np.concatenate(
            [ball, c_org + rho * (np.arange(-3 * half, 3 * half + 1, 2) / half)]))

    rng = np.random.default_rng(seed)
    d = model.data_dim
    z0 = rng.standard_normal((n_rollouts, d))
    step_noise = rng.standard_normal((T, n_rollouts, d))

    def rollout_values(seqs):
        return _rollout_values(seqs, z0, step_noise, model, sched, h, y)

    v_fixed, se_fixed = rollout_values(np.full((1, T), c_org))

    # constrained program, right to left
    committed = np.full(T, np.nan)
    v_con, se_con = -np.inf, 0.0
    for stage in range(T, 0, -1):
        cand = np.tile(ball[:, None], (1, T))
        for tau in range(stage, T):
            cand[:, tau] = committed[tau]
        vals, ses = rollout_values(cand)
        best = int(np.argmax(vals))
        committed[stage - 1] = ball[best]
        v_con, se_con = float(vals[best]), float(ses[best])

    # unconstrained program over the extended grid; argmax takes the first
    # maximum in the grid's ij order
    grids = np.meshgrid(*([ext] * T), indexing="ij")
    vals, ses = rollout_values(np.stack([gr.reshape(-1) for gr in grids], axis=1))
    best = int(np.argmax(vals))
    v_unc, se_unc = float(vals[best]), float(ses[best])

    return ChainReport(
        v_unconstrained=v_unc, v_constrained=v_con, v_fixed=float(v_fixed[0]),
        se_unconstrained=se_unc, se_constrained=se_con, se_fixed=float(se_fixed[0]),
        n_rollouts=n_rollouts,
        grid={"ball_points": int(ball.size), "extended_points": int(ext.size),
              "radius": float(rho), "origin": c_org},
    )


# -- canonical instances and the full report ----------------------------------

def _k1_task(seed=23):
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((2, 4))
    table /= np.linalg.norm(table, axis=1, keepdims=True)
    model = MixtureModel(
        mean_maps=rng.normal(0.0, 0.8, (1, 2, 4)),
        mean_offsets=rng.normal(0.0, 1.0, (1, 2)),
        covs=rng.uniform(0.06, 0.2, (1, 2)),
        weight_logits=np.zeros((1, 4)),
    )
    return DeskTask(model=model, embed_table=table, priors=np.array([0.5, 0.5]))


def _k1_scalar_model(var=0.09):
    return MixtureModel(
        mean_maps=np.array([[[0.7]]]),
        mean_offsets=np.array([[0.4]]),
        covs=np.array([[var]]),
        weight_logits=np.zeros((1, 1)),
    )


def k1_chain_posterior_variance(model, sched, t):
    """Closed-form variance of the reverse chain's law of x0 from (x_t, t)
    for a scalar single-component model.

    Each reverse step is the linear map x -> a x + const plus sigma noise,
    so the chain's x0 is Gaussian with variance given by the recursion
    V <- a^2 V + sigma^2.  Under the posterior-variance sigma convention
    this is smaller than the true conditional variance
    S (1 - ab_t) / (ab_t S + 1 - ab_t); both are returned.
    """
    if model.n_components != 1 or model.data_dim != 1:
        raise VerificationError("closed form requires a scalar single component")
    S = float(model.covs[0, 0])
    V = 0.0
    for tau in range(int(t), 0, -1):
        ab = sched.alpha_bar(tau)
        beta = sched.beta(tau)
        vmarg = ab * S + (1.0 - ab)
        a = (1.0 - beta / vmarg) / np.sqrt(1.0 - beta)
        V = a * a * V + sched.sigma(tau) ** 2
    ab_t = sched.alpha_bar(t)
    v_true = S * (1.0 - ab_t) / (ab_t * S + (1.0 - ab_t))
    return V, v_true


ALL_CHECKS = (
    "tweedie_exact_k1",
    "tweedie_exact_mixture",
    "taylor_order_default",
    "taylor_order_linear",
    "taylor_order_quadratic_k1",
    "score_expansion_default",
    "score_expansion_quadratic_k1",
    "optimization_chain",
    "jensen_convex",
    "approx_bound",
    "m1_monotone",
    "m1_folded_normal",
)


def run_checks(seed=0, names=None):
    """Run the verification suite; returns {check: result dict}.

    Each check derives its RNG stream from (seed, its position in
    ALL_CHECKS), so subsets reproduce the full run's numbers exactly.
    """
    if names is None:
        names = ALL_CHECKS
    unknown = set(names) - set(ALL_CHECKS)
    if unknown:
        raise VerificationError(f"unknown checks: {sorted(unknown)}")

    task = default_task()
    sched = default_schedule()
    cos_h = CosineAlignment.for_task(task)
    results = {}

    def stream(name):
        return np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(ALL_CHECKS.index(name),)))

    for name in names:
        rng = stream(name)
        sub_seed = int(rng.integers(0, 2**31))
        if name == "tweedie_exact_k1":
            res = check_tweedie_exact(_k1_task().model, sched, probes=100, seed=sub_seed)
            res["passed"] = (res["max_error_responsibility"] <= 1e-12
                             and res["max_error_closed_form_k1"] <= 1e-12)
            res["tolerance"] = 1e-12
        elif name == "tweedie_exact_mixture":
            res = check_tweedie_exact(task.model, sched, probes=100, seed=sub_seed)
            res["passed"] = res["max_error_responsibility"] <= 1e-9
            res["tolerance"] = 1e-9
        elif name == "taylor_order_default":
            x = rng.standard_normal(2)
            fit = check_taylor_order(x, task.embedding(1), 50, task.model, sched, cos_h, 1)
            res = {"slope": fit.slope, "r2": fit.r2,
                   "residuals": fit.ys.tolist(),
                   "slope_window": [1.7, 2.3], "min_r2": 0.98,
                   "passed": 1.7 <= fit.slope <= 2.3 and fit.r2 >= 0.98}
        elif name == "taylor_order_linear":
            k1 = _k1_task()
            lin = LinearAlignment(rng.standard_normal((2, 2)))
            x = rng.standard_normal(2)
            u = rng.standard_normal(4)
            fit = check_taylor_order(x, k1.embedding(0), 40, k1.model, sched,
                                     lin, 0, direction=u / np.linalg.norm(u))
            res = {"max_residual": fit.max_residual, "tolerance": 1e-12,
                   "passed": fit.max_residual <= 1e-12}
        elif name == "taylor_order_quadratic_k1":
            k1 = _k1_task()
            quad = QuadraticAlignment.for_task(k1, sign=-1.0)
            x = rng.standard_normal(2)
            fit = check_taylor_order(x, k1.embedding(0), 40, k1.model, sched, quad, 0)
            res = {"slope": fit.slope, "r2": fit.r2,
                   "slope_window": [1.95, 2.05],
                   "passed": abs(fit.slope - 2.0) <= 0.05}
        elif name == "score_expansion_default":
            x = rng.standard_normal(2)
            fit = check_thm2_order(x, task.embedding(1), 50, task.model, sched,
                                   cos_h, 1, residual="score")
            res = {"slope": fit.slope, "r2": fit.r2,
                   "residuals": fit.ys.tolist(),
                   "slope_window": [1.7, 2.3], "min_r2": 0.98,
                   "passed": 1.7 <= fit.slope <= 2.3 and fit.r2 >= 0.98}
        elif name == "score_expansion_quadratic_k1":
            k1 = _k1_task()
            quad = QuadraticAlignment.for_task(k1, sign=-1.0)
            x = rng.standard_normal(2)
            fit = check_thm2_order(x, k1.embedding(0), 50, k1.model, sched,
                                   quad, 0, residual="logdensity")
            res = {"slope": fit.slope, "r2": fit.r2,
                   "slope_window": [1.95, 2.05],
                   "passed": abs(fit.slope - 2.0) <= 0.05}
        elif name == "optimization_chain":
            tt = tiny_task()
            tiny_sched = make_schedule(3, "linear", 0.25, 0.65)
            quad = QuadraticAlignment.for_task(tt, sign=-1.0)
            rep = check_prop1(tt, tiny_sched, quad, 0, rho=0.5,
                              n_grid=21, n_rollouts=512, seed=sub_seed)
            res = {"v_unconstrained": rep.v_unconstrained,
                   "v_constrained": rep.v_constrained,
                   "v_fixed": rep.v_fixed,
                   "se_fixed": rep.se_fixed,
                   "grid": rep.grid,
                   "interpretation": rep.interpretation,
                   "tolerance": "2 standard errors below fixed",
                   "passed": rep.ordered}
        elif name == "jensen_convex":
            quad = QuadraticAlignment.for_task(task, sign=+1.0)
            worst = np.inf
            ok = True
            for _ in range(10):
                t = int(rng.integers(5, sched.T + 1))
                x = rng.normal(0.0, 1.5, 2)
                out = check_jensen(x, task.embedding(0), t, task.model, sched,
                                   quad, 0, n_mc=4000, seed=int(rng.integers(2**31)))
                worst = min(worst, out["margin"] / max(out["se"], 1e-300))
                ok = ok and out["passed"]
            res = {"min_margin_in_se": worst, "tolerance_se": 3.0, "passed": ok}
        elif name == "approx_bound":
            ok = True
            slacks = []
            for _ in range(10):
                t = int(rng.integers(10, sched.T + 1))
                x = rng.normal(0.0, 1.5, 2)
                out = check_approx_bound(x, task.embedding(2), t, task.model,
                                         sched, cos_h, 2, n_mc=4000,
                                         seed=int(rng.integers(2**31)))
                slacks.append(out["bound"] + 3 * out["se"] - out["gap"])
                ok = ok and out["passed"]
            res = {"min_slack": float(np.min(slacks)), "tolerance_se": 3.0, "passed": ok}
        elif name == "m1_monotone":
            c = task.embedding(0)
            x0 = task.model.sample_x0(c, 1, rng)[0]
            eps = rng.standard_normal(2)
            ts = [100, 75, 50, 25, 10]
            vals = []
            for t in ts:
                x_t = perturb(x0, t, eps, sched)
                vals.append(estimate_m1(x_t, c, t, task.model, sched, 4000,
                                        seed=int(rng.integers(2**31))))
            ok = all(vals[i + 1][0] <= vals[i][0]
                     + 2.0 * np.hypot(vals[i][1], vals[i + 1][1])
                     for i in range(len(ts) - 1))
            res = {"ts": ts, "m1": [v[0] for v in vals],
                   "se": [v[1] for v in vals], "tolerance_se": 2.0, "passed": ok}
        elif name == "m1_folded_normal":
            model = _k1_scalar_model()
            t = 60
            c = np.array([0.3])
            x_t = np.array([0.5])
            m1, se = estimate_m1(x_t, c, t, model, sched, 20_000, seed=sub_seed)
            v_chain, v_true = k1_chain_posterior_variance(model, sched, t)
            expected = float(np.sqrt(2.0 * v_chain / np.pi))
            res = {"m1": m1, "expected": expected, "se": se,
                   "m1_true_posterior": float(np.sqrt(2.0 * v_true / np.pi)),
                   "tolerance_se": 3.0,
                   "passed": abs(m1 - expected) <= 3.0 * se}
        else:  # pragma: no cover
            raise VerificationError(name)
        results[name] = res
    return results
