"""Run metrics: alignment statistics and the moment-based Frechet distance.

The distributional metric fits Gaussian moments to the generated samples
and compares them against the exact conditional moments of the analytic
task in closed form; with pretrained feature extractors out of reach this
is the desk-scale stand-in for a feature-space Frechet distance.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np


class MetricsError(ValueError):
    pass


def _sqrt_psd(M):
    vals, vecs = np.linalg.eigh(M)
    if np.any(vals < -1e-10 * max(1.0, np.max(np.abs(vals)))):
        raise MetricsError("matrix is not positive semidefinite")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def gaussian_frechet(mu1, S1, mu2, S2):
    """Closed-form Frechet distance between two Gaussians:

        ||mu1 - mu2||^2 + tr(S1 + S2 - 2 (S1^{1/2} S2 S1^{1/2})^{1/2})

    computed via eigendecompositions (exact for the small covariances used
    here).  Tiny negative round-off is clamped so the result is >= 0.
    """
    mu1 = np.atleast_1d(np.asarray(mu1, dtype=np.float64))
    mu2 = np.atleast_1d(np.asarray(mu2, dtype=np.float64))
    S1 = np.atleast_2d(np.asarray(S1, dtype=np.float64))
    S2 = np.atleast_2d(np.asarray(S2, dtype=np.float64))
    root1 = _sqrt_psd(S1)
    cross = _sqrt_psd(root1 @ S2 @ root1)
    d2 = float(np.sum((mu1 - mu2) ** 2) + np.trace(S1 + S2 - 2.0 * cross))
    return max(d2, 0.0)


def paired_ttest(a, b):
    """Paired t-test of mean(a) > mean(b); returns the statistic and both
    one-sided and two-sided p-values."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise MetricsError("need two equally sized sample vectors")
    d = a - b
    n = d.size
    se = np.std(d, ddof=1) / np.sqrt(n)
    if se > 0:
        t_stat = float(np.mean(d) / se)
    elif np.mean(d) == 0.0:        # identical samples: no evidence either way
        t_stat = 0.0
    else:
        t_stat = float(np.inf * np.sign(np.mean(d)))
    # stdtr(df, -t) is the upper tail of Student's t, as scipy.stats.t.sf
    # computes it.  Imported here, not at the top: importing scipy.special
    # more than doubles every command's start-up, and only compare runs a
    # t-test.
    from scipy.special import stdtr
    p_greater = float(stdtr(n - 1, -t_stat))
    p_two = float(2.0 * stdtr(n - 1, -abs(t_stat)))
    return {"mean_diff": float(np.mean(d)), "t_stat": t_stat,
            "p_greater": p_greater, "p_two_sided": p_two}


def config_hash(cfg_dict):
    blob = json.dumps(cfg_dict, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


@dataclass(frozen=True)
class MetricsReport:
    mean_h: float
    se_h: float | None       # absent for a single trajectory
    h_trace: tuple           # per-step mean of h at the predicted mean
    frechet: float
    n_samples: int
    config_hash: str

    def to_dict(self):
        return {"mean_h": self.mean_h, "se_h": self.se_h,
                "h_trace": list(self.h_trace), "frechet": self.frechet,
                "n_samples": self.n_samples, "config_hash": self.config_hash}


def compute_metrics(finals, h_steps, cfg_dict, h, y, true_model, c_true):
    """Summarize a run against the exact conditional from its samples,
    finals (n, d), and h at each step's predicted mean, h_steps (n, T)."""
    n = len(finals)
    if n == 0:
        raise MetricsError("no trajectories")
    hs = np.asarray(h.value(finals, y), dtype=np.float64)
    se = float(np.std(hs, ddof=1) / np.sqrt(n)) if n > 1 else None
    h_trace = tuple(float(v) for v in h_steps.mean(axis=0))

    mu_true, cov_true = true_model.moments_x0(c_true)
    mu_fit = finals.mean(axis=0)
    cov_fit = np.cov(finals, rowvar=False) if n > 1 else np.zeros((finals.shape[1],) * 2)
    fd = gaussian_frechet(mu_fit, cov_fit, mu_true, cov_true)

    return MetricsReport(mean_h=float(hs.mean()), se_h=se, h_trace=h_trace,
                         frechet=fd, n_samples=n, config_hash=config_hash(cfg_dict))
