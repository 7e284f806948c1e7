"""Dirichlet maximum-likelihood fitting.

The fit's digamma and trigamma share one kernel, the recurrence shift to
x >= 10 plus the asymptotic series (Bernardo 1976, Algorithm AS 103), on
Python floats: faster than numpy on the fit's few-element arrays, and no
scipy import. Digamma is inverted by Newton's method on Python floats too.

The fitter solves the likelihood equations of Minka (2000), "Estimating a
Dirichlet distribution",

    digamma(alpha_i) = digamma(s) + mean_r log x_i^(r),   s = sum_j alpha_j,

which give every shape alpha_i(s) once the total s is known, so the
maximum-likelihood total is the root of one scalar function,
h(s) = sum_i alpha_i(s) - s, with slope
h'(s) = trigamma(s) * sum_i 1 / trigamma(alpha_i(s)) - 1. h is concave and
lies below its asymptote (c - 1) s + (I - c) / 2, where
c = sum_i exp(mean_r log x_i^(r)) <= 1, so Newton's method started at the
asymptote's root falls monotonically to the root of h. Along alpha(s) the
log-likelihood's slope has the sign of h, so it never decreases on the way,
with no likelihood test or step control. When 1 - c <= 0 in floating point
(every sample equal to rounding, or a single component) no finite maximum
exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSamplesError

SAMPLE_CLAMP = 1e-300  # floor applied to sample entries before taking logs
MAX_NEWTON_STEPS = 50  # bound on the fit's Newton solve; converging fits take 2 to 7 steps


def _psi_psi1_float(v: float) -> tuple[float, float]:
    """Digamma and trigamma of one float v > 0."""
    shift = shift1 = 0.0
    while v < 10.0:  # psi(v) = psi(v + 1) - 1/v, psi1(v) = psi1(v + 1) + 1/v^2
        inv = 1.0 / v
        shift += inv
        shift1 += inv * inv
        v += 1.0
    inv = 1.0 / v
    w = inv * inv
    # psi ~ ln v - 1/(2v) - sum B_2k / (2k v^2k); psi1 ~ 1/v + 1/(2v^2) + sum B_2k / v^(2k+1)
    return (
        math.log(v) - 0.5 * inv - shift - w * (1 / 12 - w * (1 / 120 - w * (
            1 / 252 - w * (1 / 240 - w * (1 / 132 - w * (691 / 32760 - w / 12)))))),
        shift1 + inv + 0.5 * w + inv * w * (1 / 6 - w * (1 / 30 - w * (
            1 / 42 - w * (1 / 30 - w * (5 / 66 - w * (691 / 2730 - 7 / 6 * w)))))),
    )


def _invert_digamma(ys: list, xs: list | None = None) -> list:
    """Solve digamma(x) = y for each float in ``ys`` by Newton's method, to full precision.

    Starts from ``xs`` when given; else cold, from exp(y) + 1/2 for
    y >= -2.22 and -1/(y + euler_gamma) below. The steps stop together once
    each is at most 1e-13 of max(1, max |x|).
    """
    if xs is None:
        xs = [math.exp(min(v, 700.0)) + 0.5 if v >= -2.22 else -1.0 / (v + np.euler_gamma) for v in ys]
    for _ in range(40):
        steps, new = [], []
        for x, v in zip(xs, ys):
            psi, psi1 = _psi_psi1_float(x)
            # psi1 is 0 only at x = inf, where (psi - v) / 0 would be psi - v: inf or NaN
            step = (psi - v) / psi1 if psi1 else psi - v
            x_new = x - step
            # Newton can only overshoot below zero from a poor start; halve instead
            new.append(x_new if x_new > 0 else x / 2.0)
            steps.append(abs(step))
        xs = new
        tol = 1e-13 * max(1.0, max(map(abs, xs), default=0.0))
        if all(step <= tol for step in steps):  # False on a NaN step
            break
    return xs


@dataclass(frozen=True, eq=False)
class DirichletFit:
    """Result of a maximum-likelihood Dirichlet fit.

    Attributes
    ----------
    alpha : ndarray
        Estimated shape parameters, all > 0; infinite when no finite
        maximum exists.
    converged : bool
        True when the last Newton correction was at most 1e-12 of the
        total; False when no finite maximum exists or the step budget ran
        out.
    log_likelihood_path : ndarray
        Log-likelihood at each Newton step, one entry per step.
    clamped : bool
        True when sample entries were floored at the clamping threshold
        before taking logs; the fit is then approximate.

    Derived, read-only: ``iterations``, the Newton steps on the shape total,
    is ``len(log_likelihood_path)``.
    """

    alpha: np.ndarray
    converged: bool
    log_likelihood_path: np.ndarray
    clamped: bool

    @property
    def iterations(self) -> int:
        return len(self.log_likelihood_path)


def fit_dirichlet(samples) -> DirichletFit:
    """Fit Dirichlet shape parameters to simplex-valued samples by ML.

    Newton's method on the shape total (see the module docstring), stopped
    when the correction is at most 1e-12 of the total or after
    ``MAX_NEWTON_STEPS`` steps.

    Parameters
    ----------
    samples : array-like, shape (R, I)
        R >= 2 simplex vectors. Entries below 1e-300 are clamped before logs
        are taken and the fit is flagged approximate.

    Raises
    ------
    DegenerateSamplesError
        If some component is (numerically) zero in every sample, or fewer
        than two samples are supplied.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2:
        raise DegenerateSamplesError(f"expected a 2-d sample array, got shape {x.shape}")
    return _fit(x, range(x.shape[1]))


def _fit(x: np.ndarray, names) -> DirichletFit:
    """`fit_dirichlet` of a 2-d float array; ``names[i]`` names component i in errors."""
    n_samples, n_components = x.shape
    if n_samples < 2:
        raise DegenerateSamplesError("at least two samples are required")
    lowest, highest = x.min(axis=0).tolist(), x.max(axis=0).tolist()  # NaN propagates to both
    if not all(lo >= 0 and hi < math.inf for lo, hi in zip(lowest, highest)):
        raise DegenerateSamplesError("samples must be finite and nonnegative")
    dead = [names[i] for i, hi in enumerate(highest) if hi < SAMPLE_CLAMP]
    if dead:
        raise DegenerateSamplesError(f"component(s) {dead} are zero in every sample")
    clamped = any(lo < SAMPLE_CLAMP for lo in lowest)
    if clamped:
        x = np.maximum(x, SAMPLE_CLAMP)
    mean_log = np.log(x).sum(axis=0) / n_samples  # np.mean's sum and division, bit for bit

    c = float(np.exp(mean_log).sum())
    s = (n_components - c) / (2.0 * (1.0 - c)) if c < 1.0 else math.inf
    mean_log = mean_log.tolist()
    alpha = [math.inf] * n_components
    ll_path = []
    converged = False
    while len(ll_path) < MAX_NEWTON_STEPS and 0.0 < s < math.inf:
        psi, psi1 = _psi_psi1_float(s)
        # s only falls, and alpha with it: each step starts from the last one's shapes
        alpha = _invert_digamma([psi + m for m in mean_log], alpha if ll_path else None)
        total = sum(alpha)
        ll_path.append(n_samples * (math.lgamma(total) + sum(
            (a - 1.0) * m - math.lgamma(a) for a, m in zip(alpha, mean_log))))
        correction = (total - s) / (psi1 * sum(1.0 / _psi_psi1_float(a)[1] for a in alpha) - 1.0)
        # exact iterates only fall, so a correction that would raise s is
        # rounding at the root: the total is as settled as it can get
        if correction <= 1e-12 * s:
            converged = True
            break
        s -= correction
    return DirichletFit(
        alpha=np.array(alpha), converged=converged, log_likelihood_path=np.array(ll_path), clamped=clamped
    )
