"""Digamma-family special functions and Dirichlet maximum-likelihood fitting.

``digamma`` and ``trigamma`` share one kernel, the recurrence shift to x >= 10
plus the asymptotic series (Bernardo 1976, Algorithm AS 103), on Python
floats: faster than numpy on the fit's few-element arrays, and no scipy
import. ``inverse_digamma`` inverts digamma by Newton's method.

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

from .errors import DegenerateSamplesError, DomainError

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


def _psi_psi1(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digamma and trigamma of every element of an array, all elements > 0."""
    both = np.array([_psi_psi1_float(v) for v in x.ravel().tolist()]).reshape(-1, 2)
    return both[:, 0].reshape(x.shape), both[:, 1].reshape(x.shape)


def _elementwise(f, x, name):
    """Apply ``f`` to x > 0: a Python scalar gives a float, anything else an array."""
    scalar = np.isscalar(x)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(~np.isfinite(x)) or np.any(x <= 0):
        raise DomainError(f"{name} requires strictly positive finite arguments")
    value = f(x)
    return float(value[0]) if scalar else value


def digamma(x):
    """Digamma function for x > 0, scalar or array.

    Raises
    ------
    DomainError
        For any argument <= 0 (or non-finite).
    """
    return _elementwise(lambda v: _psi_psi1(v)[0], x, "digamma")


def trigamma(x):
    """First derivative of digamma for x > 0, scalar or array."""
    return _elementwise(lambda v: _psi_psi1(v)[1], x, "trigamma")


def _invert_digamma(y: np.ndarray) -> np.ndarray:
    """Solve digamma(x) = y by Newton's method, to full precision.

    Starts from the standard two-branch initializer: exp(y) + 1/2 for
    y >= -2.22 and -1/(y + euler_gamma) below.
    """
    with np.errstate(divide="ignore"):
        x = np.where(
            y >= -2.22, np.exp(np.minimum(y, 700.0)) + 0.5, -1.0 / (y + np.euler_gamma)
        )
    for _ in range(40):
        psi, psi1 = _psi_psi1(x)
        step = (psi - y) / psi1
        x_new = x - step
        # Newton can only overshoot below zero from a poor start; halve instead
        x = np.where(x_new > 0, x_new, x / 2.0)
        if np.abs(step).max() <= 1e-13 * max(1.0, np.abs(x).max()):
            break
    return x


def inverse_digamma(y):
    """Inverse of digamma on (0, inf), scalar or array.

    Round-trip accuracy is well under 1e-10.
    """
    scalar = np.isscalar(y)
    x = _invert_digamma(np.atleast_1d(np.asarray(y, dtype=float)))
    return float(x[0]) if scalar else x


@dataclass
class DirichletFit:
    """Result of a maximum-likelihood Dirichlet fit.

    Attributes
    ----------
    alpha : ndarray
        Estimated shape parameters, all > 0; infinite when no finite
        maximum exists.
    iterations : int
        Number of Newton steps on the shape total.
    converged : bool
        True when the last Newton correction was at most 1e-12 of the
        total; False when no finite maximum exists or the step budget ran
        out.
    log_likelihood : float
        Log-likelihood at the returned estimate (NaN when no step was taken).
    log_likelihood_path : ndarray
        Log-likelihood at each Newton step, one entry per step.
    clamped : bool
        True when sample entries were floored at the clamping threshold
        before taking logs; the fit is then approximate.
    """

    alpha: np.ndarray
    iterations: int
    converged: bool
    log_likelihood: float
    log_likelihood_path: np.ndarray
    clamped: bool


def _log_likelihood(alpha, mean_log, n_samples):
    lgammas = sum(map(math.lgamma, alpha.tolist()))
    return float(n_samples * (math.lgamma(alpha.sum()) - lgammas + ((alpha - 1.0) * mean_log).sum()))


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
    n_samples, n_components = x.shape
    if n_samples < 2:
        raise DegenerateSamplesError("at least two samples are required")
    if np.any(x < 0) or not np.all(np.isfinite(x)):
        raise DegenerateSamplesError("samples must be finite and nonnegative")
    dead = np.all(x < SAMPLE_CLAMP, axis=0)
    if dead.any():
        raise DegenerateSamplesError(
            f"component(s) {np.flatnonzero(dead).tolist()} are zero in every sample"
        )
    clamped = bool(np.any(x < SAMPLE_CLAMP))
    if clamped:
        x = np.maximum(x, SAMPLE_CLAMP)
    mean_log = np.log(x).mean(axis=0)

    c = float(np.exp(mean_log).sum())
    s = (n_components - c) / (2.0 * (1.0 - c)) if c < 1.0 else math.inf
    alpha = np.full(n_components, math.inf)
    ll_path = []
    converged = False
    while len(ll_path) < MAX_NEWTON_STEPS and 0.0 < s < math.inf:
        psi, psi1 = _psi_psi1_float(s)
        alpha = _invert_digamma(psi + mean_log)
        ll_path.append(_log_likelihood(alpha, mean_log, n_samples))
        correction = (alpha.sum() - s) / (psi1 * (1.0 / _psi_psi1(alpha)[1]).sum() - 1.0)
        # exact iterates only fall, so a correction that would raise s is
        # rounding at the root: the total is as settled as it can get
        if correction <= 1e-12 * s:
            converged = True
            break
        s -= correction
    return DirichletFit(
        alpha=alpha,
        iterations=len(ll_path),
        converged=converged,
        log_likelihood=ll_path[-1] if ll_path else math.nan,
        log_likelihood_path=np.asarray(ll_path),
        clamped=clamped,
    )
