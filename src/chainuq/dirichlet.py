"""Digamma-family special functions and Dirichlet maximum-likelihood fitting.

``digamma`` and ``trigamma`` share one kernel, the recurrence shift to x >= 10
plus the asymptotic series (Bernardo 1976, Algorithm AS 103), on Python
floats: faster than numpy on the fit's few-element arrays, and no scipy
import. ``inverse_digamma`` inverts digamma by Newton's method.

The fitter is built around the fixed-point update of Minka (2000),
"Estimating a Dirichlet distribution": each sweep solves

    digamma(alpha_i) = digamma(sum_j alpha_j) + mean_r log x_i^(r)

for all components simultaneously. Every sweep increases the likelihood and
the iteration converges to the unique maximum-likelihood estimate. Because
the plain iteration contracts only at rate 1 - O(1/sum(alpha)), sweeps are
interleaved with a Newton step on the shape total (the map's state collapses
to that scalar); an accelerated candidate is accepted only when it does not
decrease the likelihood, so the recorded path stays monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSamplesError, DomainError

SAMPLE_CLAMP = 1e-300  # floor applied to sample entries before taking logs


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


def _invert_digamma(y: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Solve digamma(x) = y by Newton from ``start``, to full precision."""
    x = np.maximum(np.asarray(start, dtype=float), np.finfo(float).tiny)
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

    Newton's method from the standard two-branch initializer: exp(y) + 1/2
    for y >= -2.22 and -1/(y + euler_gamma) below, iterated to full
    precision (round-trip accuracy well under 1e-10).
    """
    scalar = np.isscalar(y)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    with np.errstate(over="ignore", divide="ignore"):
        x = np.where(
            y >= -2.22, np.exp(np.minimum(y, 700.0)) + 0.5, -1.0 / (y + np.euler_gamma)
        )
    x = _invert_digamma(y, start=x)
    return float(x[0]) if scalar else x


@dataclass
class DirichletFit:
    """Result of a maximum-likelihood Dirichlet fit.

    Attributes
    ----------
    alpha : ndarray
        Estimated shape parameters, all > 0.
    iterations : int
        Number of update sweeps performed.
    converged : bool
        True when the fixed-point residual dropped to the tolerance
        (infinity norm).
    log_likelihood : float
        Log-likelihood at the returned estimate.
    log_likelihood_path : ndarray
        Log-likelihood after the start value and after each sweep.
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


def _moment_start(samples):
    """Method-of-moments starting value; all-ones when moments degenerate."""
    m = samples.mean(axis=0)
    m2 = (samples * samples).mean(axis=0)
    denom = m2 - m * m
    if np.all(denom > 0) and np.all(m > 0):
        total = np.mean((m - m2) / denom)
        alpha = m * total
        if np.all(np.isfinite(alpha)) and np.all(alpha > 0):
            return alpha
    return np.ones(samples.shape[1])


def _accelerated_total(alpha, alpha_next):
    """Newton step on the shape total for the map s -> sum of updates.

    The update vector is a function of the previous shape total s alone, so
    the iteration is a scalar fixed point s = g(s) with derivative
    g'(s) = psi1(s) * sum(1 / psi1(alpha_next)). Returns the extrapolated
    total, or None when the local slope gives no usable step.
    """
    s = alpha.sum()
    g = alpha_next.sum()
    slope = float(_psi_psi1_float(float(s))[1] * (1.0 / _psi_psi1(alpha_next)[1]).sum())
    if not np.isfinite(slope) or not 0.0 < slope < 1.0 - 1e-12:
        return None
    s_acc = s + (g - s) / (1.0 - slope)
    # trust region: never jump more than two orders of magnitude at once
    if not np.isfinite(s_acc) or not (s / 100.0) < s_acc < (s * 100.0):
        return None
    return s_acc


def fit_dirichlet(samples, tolerance: float = 1e-8, max_iter: int = 10_000) -> DirichletFit:
    """Fit Dirichlet shape parameters to simplex-valued samples by ML.

    Parameters
    ----------
    samples : array-like, shape (R, I)
        R >= 2 simplex vectors. Entries below 1e-300 are clamped before logs
        are taken and the fit is flagged approximate.
    tolerance : float
        Convergence threshold: infinity norm of the fixed-point residual at
        the returned estimate.
    max_iter : int
        Sweep budget; on exhaustion the best iterate is returned with
        ``converged=False``.

    Raises
    ------
    DegenerateSamplesError
        If some component is (numerically) zero in every sample, or fewer
        than two samples are supplied.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2:
        raise DegenerateSamplesError(f"expected a 2-d sample array, got shape {x.shape}")
    n_samples = x.shape[0]
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

    alpha = _moment_start(x)
    ll = _log_likelihood(alpha, mean_log, n_samples)
    ll_path = [ll]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        target = _psi_psi1_float(float(alpha.sum()))[0] + mean_log
        alpha_next = _invert_digamma(target, start=alpha)
        if not np.all(np.isfinite(alpha_next)) or not np.all(alpha_next > 0):
            iterations -= 1
            break
        delta = np.abs(alpha_next - alpha).max()
        if delta <= tolerance:
            # alpha_next is the map's image of alpha, so this bounds the
            # fixed-point residual at the returned estimate
            alpha = alpha_next
            ll_path.append(_log_likelihood(alpha, mean_log, n_samples))
            converged = True
            break
        ll_next = _log_likelihood(alpha_next, mean_log, n_samples)
        s_acc = _accelerated_total(alpha, alpha_next)
        if s_acc is not None:
            target_acc = _psi_psi1_float(float(s_acc))[0] + mean_log
            candidate = _invert_digamma(target_acc, start=alpha_next)
            if np.all(np.isfinite(candidate)) and np.all(candidate > 0):
                ll_cand = _log_likelihood(candidate, mean_log, n_samples)
                if ll_cand >= ll_next:
                    alpha_next, ll_next = candidate, ll_cand
        alpha = alpha_next
        ll_path.append(ll_next)
    return DirichletFit(
        alpha=alpha,
        iterations=iterations,
        converged=converged,
        log_likelihood=ll_path[-1],
        log_likelihood_path=np.asarray(ll_path),
        clamped=clamped,
    )
