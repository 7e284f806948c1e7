"""Effective sample size of the discrete chain, and the i.i.d. baseline.

The dispersion of the stationary-distribution draws is matched to the
posterior that independent sampling would have produced: a Dirichlet whose
parameters are the per-model visit counts (under an improper all-zeros
prior). Fitting Dirichlet shapes to the draws and subtracting the total
prior weight of the transition-matrix model yields the number of
independent draws carrying the same information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dirichlet import DirichletFit, _fit
from .errors import ConfigError, EmptyChainError
from .sampling import PosteriorDraws, _allocate, _dirichlet_rows
from .summaries import _sample_stats

EXCESS_RATIO = 1.5  # warn when t_eff exceeds this multiple of the iteration count


@dataclass(frozen=True, eq=False)
class IidPosterior:
    """Draws of the occupancy probabilities' posterior under i.i.d. sampling.

    ``draws`` holds R rows of Dirichlet(``concentrations``), the raw visit
    counts (improper Dirichlet(0,...,0) prior): a model never visited is
    exactly 0 in every draw, and a lone visited model exactly 1. ``draws`` is
    the (R, I) transpose of the row kernel's C-contiguous (I, R) output.
    """

    concentrations: np.ndarray
    draws: np.ndarray

    def sd(self) -> np.ndarray:
        """Componentwise SD of the draws (divisor R - 1)."""
        return _sample_stats(self.draws, 0.5, 0.5)["sd"]

    def quantile(self, q: float) -> np.ndarray:
        """Componentwise quantile of the draws, by `summarize`'s linear rule."""
        return _sample_stats(self.draws, q, q)["lower"]


def iid_posterior(visit_counts, n_draws: int = 1000, seed: int = 0) -> IidPosterior:
    """Posterior for the occupancy probabilities if samples were independent.

    ``n_draws`` rows of Dirichlet(visit counts) from one generator seeded
    with ``seed``, drawn by the Markov path's row kernel.

    Raises
    ------
    EmptyChainError
        If the visit counts are not a vector of zeros and positive normal floats
        with a finite positive sum.
    ConfigError
        If ``n_draws`` is below 1, ``seed`` is negative or the (I, R) draws cannot be allocated.
    """
    n = np.asarray(visit_counts, dtype=float)
    with np.errstate(over="ignore"):  # a total past DBL_MAX is rejected, not warned about
        total = n.sum()
    tiny = np.finfo(float).tiny
    if n.ndim != 1 or not (total < np.inf and all(v == 0 or v >= tiny for v in n.tolist())):
        raise EmptyChainError("visit counts must be a nonnegative vector, not subnormal, with a finite sum")
    if total <= 0:
        raise EmptyChainError("all visit counts are zero")
    if n_draws < 1 or seed < 0:
        raise ConfigError(f"n_draws must be >= 1 and seed >= 0, got {n_draws} and {seed}")
    _allocate((n.size, n_draws), f"{n_draws} draws of {n.size} models do not fit in memory (n_draws)")
    draws = _dirichlet_rows(n, [np.random.default_rng(seed)], n_draws)
    return IidPosterior(concentrations=n, draws=draws.T)


@dataclass(frozen=True)
class EssEstimate:
    """Effective-sample-size estimate for a discrete chain.

    Attributes
    ----------
    t_eff : float
        Estimated number of equivalent independent draws: the fitted shape
        total minus the prior weight. Reported as 0.0 (with ``negative``
        set) when the subtraction dips below zero, as NaN for a chain that
        visited a single model, and as infinite when the draws are equal to
        rounding, so the fit has no finite maximum.
    prior_weight : float
        Total prior mass of the transition-matrix model, (I*)^2 * epsilon
        under the scalar policies.
    t_raw : int
        Total chain iterations the draws were based on.
    fit : DirichletFit or None
        Fit diagnostics (None for the single-model case).
    negative : bool
        True when t_eff was raised to 0.0 from below.

    Derived, read-only: ``ratio`` is ``t_eff / t_raw``; ``exceeds_raw`` is
    ``converged and t_eff > EXCESS_RATIO * t_raw``; ``single_model`` is
    ``fit is None``; ``alpha_hat`` (the fitted shapes), ``converged`` and
    ``approximate`` are ``fit.alpha``, ``fit.converged`` and ``fit.clamped``,
    or None, True and False without a fit.
    """

    t_eff: float
    prior_weight: float
    t_raw: int
    fit: DirichletFit | None
    negative: bool = False

    @property
    def single_model(self) -> bool:
        return self.fit is None

    @property
    def alpha_hat(self) -> np.ndarray | None:
        return None if self.fit is None else self.fit.alpha

    @property
    def ratio(self) -> float:
        return self.t_eff / self.t_raw if self.t_raw else float("nan")

    @property
    def exceeds_raw(self) -> bool:
        return self.converged and self.t_eff > EXCESS_RATIO * self.t_raw

    @property
    def converged(self) -> bool:
        return self.fit is None or self.fit.converged

    @property
    def approximate(self) -> bool:
        return self.fit is not None and self.fit.clamped


def effective_sample_size(draws: PosteriorDraws) -> EssEstimate:
    """Effective sample size implied by the stationary-distribution draws.

    Fits Dirichlet shapes to the draws by maximum likelihood (one Newton
    solve on the shape total, see `fit_dirichlet`) and subtracts the prior
    mass that the transition-matrix model contributed, using exactly the
    per-cell weights the draws were sampled with. Stable estimates need on
    the order of 1000 draws or more.
    """
    t_raw = draws.source.total_iterations
    prior_weight = draws.prior_mass
    if draws.n_models == 1:
        # a single observed model pins every draw to (1.0); the dispersion
        # match is undefined
        return EssEstimate(t_eff=float("nan"), prior_weight=prior_weight, t_raw=t_raw, fit=None)
    fit = _fit(draws.draws, draws.labels)  # a model zero in every draw is named by its label
    t_eff = float(fit.alpha.sum() - prior_weight)
    negative = t_eff < 0
    return EssEstimate(t_eff=0.0 if negative else t_eff, prior_weight=prior_weight, t_raw=t_raw,
                       fit=fit, negative=negative)
