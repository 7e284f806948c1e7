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

from .dirichlet import DirichletFit, fit_dirichlet
from .errors import EmptyChainError
from .sampling import PosteriorDraws

EXCESS_RATIO = 1.5  # warn when t_eff exceeds this multiple of the iteration count


@dataclass(frozen=True)
class IidPosterior:
    """Dirichlet posterior for the occupancy probabilities under i.i.d. sampling.

    Parameters are the raw visit counts (improper Dirichlet(0,...,0) prior);
    models never visited carry a degenerate point mass at zero and are
    reported in ``degenerate``.
    """

    concentrations: np.ndarray
    labels: tuple | None = None

    @property
    def total(self) -> float:
        return float(self.concentrations.sum())

    @property
    def degenerate(self) -> np.ndarray:
        return self.concentrations == 0

    def mean(self) -> np.ndarray:
        return self.concentrations / self.total

    def sd(self) -> np.ndarray:
        n = self.concentrations
        total = self.total
        return np.sqrt(n * (total - n) / (total * total * (total + 1.0)))

    def quantile(self, q: float) -> np.ndarray:
        """Marginal Beta quantiles, componentwise."""
        from scipy.special import betaincinv  # only ``chainuq bench`` needs scipy

        n = self.concentrations
        total = self.total
        out = np.empty(n.shape)
        interior = (n > 0) & (n < total)
        out[n == 0] = 0.0
        out[n == total] = 1.0
        if interior.any():
            out[interior] = betaincinv(n[interior], total - n[interior], q)
        return out


def iid_posterior(visit_counts, labels: tuple | None = None) -> IidPosterior:
    """Posterior for the occupancy probabilities if samples were independent.

    Raises
    ------
    EmptyChainError
        If all visit counts are zero.
    """
    n = np.asarray(visit_counts, dtype=float)
    if n.ndim != 1 or np.any(n < 0):
        raise EmptyChainError("visit counts must be a nonnegative vector")
    if n.sum() <= 0:
        raise EmptyChainError("all visit counts are zero")
    return IidPosterior(concentrations=n, labels=labels)


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
    alpha_hat : ndarray or None
        Fitted Dirichlet shapes for the stationary draws.
    prior_weight : float
        Total prior mass of the transition-matrix model, (I*)^2 * epsilon
        under the scalar policies.
    t_raw : int
        Total chain iterations the draws were based on.
    ratio : float
        t_eff / t_raw.
    fit : DirichletFit or None
        Fit diagnostics (None for the single-model case).
    """

    t_eff: float
    alpha_hat: np.ndarray | None
    prior_weight: float
    t_raw: int
    ratio: float
    fit: DirichletFit | None
    negative: bool = False
    exceeds_raw: bool = False
    single_model: bool = False

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
        return EssEstimate(
            t_eff=float("nan"),
            alpha_hat=None,
            prior_weight=prior_weight,
            t_raw=t_raw,
            ratio=float("nan"),
            fit=None,
            single_model=True,
        )
    fit = fit_dirichlet(draws.draws)
    t_eff = float(fit.alpha.sum() - prior_weight)
    negative = t_eff < 0
    if negative:
        t_eff = 0.0
    return EssEstimate(
        t_eff=t_eff,
        alpha_hat=fit.alpha,
        prior_weight=prior_weight,
        t_raw=t_raw,
        ratio=t_eff / t_raw if t_raw else float("nan"),
        fit=fit,
        negative=negative,
        exceeds_raw=t_eff > EXCESS_RATIO * t_raw,
    )
