"""Decision-ready summaries of stationary-distribution draws.

Everything here is computed from the posterior draws alone. In particular,
probabilities for subsets of models are obtained by summing draws, never by
refitting on a chain with merged states: collapsing states of a Markov
chain does not generally yield a Markov chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LabelError
from .sampling import PosteriorDraws

DEFAULT_LEVELS = (0.05, 0.95)


def _check_levels(levels):
    lo, hi = float(levels[0]), float(levels[1])
    if not (0.0 < lo < hi < 1.0):
        raise ValueError(f"quantile levels must satisfy 0 < lo < hi < 1, got {levels}")
    return lo, hi


def _sample_stats(samples: np.ndarray, lo: float, hi: float) -> dict:
    """Mean, SD (divisor n - 1), median and bounds of a 1-D sample; NaN where undefined."""
    if not samples.size:
        return dict.fromkeys(("mean", "sd", "median", "lower", "upper"), float("nan"))
    qs = np.quantile(samples, [lo, 0.5, hi], method="linear")
    sd = float(samples.std(ddof=1)) if samples.size > 1 else float("nan")
    return {"mean": float(samples.mean()), "sd": sd, "median": float(qs[1]),
            "lower": float(qs[0]), "upper": float(qs[2])}


@dataclass(frozen=True)
class UncertaintySummary:
    """Componentwise uncertainty report for the posterior model probabilities."""

    labels: tuple
    mean: np.ndarray
    sd: np.ndarray
    median: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    levels: tuple
    n_draws: int
    insufficient_draws: bool = False


def summarize(draws: PosteriorDraws, levels=DEFAULT_LEVELS) -> UncertaintySummary:
    """Mean, SD, median and credibility bounds per model.

    SDs use the unbiased divisor (R - 1); quantiles interpolate linearly
    between order statistics. With a single draw the SDs are NaN and the
    summary is flagged.
    """
    lo, hi = _check_levels(levels)
    x = draws.draws
    n = draws.n_draws
    insufficient = n < 2
    sd = np.full(x.shape[1], np.nan) if insufficient else x.std(axis=0, ddof=1)
    qs = np.quantile(x, [lo, 0.5, hi], axis=0, method="linear")
    return UncertaintySummary(
        labels=draws.labels,
        mean=x.mean(axis=0),
        sd=sd,
        median=qs[1],
        lower=qs[0],
        upper=qs[2],
        levels=(lo, hi),
        n_draws=n,
        insufficient_draws=insufficient,
    )


@dataclass(frozen=True)
class BayesFactorSummary:
    """Posterior summary of one evidence ratio between two models.

    ``samples`` holds the per-draw ratios for the draws with a nonzero
    denominator; ``n_zero_denominator`` counts the excluded draws and marks
    the pair unstable. Ratios of infrequently sampled models are unreliable
    either way; a dedicated two-model rerun of the sampler is the robust
    remedy.
    """

    numerator: object
    denominator: object
    samples: np.ndarray
    mean: float
    sd: float
    median: float
    lower: float
    upper: float
    levels: tuple
    odds_factor: float
    n_zero_denominator: int

    @property
    def unstable(self) -> bool:
        return self.n_zero_denominator > 0


def bayes_factors(
    draws: PosteriorDraws,
    pairs,
    prior_model_probs: dict | None = None,
    levels=DEFAULT_LEVELS,
) -> list[BayesFactorSummary]:
    """Evidence ratios between model pairs, one summary per requested pair.

    With uniform prior model probabilities the ratio of posterior
    probabilities is the evidence ratio itself; otherwise each draw is
    multiplied by the prior odds of the denominator over the numerator.
    """
    lo, hi = _check_levels(levels)
    index = draws.label_to_index
    results = []
    for pair in pairs:
        lab_i, lab_j = pair
        for lab in (lab_i, lab_j):
            if lab not in index:
                raise LabelError(f"unknown model label {lab!r}")
        factor = 1.0
        if prior_model_probs is not None:
            try:
                factor = float(prior_model_probs[lab_j]) / float(prior_model_probs[lab_i])
            except KeyError as exc:
                raise LabelError(f"no prior model probability for {exc.args[0]!r}") from None
        num = draws.draws[:, index[lab_i]]
        den = draws.draws[:, index[lab_j]]
        ok = den > 0
        n_zero = int(np.sum(~ok))
        ratios = factor * num[ok] / den[ok]
        results.append(
            BayesFactorSummary(
                numerator=lab_i,
                denominator=lab_j,
                samples=ratios,
                levels=(lo, hi),
                odds_factor=factor,
                n_zero_denominator=n_zero,
                **_sample_stats(ratios, lo, hi),
            )
        )
    return results


@dataclass(frozen=True)
class SubsetSummary:
    """Posterior summary of the total probability of a set of models."""

    labels: tuple
    samples: np.ndarray
    mean: float
    sd: float
    median: float
    lower: float
    upper: float
    levels: tuple


def _reject_repeats(labels, what: str) -> None:
    for i, lab in enumerate(labels):
        if lab in labels[:i]:
            raise LabelError(f"{what} names model {lab!r} more than once")


def subset_probability(draws: PosteriorDraws, subset, levels=DEFAULT_LEVELS) -> SubsetSummary:
    """Summary of the summed posterior probability of ``subset``.

    Computed by summing each draw over the subset's components. Refitting a
    Markov model on a chain with the subset lumped into one state would be
    invalid; no such path exists here.

    Raises
    ------
    LabelError
        For an empty subset, an unknown label or a repeated label.
    """
    lo, hi = _check_levels(levels)
    subset = tuple(subset)
    if not subset:
        raise LabelError("subset must name at least one model")
    _reject_repeats(subset, "subset")
    index = draws.label_to_index
    cols = []
    for lab in subset:
        if lab not in index:
            raise LabelError(f"unknown model label {lab!r}")
        cols.append(index[lab])
    totals = draws.draws[:, cols].sum(axis=1)
    return SubsetSummary(
        labels=subset, samples=totals, levels=(lo, hi), **_sample_stats(totals, lo, hi)
    )


@dataclass(frozen=True)
class RankReport:
    """Stability of model ranks across the posterior draws.

    Ranks are assigned per draw by descending probability, ties broken
    toward the earlier internal index (a label-independent rule).

    Attributes
    ----------
    rank_distribution : ndarray, shape (I, I)
        Row i holds P(model i has rank k+1) over draws.
    point_rank : ndarray of int
        Rank of each model under the posterior-mean point estimate.
    p_rank_equals_point : ndarray
        Per model, probability its sampled rank equals its point rank.
    p_rank_within_top : ndarray
        Per model, probability its sampled rank is <= k_top.
    p_top_order_reproduced : float
        Probability a draw reproduces the point estimate's full top-k_top
        ordering.
    """

    labels: tuple
    mean_rank: np.ndarray
    sd_rank: np.ndarray
    point_rank: np.ndarray
    p_rank_equals_point: np.ndarray
    p_rank_within_top: np.ndarray
    k_top: int
    p_top_order_reproduced: float
    rank_distribution: np.ndarray


def _rank_matrix(values: np.ndarray) -> np.ndarray:
    """Ranks (1 = largest) per row; ties go to the lower column index."""
    order = np.argsort(-values, axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(1, values.shape[1] + 1), axis=1)
    return ranks


def rank_stability(draws: PosteriorDraws, k_top: int = 10) -> RankReport:
    """Distribution of model ranks across draws, plus top-k stability."""
    n_models = draws.n_models
    if not 1 <= k_top <= n_models:
        raise ValueError(f"k_top must be in [1, {n_models}], got {k_top}")
    x = draws.draws
    ranks = _rank_matrix(x)
    point = x.mean(axis=0)[np.newaxis, :]
    point_rank = _rank_matrix(point)[0]
    point_order = np.argsort(-point[0], kind="stable")

    dist = np.empty((n_models, n_models))
    for k in range(n_models):
        dist[:, k] = np.mean(ranks == k + 1, axis=0)
    order = np.argsort(-x, axis=1, kind="stable")
    top_match = np.all(order[:, :k_top] == point_order[:k_top], axis=1)
    return RankReport(
        labels=draws.labels,
        mean_rank=ranks.mean(axis=0),
        sd_rank=ranks.std(axis=0, ddof=1) if x.shape[0] > 1 else np.full(n_models, np.nan),
        point_rank=point_rank,
        p_rank_equals_point=dist[np.arange(n_models), point_rank - 1],
        p_rank_within_top=dist[:, :k_top].sum(axis=1),
        k_top=int(k_top),
        p_top_order_reproduced=float(top_match.mean()),
        rank_distribution=dist,
    )
