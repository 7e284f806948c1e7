"""Decision-ready summaries of stationary-distribution draws.

Everything here is computed from the posterior draws alone. In particular,
probabilities for subsets of models are obtained by summing draws, never by
refitting on a chain with merged states: collapsing states of a Markov
chain does not generally yield a Markov chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LabelError
from .sampling import PosteriorDraws

DEFAULT_LEVELS = (0.05, 0.95)


def _check_levels(levels):
    """The quantile levels as floats ``(lo, hi)``; ConfigError unless 0 < lo < hi < 1."""
    if len(levels) != 2 or not 0.0 < float(levels[0]) < float(levels[1]) < 1.0:
        raise ConfigError(
            f"quantile levels must be two numbers with 0 < lo < hi < 1 (--ci), got {tuple(levels)}"
        )
    return float(levels[0]), float(levels[1])


def _sample_stats(samples: np.ndarray, lo: float, hi: float) -> dict:
    """Mean, SD (divisor n - 1), median and bounds along axis 0; NaN where undefined.

    An ``(R,)`` sample gives floats, an ``(R, I)`` one arrays of length I.
    Each column is scaled by an exact power of two (the exponent of its max
    |x|) before the mean and SD, so neither the sum nor the squares can
    overflow, and a column of values near 1e-170 keeps its SD. The scaling
    is exact: away from overflow and subnormals the results equal the
    unscaled ones bit for bit. The SD reuses the mean, as numpy's ``std`` does.
    The quantiles come from one sort of an ``(I, R)`` copy by numpy's
    ``linear`` rule: at v = (n - 1) q, between order statistics a and b,
    a + (b - a) g with g = v - floor(v), or b - (b - a)(1 - g) if g >= 0.5.
    Each column's max |x| is the larger of its sorted row's last entry and
    its negated first, NaN if any entry is NaN, as ``np.abs(samples).max(axis=0)`` gives it.
    """
    stats = dict.fromkeys(("mean", "sd", "median", "lower", "upper"),
                          np.full(samples.shape[1:], np.nan))
    n = len(samples)
    if n:
        ordered = samples.T.copy()
        ordered.sort()
        ordered[np.isnan(ordered[..., -1])] = np.nan  # a sort puts NaN last
        e = np.frexp(np.maximum(-ordered[..., 0], ordered[..., -1]))[1]
        scaled = np.ldexp(samples, -e)
        mean = scaled.sum(axis=0) / n
        stats["mean"] = np.ldexp(mean, e)
        if n > 1:
            scaled -= mean  # the deviations, squared in place
            scaled *= scaled
            stats["sd"] = np.ldexp(np.sqrt(scaled.sum(axis=0) / (n - 1)), e)
        for key, q in (("lower", lo), ("median", 0.5), ("upper", hi)):
            g, below = math.modf((n - 1) * q)
            a, b = ordered[..., int(below)], ordered[..., min(int(below) + 1, n - 1)]
            stats[key] = b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g
    return stats if samples.ndim > 1 else {k: float(v) for k, v in stats.items()}


@dataclass(frozen=True, eq=False)
class _IntervalSummary:
    """`_sample_stats` of a sample and its levels: floats for one quantity, arrays per model."""

    mean: np.ndarray | float
    sd: np.ndarray | float
    median: np.ndarray | float
    lower: np.ndarray | float
    upper: np.ndarray | float
    levels: tuple


@dataclass(frozen=True, eq=False)
class UncertaintySummary(_IntervalSummary):
    """Componentwise uncertainty report for the posterior model probabilities."""

    labels: tuple
    n_draws: int


def summarize(draws: PosteriorDraws, levels=DEFAULT_LEVELS) -> UncertaintySummary:
    """Mean, SD, median and credibility bounds per model.

    SDs use the unbiased divisor (R - 1); quantiles interpolate linearly
    between order statistics. With a single draw the SDs are NaN.
    """
    lo, hi = _check_levels(levels)
    return UncertaintySummary(
        labels=draws.labels,
        levels=(lo, hi),
        n_draws=draws.n_draws,
        **_sample_stats(draws.draws, lo, hi),
    )


@dataclass(frozen=True, eq=False)
class BayesFactorSummary(_IntervalSummary):
    """Posterior summary of one evidence ratio between two models.

    ``samples`` holds the finite per-draw ratios; ``n_zero_denominator``
    counts the excluded draws, whose denominator is zero or so small that the
    ratio overflows, and marks the pair unstable. Ratios of infrequently
    sampled models are unreliable either way; a dedicated two-model rerun of
    the sampler is the robust remedy.
    """

    numerator: object
    denominator: object
    samples: np.ndarray
    n_zero_denominator: int

    @property
    def unstable(self) -> bool:
        return self.n_zero_denominator > 0


def _model_indices(counts, labels) -> list:
    """Each label's model index in ``counts``; LabelError for the first label it lacks."""
    for lab in labels:
        if lab not in counts.label_to_index:
            raise LabelError(f"unknown model label {lab!r}")
    return [counts.label_to_index[lab] for lab in labels]


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
    A pair that names one model twice raises LabelError.
    """
    lo, hi = _check_levels(levels)
    results = []
    for lab_i, lab_j in pairs:
        _reject_repeats((lab_i, lab_j), "Bayes-factor pair")
        i, j = _model_indices(draws.source, (lab_i, lab_j))
        factor = 1.0
        if prior_model_probs is not None:
            factor = _prior_prob(prior_model_probs, lab_j) / _prior_prob(prior_model_probs, lab_i)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ratios = factor * draws.draws[:, i] / draws.draws[:, j]
        finite = np.isfinite(ratios)
        ratios = ratios[finite]
        results.append(
            BayesFactorSummary(
                numerator=lab_i,
                denominator=lab_j,
                samples=ratios,
                levels=(lo, hi),
                n_zero_denominator=int(finite.size - ratios.size),
                **_sample_stats(ratios, lo, hi),
            )
        )
    return results


def _prior_prob(prior_model_probs: dict, lab) -> float:
    """Prior probability of ``lab``: LabelError if absent, ConfigError unless positive and finite."""
    try:
        prob = float(prior_model_probs[lab])
    except KeyError:
        raise LabelError(f"no prior model probability for {lab!r}") from None
    if not 0.0 < prob < np.inf:
        raise ConfigError(f"prior probability of {lab!r} must be finite and > 0, got {prob}")
    return prob


@dataclass(frozen=True, eq=False)
class SubsetSummary(_IntervalSummary):
    """Posterior summary of the total probability of a set of models."""

    labels: tuple
    samples: np.ndarray


def _reject_repeats(labels, what: str) -> None:
    seen = set()
    for lab in labels:
        if lab in seen:
            raise LabelError(f"{what} names {lab!r} more than once")
        seen.add(lab)


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
    totals = draws.draws[:, _model_indices(draws.source, subset)].sum(axis=1)
    return SubsetSummary(
        labels=subset, samples=totals, levels=(lo, hi), **_sample_stats(totals, lo, hi)
    )


@dataclass(frozen=True, eq=False)
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


def _order_and_ranks(values: np.ndarray) -> tuple:
    """Descending order and ranks (1 = largest) along the last axis; ties go to the lower index."""
    order = np.argsort(-values, axis=-1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(1, values.shape[-1] + 1), axis=-1)
    return order, ranks


def rank_stability(draws: PosteriorDraws, k_top: int = 10) -> RankReport:
    """Distribution of model ranks across draws, plus top-k stability."""
    n_models = draws.n_models
    if not 1 <= k_top <= n_models:
        raise ConfigError(f"k_top must be in [1, {n_models}], got {k_top}")
    x = draws.draws
    order, ranks = _order_and_ranks(x)
    point_order, point_rank = _order_and_ranks(x.mean(axis=0))

    # cell (i, k) counts the draws that give model i rank k + 1
    cells = np.arange(n_models) * n_models + ranks - 1
    dist = np.bincount(cells.ravel(), minlength=n_models**2).reshape(n_models, n_models) / len(x)
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
