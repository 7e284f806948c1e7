import dataclasses
import math
import statistics

import numpy as np
import pytest
import scipy.stats as ss
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chainuq.chains import count_transitions, index_chain
from chainuq.errors import ConfigError, LabelError
from chainuq.sampling import PriorSpec, draw_posterior
from chainuq.summaries import (
    _reject_repeats,
    _sample_stats,
    bayes_factors,
    rank_stability,
    subset_probability,
    summarize,
)


class TestSummarize:
    def test_constant_draws_have_zero_sd(self, make_draws):
        summary = summarize(make_draws(np.tile([0.7, 0.3], (20, 1))))
        assert np.allclose(summary.sd, 0.0)
        assert np.allclose(summary.mean, [0.7, 0.3])

    def test_two_point_sample_sd_uses_unbiased_divisor(self, make_draws):
        summary = summarize(make_draws([[1.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(summary.sd, math.sqrt(0.5), atol=1e-12)

    def test_sd_matches_dirichlet_variance_formula(self, make_draws):
        rng = np.random.default_rng(42)
        draws = make_draws(rng.dirichlet([8.0, 2.0], size=100_000))
        summary = summarize(draws)
        analytic = math.sqrt(8 * 2 / (10**2 * 11))
        assert abs(summary.sd[0] - analytic) <= 0.005

    def test_quantiles_match_beta_marginals(self, make_draws):
        rng = np.random.default_rng(3)
        draws = make_draws(rng.dirichlet([8.0, 2.0], size=100_000))
        summary = summarize(draws, levels=(0.05, 0.95))
        assert abs(summary.lower[0] - ss.beta.ppf(0.05, 8, 2)) <= 0.01
        assert abs(summary.upper[0] - ss.beta.ppf(0.95, 8, 2)) <= 0.01

    def test_sd_of_values_near_1e_170(self, make_draws):
        # their squared deviations underflow to zero unless the column is scaled
        column = [1e-170, 2e-170, 4e-170]
        summary = summarize(make_draws([[v, 1.0 - v] for v in column]))
        assert summary.sd[0] == statistics.stdev(column)
        assert summary.mean[0] == statistics.mean(column)

    def test_single_draw_flags_insufficient(self, make_draws):
        summary = summarize(make_draws([[0.6, 0.4]]))
        assert summary.n_draws == 1
        assert np.all(np.isnan(summary.sd))
        assert np.allclose(summary.mean, [0.6, 0.4])

    def test_bad_levels_rejected(self, make_draws):
        draws = make_draws([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            summarize(draws, levels=(0.95, 0.05))


class TestBayesFactors:
    def test_constant_ratio(self, make_draws):
        draws = make_draws(np.tile([0.8, 0.2], (50, 1)))
        (bf,) = bayes_factors(draws, [(1, 2)])
        assert bf.mean == pytest.approx(4.0)
        assert bf.sd == pytest.approx(0.0)
        assert not bf.unstable

    def test_equal_odds(self, make_draws):
        draws = make_draws(np.tile([0.5, 0.5], (50, 1)))
        (bf,) = bayes_factors(draws, [(1, 2)])
        assert bf.mean == pytest.approx(1.0)

    def test_sd_matches_direct_recomputation(self, make_draws):
        rng = np.random.default_rng(11)
        raw = rng.dirichlet([6.0, 3.0, 1.0], size=20_000)
        draws = make_draws(raw)
        (bf,) = bayes_factors(draws, [(1, 2)])
        ratios = raw[:, 0] / raw[:, 1]
        manual_sd = math.sqrt(((ratios - ratios.mean()) ** 2).sum() / (ratios.size - 1))
        assert abs(bf.sd - manual_sd) / manual_sd <= 0.02

    @pytest.mark.parametrize(
        "seed, n_draws",
        [pytest.param(seed, 200, id=str(seed)) for seed in (1, 2, 3, 4, 5)]
        + [pytest.param(1, 2000, id="1-2000draws")],
    )
    def test_sd_of_ratios_near_float_max(self, seed, n_draws):
        # a denominator drawn near zero gives ratios above 1e200, whose
        # squared deviations overflow; at seeds 1 and 4 a subnormal one gives
        # a ratio that overflows, and at 2000 draws the plain sum overflows.
        # statistics works in exact fractions
        counts = count_transitions(index_chain(["B"] + ["A"] * 20))
        draws = draw_posterior(counts, PriorSpec.fixed(0.005), n_draws=n_draws, seed=seed)
        (bf,) = bayes_factors(draws, [("A", "B")])
        assert bf.samples.max() > 1e200
        assert np.isfinite(bf.samples).all()
        assert bf.mean == pytest.approx(statistics.mean(bf.samples.tolist()), rel=1e-12)
        assert bf.sd == pytest.approx(statistics.stdev(bf.samples.tolist()), rel=1e-12)

    def test_zero_denominators_flagged_and_excluded(self, make_draws):
        draws = make_draws([[1.0, 0.0], [0.5, 0.5], [0.75, 0.25]])
        (bf,) = bayes_factors(draws, [(1, 2)])
        assert bf.unstable
        assert bf.n_zero_denominator == 1
        assert bf.samples.size == 2

    def test_nonuniform_prior_model_probs(self, make_draws):
        draws = make_draws(np.tile([0.8, 0.2], (10, 1)))
        (bf,) = bayes_factors(draws, [(1, 2)], prior_model_probs={1: 0.8, 2: 0.2})
        # posterior odds 4 against prior odds 4 leaves an evidence ratio of 1
        assert bf.mean == pytest.approx(1.0)

    def test_unknown_label_rejected(self, make_draws):
        draws = make_draws(np.tile([0.5, 0.5], (5, 1)))
        with pytest.raises(LabelError):
            bayes_factors(draws, [(1, 99)])

    def test_pair_naming_one_model_twice_rejected(self, make_draws):
        draws = make_draws(np.tile([0.5, 0.5], (5, 1)))
        with pytest.raises(LabelError, match="Bayes-factor pair names 1 more than once"):
            bayes_factors(draws, [(1, 2), (1, 1)])

    def test_prior_model_probs_without_the_denominator_rejected(self, make_draws):
        draws = make_draws(np.tile([0.8, 0.2], (10, 1)))
        with pytest.raises(LabelError, match="no prior model probability for 2"):
            bayes_factors(draws, [(1, 2)], prior_model_probs={1: 0.8})

    @pytest.mark.parametrize("prob", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("label", ["A", "B"])
    def test_prior_model_prob_must_be_positive_and_finite(self, prob, label):
        draws = draw_posterior(count_transitions(index_chain(list("ABABBA"))), n_draws=20, seed=1)
        probs = {"A": 0.5, "B": 0.5, label: prob}
        with pytest.raises(ConfigError, match=f"'{label}'"):
            bayes_factors(draws, [("A", "B")], prior_model_probs=probs)


class TestSubsetProbability:
    def test_full_simplex_is_constant_one(self, make_draws):
        rng = np.random.default_rng(0)
        draws = make_draws(rng.dirichlet([2.0, 3.0, 4.0], size=500))
        res = subset_probability(draws, (1, 2, 3))
        assert res.mean == pytest.approx(1.0)
        assert res.sd <= 1e-14

    def test_subset_of_constant_draws(self, make_draws):
        draws = make_draws(np.tile([0.5, 0.3, 0.2], (10, 1)))
        res = subset_probability(draws, (1, 2))
        assert res.mean == pytest.approx(0.8)

    def test_complementary_subsets_partition_unity(self, make_draws):
        rng = np.random.default_rng(1)
        draws = make_draws(rng.dirichlet([1.0, 2.0, 3.0], size=200))
        left = subset_probability(draws, (1,))
        right = subset_probability(draws, (2, 3))
        assert np.allclose(left.samples + right.samples, 1.0, atol=1e-12)

    def test_unknown_label_rejected(self, make_draws):
        draws = make_draws(np.tile([0.5, 0.5], (5, 1)))
        with pytest.raises(LabelError):
            subset_probability(draws, ("nope",))

    def test_empty_subset_rejected(self, make_draws):
        draws = make_draws(np.tile([0.5, 0.5], (5, 1)))
        with pytest.raises(LabelError):
            subset_probability(draws, ())

    def test_repeated_label_rejected(self, make_draws):
        draws = make_draws(np.tile([0.5, 0.5], (5, 1)))
        with pytest.raises(LabelError, match="more than once"):
            subset_probability(draws, (1, 1))


def test_summaries_derive_from_one_interval_record(make_draws):
    from chainuq.summaries import _IntervalSummary

    draws = make_draws(np.tile([0.5, 0.3, 0.2], (10, 1)))
    results = [summarize(draws), *bayes_factors(draws, [(1, 2)]), subset_probability(draws, (1, 2))]
    assert [f.name for f in dataclasses.fields(_IntervalSummary)] == [
        "mean", "sd", "median", "lower", "upper", "levels"
    ]
    for result in results:
        assert isinstance(result, _IntervalSummary)
        assert result.levels == (0.05, 0.95)


def test_reject_repeats_compares_each_label_in_one_pass():
    calls = []

    class Label:
        def __init__(self, value):
            self.value = value

        def __hash__(self):
            return hash(self.value)

        def __eq__(self, other):
            calls.append(1)
            return self.value == other.value

    _reject_repeats([Label(i) for i in range(2000)], "declared model list")
    assert len(calls) < 2000  # a rescan of the labels before each one makes about 2 million


class TestRankStability:
    def test_constant_draws_give_certain_ranks(self, make_draws):
        draws = make_draws(np.tile([0.5, 0.3, 0.2], (40, 1)))
        report = rank_stability(draws, k_top=3)
        assert report.point_rank.tolist() == [1, 2, 3]
        assert np.allclose(report.p_rank_equals_point, 1.0)
        assert report.p_top_order_reproduced == pytest.approx(1.0)
        assert np.allclose(report.sd_rank, 0.0)

    def test_ties_break_to_lower_internal_index(self, make_draws):
        draws = make_draws(np.tile([0.4, 0.4, 0.2], (10, 1)))
        report = rank_stability(draws, k_top=2)
        assert report.point_rank.tolist() == [1, 2, 3]
        assert np.allclose(report.mean_rank, [1.0, 2.0, 3.0])

    def test_within_top_dominates_exact_rank(self, make_draws):
        rng = np.random.default_rng(5)
        draws = make_draws(rng.dirichlet([4.0, 3.0, 2.0, 1.0], size=500))
        report = rank_stability(draws, k_top=2)
        top_model = int(np.argmax(draws.draws.mean(axis=0)))
        assert (
            report.p_rank_within_top[top_model]
            >= report.p_rank_equals_point[top_model]
        )

    def test_rank_one_probabilities_sum_to_one(self, make_draws):
        rng = np.random.default_rng(9)
        draws = make_draws(rng.dirichlet([2.0, 2.0, 2.0], size=400))
        report = rank_stability(draws, k_top=3)
        assert report.rank_distribution[:, 0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_rank_distribution_rows_sum_to_one(self, make_draws):
        rng = np.random.default_rng(13)
        draws = make_draws(rng.dirichlet([5.0, 1.0, 1.0, 3.0], size=300))
        report = rank_stability(draws, k_top=4)
        assert np.allclose(report.rank_distribution.sum(axis=1), 1.0, atol=1e-12)

    def test_rank_distribution_matches_a_plain_loop(self, make_draws):
        rng = np.random.default_rng(8)
        x = rng.dirichlet(np.full(5, 0.7), size=300)
        x[:40] = x[0]  # a block of repeated draws
        x[40:60, 1] = x[40:60, 3]  # ties, broken toward the lower index
        n_draws, n = x.shape
        plain = np.zeros((n, n))
        for row in x.tolist():
            for rank, i in enumerate(sorted(range(n), key=lambda i: (-row[i], i))):
                plain[i, rank] += 1
        dist = rank_stability(make_draws(x), k_top=2).rank_distribution
        assert np.array_equal(dist, plain / n_draws)
        assert np.allclose(dist.sum(axis=0), 1.0) and np.allclose(dist.sum(axis=1), 1.0)

    def test_k_top_out_of_range_rejected(self, make_draws):
        draws = make_draws(np.tile([0.5, 0.5], (5, 1)))
        with pytest.raises(ValueError):
            rank_stability(draws, k_top=3)


@given(st.integers(0, 2**31 - 1), st.integers(2, 6))
def test_mean_vector_stays_on_simplex(seed, dim):
    from conftest import build_draws

    rng = np.random.default_rng(seed)
    draws = build_draws(rng.dirichlet(np.ones(dim), size=64))
    summary = summarize(draws)
    assert abs(summary.mean.sum() - 1.0) <= 1e-10
    assert np.all(summary.lower <= summary.upper)
    assert np.all(summary.sd >= 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda d: summarize(d, levels=(0.95, 0.05)),
        lambda d: summarize(d, levels=(0.05, 0.5, 0.95)),
        lambda d: bayes_factors(d, [(1, 2)], levels=(0.0, 0.5)),
        lambda d: subset_probability(d, [1], levels=(0.5, 1.0)),
        lambda d: rank_stability(d, k_top=3),
        lambda d: rank_stability(d, k_top=0),
    ],
    ids=["levels-order", "levels-count", "bf-levels", "subset-levels", "k_top-high", "k_top-zero"],
)
def test_bad_settings_raise_config_error(make_draws, call):
    with pytest.raises(ConfigError):
        call(make_draws(np.tile([0.5, 0.5], (5, 1))))


def sample_stats_with_numpy(samples, lo, hi):
    """The np.quantile/mean/std kernel that ``_sample_stats`` replaced: its bit-for-bit reference."""
    stats = dict.fromkeys(("mean", "sd", "median", "lower", "upper"),
                          np.full(samples.shape[1:], np.nan))
    if len(samples):
        e = np.frexp(np.abs(samples).max(axis=0))[1]
        scaled = np.ldexp(samples, -e)
        qs = np.quantile(samples, [lo, 0.5, hi], axis=0, method="linear")
        stats.update(mean=np.ldexp(scaled.mean(axis=0), e), median=qs[1], lower=qs[0], upper=qs[2])
        if len(samples) > 1:
            stats["sd"] = np.ldexp(scaled.std(axis=0, ddof=1), e)
    return stats if samples.ndim > 1 else {k: float(v) for k, v in stats.items()}


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 60),
    st.integers(0, 3000),
    st.booleans(),
    st.sampled_from([1.0, 1e-170, 1e292]),
    st.sampled_from(["continuous", "repeated", "one NaN"]),
    st.lists(st.floats(1e-9, 1 - 1e-9), min_size=2, max_size=2, unique=True).map(sorted),
)
def test_sample_stats_match_numpy_bit_for_bit(seed, n_models, n_draws, one_d, scale, kind, levels):
    rng = np.random.default_rng(seed)
    if kind == "repeated":
        samples = scale * rng.integers(0, 4, (n_draws, n_models)) / 3
    else:
        samples = scale * rng.lognormal(0.0, 3.0, (n_draws, n_models))
        if kind == "one NaN" and n_draws:
            samples[rng.integers(n_draws), rng.integers(n_models)] = np.nan
    if one_d:
        samples = samples[:, 0]
    ours, reference = _sample_stats(samples, *levels), sample_stats_with_numpy(samples, *levels)
    assert ours.keys() == reference.keys()
    for key in ours:
        assert type(ours[key]) is type(reference[key])
        assert np.array_equal(ours[key], reference[key], equal_nan=True), key


# entries where a column's extrema are easy to get wrong: NaN, signed zeros, subnormals
AWKWARD = st.one_of(
    st.sampled_from([math.nan, 0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-308]),
    st.floats(-1e6, 1e6),
)


@st.composite
def awkward_samples(draw):
    """(R, I*) arrays of awkward entries, I* from 1 to 60, some columns all NaN."""
    n_draws, n_models = draw(st.integers(1, 40)), draw(st.integers(1, 60))
    samples = draw(arrays(np.float64, (n_draws, n_models), elements=AWKWARD))
    samples[:, draw(st.lists(st.integers(0, n_models - 1), max_size=3))] = math.nan
    return samples


@given(awkward_samples(), st.booleans())
def test_sample_stats_scale_from_the_sorted_ends_as_from_abs_max(samples, one_d):
    # the reference takes each column's scale from np.abs(samples).max(axis=0)
    samples = samples[:, 0] if one_d else samples
    ours, reference = _sample_stats(samples, 0.05, 0.95), sample_stats_with_numpy(samples, 0.05, 0.95)
    for key in ours:
        assert np.array_equal(ours[key], reference[key], equal_nan=True), key
