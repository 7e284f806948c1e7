import math

import numpy as np
import pytest
import scipy.stats as ss
from hypothesis import given
from hypothesis import strategies as st

from chainuq.errors import LabelError
from chainuq.summaries import (
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

    def test_single_draw_flags_insufficient(self, make_draws):
        summary = summarize(make_draws([[0.6, 0.4]]))
        assert summary.insufficient_draws
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
