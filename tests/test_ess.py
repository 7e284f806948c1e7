import math

import numpy as np
import pytest
import scipy.stats as ss

from chainuq.benchmark import MixtureChainSpec, generate_chain
from chainuq.chains import count_transitions, index_chain
from chainuq.errors import ConfigError, EmptyChainError
from chainuq.ess import effective_sample_size, iid_posterior
from chainuq.sampling import PriorSpec, draw_posterior


def mixture_t_eff(beta, iterations, seed, n_draws=800):
    spec = MixtureChainSpec((0.85, 0.13, 0.02), beta, iterations, seed)
    counts = count_transitions(generate_chain(spec))
    draws = draw_posterior(counts, n_draws=n_draws, seed=seed + 1)
    return effective_sample_size(draws)


def within_order_statistic_band(estimate, exact, q, n_draws, tail=1e-6):
    """Whether a linear-rule sample quantile is consistent with the exact Beta one.

    ``exact`` is the frozen scipy distribution. The estimate lies between
    order statistics j and j + 1 (1-based, j = floor((R - 1) q) + 1), and
    F(X_(k)) ~ Beta(k, R + 1 - k) for the distribution's CDF F; the check
    is that F(estimate) lies inside the two tails of that binomial band.
    """
    j = math.floor((n_draws - 1) * q) + 1
    low = ss.beta.ppf(tail, j, n_draws + 1 - j)
    high = ss.beta.isf(tail, j + 1, n_draws - j)
    return low <= exact.cdf(estimate) <= high


class TestIidPosterior:
    def test_mean_from_counts(self):
        post = iid_posterior([8, 2], n_draws=4000, seed=1)
        assert np.allclose(post.concentrations, [8, 2])
        assert post.draws.shape == (4000, 2)
        assert np.allclose(post.draws.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        # Beta(8, 3) has SD 0.12; the mean of 4000 draws is within 0.01 of 0.8
        assert np.allclose(post.draws.mean(axis=0), [0.8, 0.2], rtol=0, atol=0.01)

    def test_uniform_case(self):
        post = iid_posterior([1, 1, 1], n_draws=20000, seed=2)
        # Dirichlet(1,1,1) marginals are Beta(1,2): quantiles of 1-(1-q)^(1/2)
        assert 1.0 - math.sqrt(0.5) == pytest.approx(ss.beta(1, 2).ppf(0.5), abs=1e-15)
        for estimate in post.quantile(0.5):
            assert within_order_statistic_band(estimate, ss.beta(1, 2), 0.5, 20000)

    def test_unvisited_model_is_flagged_degenerate(self):
        post = iid_posterior([10, 0])
        assert not post.draws[:, 1].any()
        assert post.sd()[1] == 0.0
        assert post.quantile(0.95)[1] == 0.0

    def test_all_zero_counts_rejected(self):
        with pytest.raises(EmptyChainError):
            iid_posterior([0, 0, 0])

    def test_negative_count_rejected(self):
        with pytest.raises(EmptyChainError, match="nonnegative vector"):
            iid_posterior([-1, 2])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_count_rejected(self, bad):
        with pytest.raises(EmptyChainError, match="nonnegative vector"):
            iid_posterior([bad, 3])

    @pytest.mark.parametrize("visits", [[1e308, 1e308], [5e-324, 3]], ids=["infinite-sum", "subnormal"])
    def test_counts_the_row_kernel_cannot_draw_rejected(self, visits):
        with pytest.raises(EmptyChainError, match="nonnegative vector"):
            iid_posterior(visits)

    @pytest.mark.parametrize("n_draws, seed", [(0, 1), (10, -1)])
    def test_bad_draw_settings_rejected(self, n_draws, seed):
        with pytest.raises(ConfigError, match="n_draws must be >= 1 and seed >= 0"):
            iid_posterior([8, 2], n_draws=n_draws, seed=seed)

    @pytest.mark.parametrize("n_draws", [10**15, 10**19], ids=["petabytes", "past-2**63-bytes"])
    def test_unallocatable_draw_count_is_a_config_error(self, n_draws):
        with pytest.raises(ConfigError, match=r"do not fit in memory \(n_draws\)"):
            iid_posterior([8, 2], n_draws=n_draws)

    def test_sd_matches_beta_marginal(self):
        post = iid_posterior([8, 2], n_draws=20000, seed=3)
        expected = math.sqrt(8 * 2 / (10**2 * 11))
        assert np.allclose(post.sd(), expected, rtol=0.03, atol=0)

    @pytest.mark.parametrize("visits", [(850, 130, 20), (5, 0, 995)])
    def test_draws_match_the_exact_beta_marginals(self, visits):
        n_draws, lo, hi = 20000, 0.05, 0.95
        post = iid_posterior(visits, n_draws=n_draws, seed=4)
        sd, lower, upper = post.sd(), post.quantile(lo), post.quantile(hi)
        for i, n in enumerate(visits):
            if n == 0:  # a point mass at zero, exactly
                assert (sd[i], lower[i], upper[i]) == (0.0, 0.0, 0.0)
                continue
            exact = ss.beta(n, sum(visits) - n)
            assert sd[i] == pytest.approx(exact.std(), rel=0.03)
            assert within_order_statistic_band(lower[i], exact, lo, n_draws)
            assert within_order_statistic_band(upper[i], exact, hi, n_draws)

    def test_fully_visited_single_model(self):
        post = iid_posterior([5])
        assert post.quantile(0.05)[0] == 1.0
        assert post.sd()[0] == 0.0

    def test_single_visited_model_among_several_is_exactly_one(self):
        post = iid_posterior([0, 7, 0], n_draws=50, seed=5)
        assert np.array_equal(post.draws, np.tile([0.0, 1.0, 0.0], (50, 1)))
        assert post.sd().tolist() == [0.0, 0.0, 0.0]
        assert post.quantile(0.05).tolist() == post.quantile(0.95).tolist() == [0.0, 1.0, 0.0]

    def test_same_seed_same_draws(self):
        a, b = (iid_posterior([850, 130, 20], n_draws=100, seed=9) for _ in range(2))
        assert np.array_equal(a.draws, b.draws)
        assert not np.array_equal(a.draws, iid_posterior([850, 130, 20], 100, seed=10).draws)


class TestEffectiveSampleSize:
    def test_independent_chain_t_eff_near_t(self):
        estimates = [mixture_t_eff(0.0, 100, seed) for seed in range(11)]
        med = np.nanmedian([e.t_eff for e in estimates])
        assert 80 <= med <= 110  # the sticky counterpart below lands near 8

    def test_sticky_chain_t_eff_collapses(self):
        estimates = [mixture_t_eff(0.8, 100, seed) for seed in range(11)]
        med = np.nanmedian([e.t_eff for e in estimates])
        assert 4 <= med <= 20

    def test_prior_weight_uses_sampled_epsilon(self):
        est = mixture_t_eff(0.0, 200, seed=3)
        n_models = est.alpha_hat.size
        assert est.prior_weight == pytest.approx(n_models**2 * (1.0 / n_models))
        assert est.t_raw == 200
        assert est.ratio == pytest.approx(est.t_eff / 200)

    def test_label_invariance_is_exact(self):
        raw = generate_chain(MixtureChainSpec((0.6, 0.3, 0.1), 0.4, 400, 12))
        relabeled = index_chain(
            [{1: "zebra", 2: "ant", 3: "moth"}[lab] for lab in
             (raw.labels[i] for i in raw.indices)]
        )
        d1 = draw_posterior(count_transitions(raw), n_draws=500, seed=77)
        d2 = draw_posterior(count_transitions(relabeled), n_draws=500, seed=77)
        assert np.array_equal(d1.draws, d2.draws)
        e1 = effective_sample_size(d1)
        e2 = effective_sample_size(d2)
        assert e1.t_eff == e2.t_eff

    def test_negative_subtraction_reports_zero_with_flag(self):
        # a heavy sticky prior fights two observed switches: the diagonal
        # weights (mass 101) barely pin the stationary vector, so the fitted
        # shape total (about 3) stays far below the prior mass. A uniform
        # prior would not do: under fixed(50) the fitted total sits near
        # the prior mass of 200 and the sign of the difference is chance.
        counts = count_transitions(index_chain(["A", "B", "A"]))
        prior = PriorSpec.from_matrix([[50.0, 0.5], [0.5, 50.0]])
        draws = draw_posterior(counts, prior, n_draws=800, seed=4)
        est = effective_sample_size(draws)
        assert est.negative
        assert est.t_eff == 0.0

    def test_alternating_chain_exceeds_iteration_count(self):
        # perfectly antithetic switching pins the stationary vector much
        # harder than independent sampling would
        chain = index_chain(["A", "B"] * 50)
        draws = draw_posterior(count_transitions(chain), n_draws=800, seed=4)
        est = effective_sample_size(draws)
        assert est.t_eff > 1.5 * est.t_raw
        assert est.exceeds_raw

    def test_single_model_chain_flagged(self):
        draws = draw_posterior(count_transitions(index_chain([7, 7, 7, 7])), n_draws=20, seed=0)
        est = effective_sample_size(draws)
        assert est.single_model
        assert math.isnan(est.t_eff)
        assert est.converged
