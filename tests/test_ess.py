import math

import numpy as np
import pytest

from chainuq.benchmark import MixtureChainSpec, generate_chain
from chainuq.chains import count_transitions, index_chain
from chainuq.errors import EmptyChainError
from chainuq.ess import effective_sample_size, iid_posterior
from chainuq.sampling import PriorSpec, draw_posterior


def mixture_t_eff(beta, iterations, seed, n_draws=800):
    spec = MixtureChainSpec((0.85, 0.13, 0.02), beta, iterations, seed)
    counts = count_transitions(generate_chain(spec))
    draws = draw_posterior(counts, n_draws=n_draws, seed=seed + 1)
    return effective_sample_size(draws)


class TestIidPosterior:
    def test_mean_from_counts(self):
        post = iid_posterior([8, 2])
        assert np.allclose(post.concentrations / post.total, [0.8, 0.2])
        assert np.allclose(post.concentrations, [8, 2])

    def test_uniform_case(self):
        post = iid_posterior([1, 1, 1])
        assert np.allclose(post.concentrations / post.total, [1 / 3, 1 / 3, 1 / 3])
        # Dirichlet(1,1,1) marginals are Beta(1,2): quantiles of 1-(1-q)^(1/2)
        assert np.allclose(post.quantile(0.5), 1.0 - math.sqrt(0.5), atol=1e-12)

    def test_unvisited_model_is_flagged_degenerate(self):
        post = iid_posterior([10, 0])
        assert post.sd()[1] == 0.0
        assert post.quantile(0.95)[1] == 0.0

    def test_all_zero_counts_rejected(self):
        with pytest.raises(EmptyChainError):
            iid_posterior([0, 0, 0])

    def test_negative_count_rejected(self):
        with pytest.raises(EmptyChainError, match="nonnegative vector"):
            iid_posterior([-1, 2])

    def test_sd_matches_beta_marginal(self):
        post = iid_posterior([8, 2])
        expected = math.sqrt(8 * 2 / (10**2 * 11))
        assert abs(post.sd()[0] - expected) <= 1e-14

    def test_fully_visited_single_model(self):
        post = iid_posterior([5])
        assert post.quantile(0.05)[0] == 1.0
        assert post.sd()[0] == 0.0


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
