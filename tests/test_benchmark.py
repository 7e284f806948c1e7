import numpy as np
import pytest
import scipy.stats as ss

from chainuq.benchmark import (
    MixtureChainSpec,
    generate_chain,
    run_coverage_experiment,
)
from chainuq.chains import index_chain

PI = (0.85, 0.13, 0.02)


def loop_chain(spec):
    """Step-by-step copy/fresh process on the generator's stream, as an oracle."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    pi = np.asarray(spec.pi_true)
    states = [int(rng.choice(pi.size, p=pi))]
    if spec.iterations > 1:
        copy = rng.random(spec.iterations - 1) < spec.beta
        fresh = rng.choice(pi.size, p=pi, size=spec.iterations - 1)
        for i in range(1, spec.iterations):
            states.append(states[-1] if copy[i - 1] else int(fresh[i - 1]))
    return index_chain([s + 1 for s in states])


def occupancy_autocorr(indicator, lag):
    x = indicator - indicator.mean()
    return float(np.dot(x[:-lag], x[lag:]) / np.dot(x, x))


class TestGenerateChain:
    def test_beta_one_copies_forever(self):
        chain = generate_chain(MixtureChainSpec(PI, 1.0, 500, seed=3))
        assert chain.n_models == 1
        assert chain.length == 500

    def test_beta_zero_matches_target_frequencies(self):
        spec = MixtureChainSpec(PI, 0.0, 100_000, seed=11)
        chain = generate_chain(spec)
        freq = np.zeros(3)
        for pos, lab in enumerate(chain.labels):
            freq[lab - 1] = chain.visit_counts()[pos] / chain.length
        bound = 3.0 * np.sqrt(np.array(PI) * (1.0 - np.array(PI)) / spec.iterations)
        assert np.all(np.abs(freq - PI) <= np.maximum(bound, 0.005))

    def test_lag_one_autocorrelation_near_beta(self):
        spec = MixtureChainSpec(PI, 0.5, 100_000, seed=5)
        chain = generate_chain(spec)
        indicator = (np.array([chain.labels[i] for i in chain.indices]) == 1).astype(float)
        assert abs(occupancy_autocorr(indicator, 1) - 0.5) <= 0.02

    def test_lag_two_autocorrelation_near_beta_squared(self):
        spec = MixtureChainSpec(PI, 0.5, 100_000, seed=6)
        chain = generate_chain(spec)
        indicator = (np.array([chain.labels[i] for i in chain.indices]) == 1).astype(float)
        assert abs(occupancy_autocorr(indicator, 2) - 0.25) <= 0.02

    def test_stationarity_chi_square_smoke(self):
        spec = MixtureChainSpec(PI, 0.0, 100_000, seed=29)
        chain = generate_chain(spec)
        observed = np.zeros(3)
        for pos, lab in enumerate(chain.labels):
            observed[lab - 1] = chain.visit_counts()[pos]
        _, pvalue = ss.chisquare(observed, np.array(PI) * spec.iterations)
        assert pvalue >= 0.001

    def test_same_seed_same_chain(self):
        a = generate_chain(MixtureChainSpec(PI, 0.3, 1000, seed=8))
        b = generate_chain(MixtureChainSpec(PI, 0.3, 1000, seed=8))
        assert a.labels == b.labels
        assert np.array_equal(a.indices, b.indices)

    @pytest.mark.parametrize("iterations", [1, 2, 5, 1000])
    def test_matches_step_by_step_loop(self, iterations):
        for seed in range(200):
            for beta in (0.0, 0.3, 0.8, 1.0):
                spec = MixtureChainSpec(PI, beta, iterations, seed=seed)
                got, want = generate_chain(spec), loop_chain(spec)
                assert got.labels == want.labels
                assert all(type(lab) is int for lab in got.labels)
                assert np.array_equal(got.indices, want.indices)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            MixtureChainSpec((0.5, 0.4), 0.0, 10)
        with pytest.raises(ValueError):
            MixtureChainSpec(PI, 1.5, 10)
        with pytest.raises(ValueError):
            MixtureChainSpec(PI, 0.5, 0)


@pytest.fixture(scope="module")
def small_run():
    return run_coverage_experiment(
        PI, betas=(0.0, 0.8), iterations=200, replications=20, n_draws=200, seed=77
    )


class TestCoverageExperiment:
    def test_structure(self, small_run):
        assert {c.method for c in small_run.cells} == {"markov", "iid"}
        assert len(small_run.cells) == 4
        cell = small_run.cell(0.0, "markov")
        assert cell.mean_sd.shape == (3,)
        assert np.all((0.0 <= cell.coverage) & (cell.coverage <= 1.0))
        assert cell.replications == 20

    def test_rerun_is_identical(self, small_run):
        again = run_coverage_experiment(
            PI, betas=(0.0, 0.8), iterations=200, replications=20, n_draws=200, seed=77
        )
        for a, b in zip(small_run.cells, again.cells):
            assert a.method == b.method and a.beta == b.beta
            assert np.array_equal(a.mean_sd, b.mean_sd)
            assert np.array_equal(a.coverage, b.coverage)
        assert small_run.to_csv() == again.to_csv()
        assert small_run.to_json() == again.to_json()

    def test_iid_sd_does_not_react_to_autocorrelation(self, small_run):
        sd0 = small_run.cell(0.0, "iid").mean_sd
        sd8 = small_run.cell(0.8, "iid").mean_sd
        assert np.all(np.abs(sd8 - sd0) / sd0 < 0.25)

    def test_markov_sd_grows_with_autocorrelation(self, small_run):
        sd0 = small_run.cell(0.0, "markov").mean_sd
        sd8 = small_run.cell(0.8, "markov").mean_sd
        assert np.all(sd8 > sd0)

    def test_t_eff_recorded_per_replication(self, small_run):
        assert small_run.t_eff[0.0].shape == (20,)
        assert small_run.median_t_eff(0.0) > small_run.median_t_eff(0.8)

    def test_csv_shape(self, small_run):
        lines = small_run.to_csv().strip().splitlines()
        assert lines[0].startswith("beta,method,component")
        assert len(lines) == 1 + 4 * 3  # header + cells x components
