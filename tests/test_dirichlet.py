import math

import mpmath
import numpy as np
import pytest

from chainuq.benchmark import MixtureChainSpec, generate_chain
from chainuq.chains import count_transitions
from chainuq.dirichlet import digamma, fit_dirichlet, inverse_digamma, trigamma
from chainuq.errors import DegenerateSamplesError, DomainError
from chainuq.sampling import PriorSpec, draw_posterior, sample_dirichlet

mpmath.mp.dps = 30


def euler_gamma_series_oracle(n=10_000):
    """Euler-Mascheroni constant from the harmonic-number series."""
    harmonic = sum(1.0 / k for k in range(1, n + 1))
    return harmonic - math.log(n) - 1.0 / (2 * n) + 1.0 / (12 * n**2) - 1.0 / (120 * n**4)


def test_digamma_at_one_is_minus_euler_gamma():
    assert abs(digamma(1.0) + euler_gamma_series_oracle()) <= 1e-12


def test_digamma_recurrence_identity():
    for x in (0.5, 1.0, 3.7):
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-12


def test_digamma_asymptotic_value():
    assert abs(digamma(1000.0) - (math.log(1000.0) - 1.0 / 2000.0)) <= 1e-6


def test_digamma_matches_high_precision_reference():
    # the fit's shape totals reach about 2.5e4 on a T=1e6, I*=50 analysis
    xs = np.concatenate([np.geomspace(1e-4, 1e7, 60), [0.317, 1.4616321449683622, 2.5, 6.0]])
    ours = digamma(xs)
    for x, value in zip(xs, ours):
        ref = float(mpmath.digamma(x))
        assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref))


def test_trigamma_matches_high_precision_reference():
    xs = np.geomspace(1e-4, 1e7, 45)
    ours = trigamma(xs)
    for x, value in zip(xs, ours):
        ref = float(mpmath.polygamma(1, x))
        assert abs(value - ref) <= 1e-11 * max(1.0, abs(ref))


@pytest.mark.parametrize("function", [digamma, trigamma], ids=["digamma", "trigamma"])
def test_digamma_rejects_nonpositive(function):
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(DomainError):
            function(bad)


def test_scalar_gives_float_and_sequence_gives_array_of_same_shape():
    for function, arg in ((digamma, 2.5), (trigamma, 2.5), (inverse_digamma, 0.3)):
        assert type(function(arg)) is float
        for seq in ([arg, arg], np.full((2, 3), arg)):
            out = function(seq)
            assert isinstance(out, np.ndarray)
            assert out.shape == np.shape(seq)


def test_inverse_digamma_round_trip():
    assert abs(inverse_digamma(digamma(2.5)) - 2.5) <= 1e-10


def test_inverse_digamma_round_trip_small_shape():
    x = inverse_digamma(digamma(1e-3))
    assert abs(x - 1e-3) <= 1e-8 * 1e-3


def test_inverse_digamma_monotone_on_grid():
    ys = digamma(np.geomspace(1e-3, 1e3, 1000))
    xs = inverse_digamma(ys)
    assert np.all(np.diff(xs) > 0)


def test_inverse_digamma_grid_round_trip():
    ys = digamma(np.geomspace(1e-3, 1e3, 1000))
    assert np.abs(digamma(inverse_digamma(ys)) - ys).max() <= 1e-10


def test_fit_recovers_known_shapes():
    rng = np.random.default_rng(2024)
    alpha = np.array([5.0, 3.0, 2.0])
    samples = sample_dirichlet(alpha, 100_000, rng)
    # sanity-check the sampler itself against the Beta marginal moments
    mean = samples.mean(axis=0)
    assert np.abs(mean - alpha / alpha.sum()).max() < 0.005
    var1 = samples[:, 0].var(ddof=1)
    a0 = alpha.sum()
    assert abs(var1 - alpha[0] * (a0 - alpha[0]) / (a0**2 * (a0 + 1))) < 0.001

    fit = fit_dirichlet(samples)
    assert fit.converged
    assert np.all(np.abs(fit.alpha - alpha) / alpha < 0.05)


def test_fit_recovers_uniform_simplex():
    rng = np.random.default_rng(7)
    samples = sample_dirichlet(np.ones(2), 100_000, rng)
    fit = fit_dirichlet(samples)
    assert fit.converged
    assert np.all(np.abs(fit.alpha - 1.0) < 0.05)


@pytest.mark.parametrize("scale", [0.5, 2.0, 10.0])
def test_fit_recovers_symmetric_scale(scale):
    rng = np.random.default_rng(int(scale * 100))
    samples = sample_dirichlet(np.full(3, scale), 100_000, rng)
    fit = fit_dirichlet(samples)
    assert fit.converged
    assert np.all(np.abs(fit.alpha - scale) / scale < 0.05)


def test_fit_concentrated_samples_diverges_or_flags():
    rng = np.random.default_rng(5)
    base = np.full(3, 1.0 / 3.0)
    samples = base + rng.normal(scale=1e-9, size=(200, 3))
    samples = np.abs(samples)
    samples /= samples.sum(axis=1, keepdims=True)
    fit = fit_dirichlet(samples)
    assert (not fit.converged) or np.all(fit.alpha >= 1e6)


def test_fit_log_likelihood_never_decreases():
    rng = np.random.default_rng(11)
    samples = sample_dirichlet(np.array([0.4, 1.5, 6.0]), 5000, rng)
    fit = fit_dirichlet(samples)
    diffs = np.diff(fit.log_likelihood_path)
    # allow rounding noise relative to the magnitude of the log-likelihood
    floor = -1e-10 * max(1.0, np.abs(fit.log_likelihood_path).max())
    assert np.all(diffs >= floor)


def test_fit_fixed_point_self_consistency():
    rng = np.random.default_rng(3)
    samples = sample_dirichlet(np.array([2.0, 5.0]), 20_000, rng)
    tol = 1e-8
    fit = fit_dirichlet(samples, tolerance=tol)
    assert fit.converged
    mean_log = np.log(samples).mean(axis=0)
    mapped = inverse_digamma(digamma(fit.alpha.sum()) + mean_log)
    assert np.abs(mapped - fit.alpha).max() <= tol


def test_fit_rejects_single_sample():
    with pytest.raises(DegenerateSamplesError):
        fit_dirichlet(np.array([[0.5, 0.5]]))


def test_fit_rejects_component_that_is_always_zero():
    samples = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DegenerateSamplesError):
        fit_dirichlet(samples)


def test_fit_clamps_occasional_zero_entries():
    rng = np.random.default_rng(21)
    samples = sample_dirichlet(np.array([3.0, 1.0]), 500, rng)
    samples = np.array(samples)
    samples[0, 1] = 0.0
    samples[0, 0] = 1.0
    fit = fit_dirichlet(samples)
    assert fit.clamped


PI_50 = tuple((np.arange(50, 0, -1) / np.arange(50, 0, -1).sum()).tolist())


def _posterior_draws(pi, beta, iterations):
    chain = generate_chain(MixtureChainSpec(pi_true=pi, beta=beta, iterations=iterations, seed=0))
    counts = count_transitions(chain)
    return draw_posterior(counts, PriorSpec.default(), n_draws=1000, seed=0).draws


@pytest.mark.parametrize(
    "pi, beta, iterations, n_iter, total",
    [
        ((0.85, 0.13, 0.02), 0.8, 1000, 3, 79.21435311019134),
        (PI_50, 0.0, 20_000, 2, 20228.1281503542),
        (PI_50, 0.8, 20_000, 3, 2301.8824758121887),
    ],
    ids=["I3-beta0.8", "I50-beta0", "I50-beta0.8"],
)
def test_fit_pinned_regression(pi, beta, iterations, n_iter, total):
    # values of the scipy.special-based fit that preceded the math kernel
    fit = fit_dirichlet(_posterior_draws(pi, beta, iterations))
    assert fit.iterations == n_iter
    assert abs(fit.alpha.sum() - total) <= 1e-12 * total


def test_fit_pinned_regression_rounding_decided_path():
    # At I*=3, beta=0 the accelerated candidates land within rounding of the
    # optimum, so whether the likelihood test accepts them, and with it the
    # sweep count, turns on last-bit differences of lgamma and digamma (the
    # scipy fit took 9 sweeps here, the math kernel takes 6). The returned
    # total is pinned to the spread those paths leave, a few 1e-12.
    fit = fit_dirichlet(_posterior_draws((0.85, 0.13, 0.02), 0.0, 1000))
    assert fit.converged
    assert abs(fit.alpha.sum() - 1058.7340631495988) <= 1e-11 * 1058.7340631495988
