import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from chainuq import dirichlet as dirichlet_module
from chainuq.benchmark import MixtureChainSpec, generate_chain
from chainuq.chains import count_transitions
from chainuq.dirichlet import MAX_NEWTON_STEPS, _invert_digamma, _psi_psi1_float, fit_dirichlet
from chainuq.errors import DegenerateSamplesError
from chainuq.sampling import PriorSpec, _dirichlet_rows, draw_posterior

mpmath.mp.dps = 30


def euler_gamma_series_oracle(n=10_000):
    """Euler-Mascheroni constant from the harmonic-number series."""
    harmonic = sum(1.0 / k for k in range(1, n + 1))
    return harmonic - math.log(n) - 1.0 / (2 * n) + 1.0 / (12 * n**2) - 1.0 / (120 * n**4)


def psi_psi1(x):
    """Digamma and trigamma from the fit's float kernel, of a float or an array: arrays of x's shape."""
    x = np.asarray(x, dtype=float)
    both = np.array([_psi_psi1_float(v) for v in x.ravel().tolist()]).reshape(-1, 2)
    return both[:, 0].reshape(x.shape), both[:, 1].reshape(x.shape)


def psi(x):
    """Digamma from the fit's kernel, of a float or an array: an array of x's shape."""
    return psi_psi1(x)[0]


def psi1(x):
    """Trigamma from the fit's kernel."""
    return psi_psi1(x)[1]


def invert(y, inverse=_invert_digamma):
    """``inverse``, a list-to-list digamma inversion, of a float or an array: an array of y's shape."""
    return np.reshape(inverse(np.ravel(y).tolist()), np.shape(y))


def test_digamma_at_one_is_minus_euler_gamma():
    assert abs(psi(1.0) + euler_gamma_series_oracle()) <= 1e-12


def test_digamma_recurrence_identity():
    for x in (0.5, 1.0, 3.7):
        assert abs(psi(x + 1.0) - psi(x) - 1.0 / x) <= 1e-12


def test_digamma_asymptotic_value():
    assert abs(psi(1000.0) - (math.log(1000.0) - 1.0 / 2000.0)) <= 1e-6


def test_digamma_matches_high_precision_reference():
    # the fit's shape totals reach about 2.5e4 on a T=1e6, I*=50 analysis
    xs = np.concatenate([np.geomspace(1e-4, 1e7, 60), [0.317, 1.4616321449683622, 2.5, 6.0]])
    ours = psi(xs)
    for x, value in zip(xs, ours):
        ref = float(mpmath.digamma(x))
        assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref))


def test_trigamma_matches_high_precision_reference():
    xs = np.geomspace(1e-4, 1e7, 45)
    ours = psi1(xs)
    for x, value in zip(xs, ours):
        ref = float(mpmath.polygamma(1, x))
        assert abs(value - ref) <= 1e-11 * max(1.0, abs(ref))


def test_inverse_digamma_round_trip():
    assert abs(invert(psi(2.5)) - 2.5) <= 1e-10


def test_inverse_digamma_round_trip_small_shape():
    x = invert(psi(1e-3))
    assert abs(x - 1e-3) <= 1e-8 * 1e-3


def test_inverse_digamma_monotone_on_grid():
    ys = psi(np.geomspace(1e-3, 1e3, 1000))
    xs = invert(ys)
    assert np.all(np.diff(xs) > 0)


def test_inverse_digamma_grid_round_trip():
    ys = psi(np.geomspace(1e-3, 1e3, 1000))
    assert np.abs(psi(invert(ys)) - ys).max() <= 1e-10


def test_fit_recovers_known_shapes():
    rng = np.random.default_rng(2024)
    alpha = np.array([5.0, 3.0, 2.0])
    samples = _dirichlet_rows(alpha, [rng], 100_000).T
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
    samples = _dirichlet_rows(np.ones(2), [rng], 100_000).T
    fit = fit_dirichlet(samples)
    assert fit.converged
    assert np.all(np.abs(fit.alpha - 1.0) < 0.05)


@pytest.mark.parametrize("scale", [0.5, 2.0, 10.0])
def test_fit_recovers_symmetric_scale(scale):
    rng = np.random.default_rng(int(scale * 100))
    samples = _dirichlet_rows(np.full(3, scale), [rng], 100_000).T
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
    assert fit.iterations <= MAX_NEWTON_STEPS
    assert (not fit.converged) or np.all(fit.alpha >= 1e6)


def test_fit_log_likelihood_never_decreases():
    rng = np.random.default_rng(11)
    samples = _dirichlet_rows(np.array([0.4, 1.5, 6.0]), [rng], 5000).T
    fit = fit_dirichlet(samples)
    diffs = np.diff(fit.log_likelihood_path)
    # allow rounding noise relative to the magnitude of the log-likelihood
    floor = -1e-10 * max(1.0, np.abs(fit.log_likelihood_path).max())
    assert np.all(diffs >= floor)


def test_fit_fixed_point_self_consistency():
    rng = np.random.default_rng(3)
    samples = _dirichlet_rows(np.array([2.0, 5.0]), [rng], 20_000).T
    fit = fit_dirichlet(samples)
    assert fit.converged
    mean_log = np.log(samples).mean(axis=0)
    mapped = invert(psi(fit.alpha.sum()) + mean_log)
    assert np.abs(mapped - fit.alpha).max() <= 1e-12


def test_fit_rejects_single_sample():
    with pytest.raises(DegenerateSamplesError):
        fit_dirichlet(np.array([[0.5, 0.5]]))


def test_fit_rejects_one_dimensional_samples():
    with pytest.raises(DegenerateSamplesError, match=r"2-d sample array, got shape \(3,\)"):
        fit_dirichlet([0.2, 0.3, 0.5])


def test_fit_rejects_component_that_is_always_zero():
    samples = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DegenerateSamplesError):
        fit_dirichlet(samples)


@pytest.mark.parametrize(
    "bad, message",
    [
        (math.nan, "samples must be finite and nonnegative"),
        (math.inf, "samples must be finite and nonnegative"),
        (-math.inf, "samples must be finite and nonnegative"),
        (-1e-300, "samples must be finite and nonnegative"),
        (0.0, r"component\(s\) \[1\] are zero in every sample"),
    ],
    ids=["nan", "inf", "-inf", "negative", "dead"],
)
def test_fit_input_checks(bad, message):
    # column 1 is 1e-301 (below the clamp) except in row 0; a NaN must not hide in a min or max
    samples = np.array([[0.5, bad, 0.5], [0.5, 1e-301, 0.5], [0.2, 1e-301, 0.8]])
    with pytest.raises(DegenerateSamplesError, match=message):
        fit_dirichlet(samples)


def test_fit_clamps_occasional_zero_entries():
    rng = np.random.default_rng(21)
    samples = _dirichlet_rows(np.array([3.0, 1.0]), [rng], 500).T
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


def _mpmath_root(samples):
    """Root of h(s) = sum_i psi^-1(psi(s) + mean log x_i) - s, at 40 digits."""
    with mpmath.workdps(40):
        mean_log = [mpmath.mpf(float(v)) for v in np.log(samples).mean(axis=0)]

        def inverse_psi(y):
            start = mpmath.exp(y) + 0.5 if y >= -2.22 else -1 / (y + mpmath.euler)
            return mpmath.findroot(lambda a: mpmath.digamma(a) - y, start)

        def h(s):
            psi = mpmath.digamma(s)
            return sum(inverse_psi(psi + m) for m in mean_log) - s

        c = sum(map(mpmath.exp, mean_log))
        return float(mpmath.findroot(h, (len(mean_log) - c) / (2 * (1 - c))))


@pytest.mark.parametrize(
    "pi, beta, iterations, steps",
    [
        # the third correction, 1.1e-12 of the total, is rounding at the
        # root, so a last-bit change may end this fit one step earlier
        ((0.85, 0.13, 0.02), 0.0, 1000, (3, 4)),
        ((0.85, 0.13, 0.02), 0.8, 1000, (3,)),
        (PI_50, 0.0, 20_000, (3,)),
        (PI_50, 0.8, 20_000, (3,)),
    ],
    ids=["I3-beta0", "I3-beta0.8", "I50-beta0", "I50-beta0.8"],
)
def test_fit_pinned_regression(pi, beta, iterations, steps):
    samples = _posterior_draws(pi, beta, iterations)
    fit = fit_dirichlet(samples)
    assert fit.converged
    assert fit.iterations in steps
    root = _mpmath_root(samples)
    assert abs(fit.alpha.sum() - root) <= 1e-11 * root


@pytest.mark.parametrize(
    "pi, iterations",
    [
        ((0.85, 0.13, 0.02), 100),
        ((0.85, 0.13, 0.02), 1000),
        # totals near 1e5, where the last corrections are rounding of either sign
        ((0.85, 0.13, 0.02), 100_000),
        (PI_50, 20_000),
    ],
    ids=["I3-T100", "I3-T1000", "I3-T100000", "I50-T20000"],
)
@pytest.mark.parametrize("beta", [0.0, 0.8])
def test_fit_likelihood_path_never_decreases_on_posterior_draws(pi, iterations, beta):
    samples = _posterior_draws(pi, beta, iterations)
    fit = fit_dirichlet(samples)
    assert fit.converged
    assert len(fit.log_likelihood_path) == fit.iterations
    # the log-likelihood is a difference of terms of about n * lgamma(total);
    # its last steps change it by less than their rounding
    scale = len(samples) * (
        math.lgamma(fit.alpha.sum()) + sum(abs(math.lgamma(a)) for a in fit.alpha)
    )
    assert np.diff(fit.log_likelihood_path).min(initial=0.0) >= -1e-14 * scale


def invert_digamma_on_arrays(ys, xs=None):
    """The array-at-a-time Newton loop that ``_invert_digamma`` replaced: its bit-for-bit reference.

    Takes the same starts: ``xs``, or the cold start with ``math.exp``.
    """
    y = np.array(ys, dtype=float)
    with np.errstate(all="ignore"):
        x = np.array(xs, dtype=float) if xs is not None else np.where(
            y >= -2.22,
            np.array([math.exp(v) for v in np.minimum(y, 700.0).tolist()]) + 0.5,
            -1.0 / (y + np.euler_gamma),
        )
        for _ in range(40):
            psi, psi1 = psi_psi1(x)
            step = (psi - y) / psi1
            x_new = x - step
            x = np.where(x_new > 0, x_new, x / 2.0)
            if np.abs(step).max() <= 1e-13 * max(1.0, np.abs(x).max()):
                break
    return x.tolist()


@given(
    arrays(
        np.float64,
        array_shapes(min_dims=1, max_dims=2, max_side=12),
        # beyond about 709.78 the root exceeds the largest float and both give inf
        elements=st.floats(-1e300, 1e3) | st.floats(-30.0, 30.0),
    )
)
# y > 709.78 overflows x to inf; a NaN beside it keeps the loop running at x = inf
@example(np.array([[709.8, 1.0, np.nan], [1e3, -1e300, 0.0]]))
def test_invert_digamma_matches_array_newton_bit_for_bit(y):
    x = invert(y)
    assert x.shape == y.shape
    assert np.array_equal(x, invert(y, invert_digamma_on_arrays), equal_nan=True)


def fit_on_arrays(samples):
    with mock.patch.object(dirichlet_module, "_invert_digamma", invert_digamma_on_arrays):
        return fit_dirichlet(samples)


def assert_same_fit(fit, reference):
    assert np.array_equal(fit.alpha, reference.alpha)
    assert np.array_equal(fit.log_likelihood_path, reference.log_likelihood_path, equal_nan=True)
    assert (fit.converged, fit.clamped) == (reference.converged, reference.clamped)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 60),
    st.integers(2, 3000),
    st.sampled_from([0.0, 1e-3, 0.3]),
)
def test_fit_matches_array_newton_bit_for_bit(seed, n_models, n_samples, zero_share):
    rng = np.random.default_rng(seed)
    samples = _dirichlet_rows(rng.uniform(0.05, 20.0, n_models), [rng], n_samples).T
    # zeroed entries are clamped; row 0 keeps every component alive
    samples[1:][rng.random((n_samples - 1, n_models)) < zero_share] = 0.0
    assert_same_fit(fit_dirichlet(samples), fit_on_arrays(samples))


@pytest.mark.parametrize(
    "pi, beta, iterations",
    [((0.85, 0.13, 0.02), 0.0, 1000), ((0.85, 0.13, 0.02), 0.8, 100_000), (PI_50, 0.8, 20_000)],
    ids=["I3-beta0", "I3-beta0.8", "I50-beta0.8"],
)
def test_fit_on_posterior_draws_matches_array_newton_bit_for_bit(pi, beta, iterations):
    samples = _posterior_draws(pi, beta, iterations)
    assert_same_fit(fit_dirichlet(samples), fit_on_arrays(samples))


@pytest.mark.parametrize(
    "pi, beta, iterations",
    [((0.85, 0.13, 0.02), 0.8, 1000), (PI_50, 0.8, 20_000)],
    ids=["I3-beta0.8", "I50-beta0.8"],
)
def test_fit_starts_digamma_cold_once_then_from_the_last_shapes(pi, beta, iterations):
    calls = []

    def spy(ys, xs=None):
        calls.append((xs, _invert_digamma(ys, xs)))
        return calls[-1][1]

    with mock.patch.object(dirichlet_module, "_invert_digamma", spy):
        fit = fit_dirichlet(_posterior_draws(pi, beta, iterations))
    assert fit.iterations == len(calls) >= 2
    assert calls[0][0] is None
    assert all(xs is last for (xs, _), (_, last) in zip(calls[1:], calls))
