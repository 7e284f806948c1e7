"""Simulation-based calibration of the transition-matrix posterior.

The posterior is exact for a first-order chain, so if P is drawn from the
prior and chains are simulated from P, the rank of the true value of any
statistic of pi among independent posterior draws is uniform (Cook, Gelman &
Rubin 2006; Talts et al. 2018). One rank test per statistic covers counting,
merging, the prior, the Dirichlet rows, the GTH solve and the reducers.

- Rows of P are Dirichlet(eps). The first state of each chain is uniform and
  independent of P, so the posterior given it is conjugate. A P that
  `stationary` rejects is drawn again. The true pi comes from numpy's linear
  solver, not from the package.
- A dataset is kept only when its chains visit every state. The condition
  depends on the data alone, so the posterior is unchanged, and I* = I makes
  the default 1/I* prior a fixed one.
- N datasets and R draws per setting. Ranks break ties at random and fall
  into 8 bins; a statistic fails when its chi-square (7 df) passes the 99.9%
  point, Bonferroni-split over the setting's statistics. The random ties make
  discrete statistics testable too: the rank of state 0 among the states, and
  at I = 2 the subset {0, I - 1}, which is then the constant 1.
- One setting is a birth-death chain: P moves only to self and neighbours,
  and its prior matrix has the same structural zeros.
- I = 20 (fixed:1, T = 200) passes too, 13.7 against a bound of 31.8, but
  takes about 5 s, which would push the file past 10 s; it is not in the grid.

The grid, the seed and N were fixed before any result was seen. Two planted
bugs, applied by monkeypatching, must each fail the bound, which shows the
test can fail.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.stats as ss

from chainuq import (
    PriorSpec,
    bayes_factors,
    chains,
    draw_posterior,
    index_chain,
    merge_counts,
    stationary,
    subset_probability,
)
from chainuq.errors import NoUniqueStationaryError

SEED = 1
N_DATASETS = 1000
N_DRAWS = 255  # ranks 0..255 fill 8 bins of 32
BINS = 8
LEVEL = 0.001  # per setting, split over its statistics

# birth-death moves: self and neighbours only, with prior mass 1 per row spread over its cells
_NEAR = abs(np.subtract.outer(np.arange(4), np.arange(4))) <= 1
BIRTH_DEATH = _NEAR / _NEAR.sum(axis=1, keepdims=True)

# (states I, chains, iterations per chain, prior); two chains have their counts merged.
# A matrix prior is keyed by state number, and it also draws the data's P.
SETTINGS = {
    "3-states-fixed-1": (3, 1, 60, PriorSpec.fixed(1.0)),
    "3-states-default": (3, 1, 60, PriorSpec.default()),
    "5-states-fixed-0.5": (5, 1, 100, PriorSpec.fixed(0.5)),
    "8-states-default": (8, 1, 300, PriorSpec.default()),
    "4-states-two-chains-default": (4, 2, 40, PriorSpec.default()),
    "2-states-default": (2, 1, 40, PriorSpec.default()),
    "4-states-birth-death": (4, 1, 100, PriorSpec.from_matrix(BIRTH_DEATH)),
}


def _datasets(rng, n_states, n_chains, iterations, eps):
    """``(pi, states)`` for N_DATASETS datasets whose chains visit every state.

    Candidates come in batches of N_DATASETS, simulated together: one
    inverse-cdf step across all of their chains per iteration. A candidate
    whose P `stationary` rejects is dropped, which is the same as drawing P
    again. ``eps`` is a scalar, or a matrix whose zero cells P never moves to.
    """
    kept = 0
    while True:
        if np.ndim(eps):  # a gamma variate of shape 0 is 0
            p = rng.standard_gamma(eps, size=(N_DATASETS, n_states, n_states))
            p /= p.sum(axis=2, keepdims=True)
        else:
            p = rng.dirichlet(np.full(n_states, eps), size=(N_DATASETS, n_states))
        # pi P = pi and sum(pi) = 1: the sum replaces the last balance equation
        a = np.swapaxes(p, 1, 2) - np.eye(n_states)
        a[:, -1] = 1.0
        pi = np.linalg.solve(a, np.eye(n_states)[-1][:, None])[..., 0]
        cdf = np.cumsum(p, axis=2)[:, :, :-1]  # the last state takes every u past the others
        states = np.empty((N_DATASETS, n_chains, iterations), dtype=np.intp)
        states[..., 0] = rng.integers(n_states, size=(N_DATASETS, n_chains))
        rows = np.arange(N_DATASETS)[:, None]
        for t in range(1, iterations):
            u = rng.random((N_DATASETS, n_chains, 1))
            states[..., t] = (cdf[rows, states[..., t - 1]] <= u).sum(axis=2)
        flat = states.reshape(N_DATASETS, -1)
        for k in np.flatnonzero((flat[:, :, None] == np.arange(n_states)).any(axis=1).all(axis=1)):
            try:
                stationary(p[k])
            except NoUniqueStationaryError:
                continue
            yield pi[k], states[k]
            kept += 1
            if kept == N_DATASETS:
                return


def _rank_chi_square(n_states, n_chains, iterations, prior):
    """Chi-square of the binned ranks and its bound, for each statistic of one setting.

    The statistics are every pi_i, pi_0 / pi_1, the subset {0, I - 1} and
    the rank of state 0 among the states (1 = largest).
    """
    rng = np.random.default_rng([SEED, n_states, n_chains, iterations])
    # the state rank breaks its ties from a stream of its own, leaving rng's draws as they were
    ties = np.random.default_rng([SEED, n_states, n_chains, iterations, 1])
    matrix = prior.epsilon_matrix
    eps = matrix if matrix is not None else 1.0 / n_states if prior.epsilon is None else prior.epsilon
    n_stats = n_states + 3
    hist = np.zeros((n_stats, BINS))
    for pi, states in _datasets(rng, n_states, n_chains, iterations, eps):
        counts = merge_counts(chains.count_transitions(index_chain(c.tolist())) for c in states)
        if matrix is not None:
            # the posterior's matrix follows the models' first-appearance order. Keyed by
            # state number instead, the birth-death setting still passed (13.0): it checks
            # calibration under structural zeros, not the label order
            prior = PriorSpec.from_matrix(matrix[np.ix_(counts.labels, counts.labels)])
        draws = draw_posterior(counts, prior, n_draws=N_DRAWS, seed=int(rng.integers(2**63)))
        x = draws.draws[:, [counts.label_to_index[i] for i in range(n_states)]]
        samples = np.column_stack([
            x,
            bayes_factors(draws, [(0, 1)])[0].samples,
            subset_probability(draws, (0, n_states - 1)).samples,
        ])
        truth = np.concatenate([pi, [pi[0] / pi[1], pi[0] + pi[-1]]])
        # within rounding of the truth is a tie: at I = 2 the subset sums to 1 give or take an ulp
        tied = np.isclose(samples, truth, rtol=1e-12, atol=0)
        ranks = (~tied & (samples < truth)).sum(axis=0) + rng.integers(0, tied.sum(axis=0) + 1)
        state_rank = 1 + (x[:, 1:] > x[:, :1]).sum(axis=1)
        true_rank = 1 + (pi[1:] > pi[0]).sum()
        n_tied = (state_rank == true_rank).sum()
        ranks = np.append(ranks, (state_rank < true_rank).sum() + ties.integers(n_tied + 1))
        hist[np.arange(n_stats), ranks * BINS // (N_DRAWS + 1)] += 1
    expected = N_DATASETS / BINS
    chi = ((hist - expected) ** 2 / expected).sum(axis=1)
    return chi, ss.chi2.ppf(1 - LEVEL / n_stats, BINS - 1)


@pytest.mark.parametrize("setting", SETTINGS)
def test_posterior_ranks_are_uniform(setting):
    chi, bound = _rank_chi_square(*SETTINGS[setting])
    assert (chi <= bound).all(), (chi.round(1).tolist(), round(bound, 1))


def _transposed_counts(monkeypatch):
    count = chains.count_transitions

    def transposed(chain):
        counts = count(chain)
        return replace(counts, counts=counts.counts.T)

    monkeypatch.setattr(chains, "count_transitions", transposed)


def _prior_times_four(monkeypatch):
    # the data are still drawn with the setting's eps: only the posterior sees 4x the mass
    resolve = PriorSpec.resolve
    monkeypatch.setattr(PriorSpec, "resolve", lambda self, n_models: 4 * resolve(self, n_models))


# Reversing a chain keeps its pi, so transposed counts show only where the
# uniform first states of short chains weigh: at (3, 60, fixed:1) their largest
# chi-square was 15.0 against a bound of 28.7.
@pytest.mark.parametrize("plant, setting", [
    (_transposed_counts, "4-states-two-chains-default"),
    (_prior_times_four, "3-states-fixed-1"),
], ids=["transposed-counts", "prior-x4"])
def test_planted_bug_fails_the_bound(plant, setting, monkeypatch):
    plant(monkeypatch)
    chi, bound = _rank_chi_square(*SETTINGS[setting])
    assert (chi > bound).any(), (chi.round(1).tolist(), round(bound, 1))
