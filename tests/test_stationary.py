import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainuq.errors import NonStochasticError, NoUniqueStationaryError
from chainuq.stationary import _solve_stack, classify_support, stationary


def power_iteration_oracle(p, tol=1e-13, max_iter=500_000):
    """Plain left power iteration, independent of the library's solver."""
    x = np.full(p.shape[0], 1.0 / p.shape[0])
    for _ in range(max_iter):
        x_new = x @ p
        x_new = x_new / x_new.sum()
        if np.abs(x_new - x).max() < tol:
            return x_new
        x = x_new
    raise AssertionError("oracle power iteration did not converge")


def nullspace_oracle(p):
    """Least-squares solve of the augmented balance equations (SVD route)."""
    n = p.shape[0]
    a = np.vstack([p.T - np.eye(n), np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    return x


def random_stochastic(rng, n):
    return rng.dirichlet(np.ones(n), size=n)


def test_symmetric_doubly_stochastic():
    pi = stationary([[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(pi, [0.5, 0.5], atol=1e-14)


def test_two_state_balance_equation():
    # balance by hand: pi_1 * 0.1 = pi_2 * 0.2, so pi = (2/3, 1/3)
    pi = stationary([[0.9, 0.1], [0.2, 0.8]])
    assert np.allclose(pi, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_identity_has_no_unique_stationary():
    with pytest.raises(NoUniqueStationaryError):
        stationary(np.eye(2))


def test_absorbing_state():
    pi = stationary([[0.5, 0.5], [0.0, 1.0]])
    assert np.allclose(pi, [0.0, 1.0], atol=1e-12)


def test_rejects_bad_row_sums():
    with pytest.raises(NonStochasticError):
        stationary([[0.9, 0.2], [0.2, 0.8]])


def test_rejects_negative_entries():
    with pytest.raises(NonStochasticError):
        stationary([[1.1, -0.1], [0.5, 0.5]])


def test_rejects_nonsquare():
    with pytest.raises(NonStochasticError):
        stationary(np.ones((2, 3)) / 3.0)


def test_single_state():
    assert stationary([[1.0]]).tolist() == [1.0]


def test_classify_all_positive_is_one_closed_class():
    report = classify_support(np.full((3, 3), 1.0 / 3.0))
    assert len(report.classes) == 1
    assert report.closed == (True,)
    assert report.n_closed == 1


def test_classify_block_diagonal_two_closed_classes():
    p = np.zeros((4, 4))
    p[:2, :2] = 0.5
    p[2:, 2:] = 0.5
    report = classify_support(p)
    assert report.n_closed == 2


def test_classify_upper_triangular_absorbing():
    p = np.triu(np.ones((3, 3)))
    report = classify_support(p)
    closed_classes = [c for c, is_closed in zip(report.classes, report.closed) if is_closed]
    assert closed_classes == [(2,)]
    assert report.n_closed == 1


def test_matches_power_iteration_on_random_50x50():
    rng = np.random.default_rng(1234)
    p = random_stochastic(rng, 50)
    pi = stationary(p)
    oracle = power_iteration_oracle(p)
    assert np.abs(pi - oracle).max() <= 1e-8


def test_matches_nullspace_solve():
    rng = np.random.default_rng(99)
    for n in (2, 5, 17):
        p = random_stochastic(rng, n)
        assert np.abs(stationary(p) - nullspace_oracle(p)).max() <= 1e-9


def test_permutation_equivariance():
    rng = np.random.default_rng(7)
    for n in (3, 8, 40):
        p = random_stochastic(rng, n)
        perm = rng.permutation(n)
        pm = np.eye(n)[perm]
        permuted = pm @ p @ pm.T
        assert np.abs(stationary(permuted) - pm @ stationary(p)).max() <= 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(2, 12))
def test_residual_and_simplex_invariants(seed, n):
    rng = np.random.default_rng(seed)
    p = random_stochastic(rng, n)
    pi = stationary(p)
    assert np.abs(pi @ p - pi).max() <= 1e-8
    assert abs(pi.sum() - 1.0) <= 1e-12
    assert pi.min() >= 0.0


def test_periodic_chain_through_main_entry():
    pi = stationary([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(pi, [0.5, 0.5], atol=1e-10)


def test_singular_member_does_not_reject_the_stack():
    good = np.array([[0.9, 0.1], [0.3, 0.7]])
    pi, ok = _solve_stack(np.stack([np.eye(2), good, np.eye(2)]))
    assert ok.tolist() == [False, True, False]
    assert np.array_equal(pi[1], stationary(good))
    assert np.allclose(pi[1], [0.75, 0.25], atol=1e-14)
