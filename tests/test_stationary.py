import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from chainuq.errors import NonStochasticError, NoUniqueStationaryError
from chainuq.stationary import REJECTED, _solve_stack, classify_support, stationary


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


def test_rejected_solve_of_one_matrix_raises(monkeypatch):
    # the package binds the name chainuq.stationary to the function, so take the module itself
    module = sys.modules["chainuq.stationary"]
    monkeypatch.setattr(module, "_solve_stack", lambda p: (_solve_stack(p)[0], np.array([False])))
    with pytest.raises(NoUniqueStationaryError, match=REJECTED):
        stationary([[0.9, 0.1], [0.2, 0.8]])


def test_absorbing_state():
    pi = stationary([[0.5, 0.5], [0.0, 1.0]])
    assert np.allclose(pi, [0.0, 1.0], atol=1e-12)


def test_rejects_bad_row_sums():
    with pytest.raises(NonStochasticError):
        stationary([[0.9, 0.2], [0.2, 0.8]])


def test_rejects_negative_entries():
    with pytest.raises(NonStochasticError):
        stationary([[1.1, -0.1], [0.5, 0.5]])


def test_rejects_non_finite_entries():
    with pytest.raises(NonStochasticError, match="non-finite"):
        stationary([[np.nan, 1.0], [0.5, 0.5]])


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


def scipy_classes(adj):
    """{class: closed} from scipy's strongly connected components."""
    n_comp, comp = connected_components(csr_matrix(adj), directed=True, connection="strong")
    classes = {}
    for c in range(n_comp):
        members = np.flatnonzero(comp == c)
        outside = np.flatnonzero(comp != c)
        classes[frozenset(members.tolist())] = not adj[np.ix_(members, outside)].any()
    return classes


def random_supports(rng, n):
    for density in (0.5, 1.0, 2.0, 4.0):
        yield rng.random((n, n)) < density / n
    yield np.eye(n, dtype=bool)  # self-loops only: every state is its own closed class
    path = np.eye(n, k=1, dtype=bool)  # 0 -> 1 -> ... -> n-1, absorbing at the end
    path[-1, -1] = True
    yield path
    # transient chains: random moves that only ever lead to higher states
    yield np.triu(rng.random((n, n)) < 3.0 / n)


@pytest.mark.parametrize("n", [1, 2, 5, 50, 100])
def test_classify_matches_scipy_strong_components(n):
    rng = np.random.default_rng(n)
    for adj in random_supports(rng, n):
        report = classify_support(adj.astype(float))
        expected = scipy_classes(adj)
        assert dict(zip(map(frozenset, report.classes), report.closed)) == expected
        assert report.n_closed == sum(expected.values())
        # classes are listed by their smallest member, members ascending
        assert [c[0] for c in report.classes] == sorted(c[0] for c in report.classes)
        assert all(list(c) == sorted(c) for c in report.classes)


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


def _two_state_reference(p):
    """[b, a] / (a + b) in 50-digit arithmetic from the float off-diagonals."""
    with mpmath.workdps(50):
        a, b = mpmath.mpf(float(p[0][1])), mpmath.mpf(float(p[1][0]))
        return [b / (a + b), a / (a + b)]


# two-state chains whose couplings an LU solve loses below rounding
NEARLY_DECOMPOSABLE = {
    "couplings_below_rounding": [[1.0, 1e-200], [1e-250, 1.0]],
    "nearly_decomposable": [[1.0 - 1e-15, 1e-15], [1e-13, 1.0 - 1e-13]],
}


@pytest.mark.parametrize("p", NEARLY_DECOMPOSABLE.values(), ids=NEARLY_DECOMPOSABLE.keys())
def test_tiny_components_keep_relative_accuracy(p):
    pi = stationary(p)
    for got, want in zip(pi, _two_state_reference(p)):
        assert abs((mpmath.mpf(float(got)) - want) / want) <= 1e-14


def _reference(p):
    """Stationary vector, in 60-digit arithmetic, of the chain with p's off-diagonal entries."""
    n = len(p)
    with mpmath.workdps(60):
        a = mpmath.matrix(n, n)
        for i in range(n):
            off = [mpmath.mpf(float(p[i][j])) if j != i else 0 for j in range(n)]
            for j in range(n):
                # column i of (P - I)^T: outflows off the diagonal, minus their sum on it
                a[j, i] = off[j] if j != i else -mpmath.fsum(off)
        for j in range(n):
            a[n - 1, j] = 1  # replace one balance equation by the normalisation
        return list(mpmath.lu_solve(a, mpmath.matrix([0] * (n - 1) + [1])))


# chains whose last state leaves for the states below it at a subnormal rate
SUBNORMAL_OUTFLOW = {
    "three_states": [[0.5, 0.5, 0.0], [0.3, 0.3, 0.4], [1e-315, 0.0, 1.0]],
    "four_states": [
        [0.2, 0.3, 0.5, 0.0],
        [0.1, 0.6, 0.1, 0.2],
        [0.3, 0.3, 0.2, 0.2],
        [2e-320, 1e-318, 5e-316, 1.0],
    ],
}


@pytest.mark.parametrize("p", SUBNORMAL_OUTFLOW.values(), ids=SUBNORMAL_OUTFLOW.keys())
def test_subnormal_outflow_keeps_subnormal_precision(p):
    pi = stationary(p)
    assert 0.0 < pi[:-1].max() < 1e-307
    for got, want in zip(pi, _reference(p)):
        # one subnormal spacing, 2**-1074, is all the precision that range holds
        assert abs(mpmath.mpf(float(got)) - want) <= 1e-14 * want + mpmath.mpf(2) ** -1074


def _with_transient_state(p):
    """Append a state that moves to the first two evenly and is never entered."""
    out = np.zeros((3, 3))
    out[:2, :2] = p
    out[2, :2] = 0.5
    return out


def test_stack_members_match_single_matrix_solves():
    stack = np.stack([
        random_stochastic(np.random.default_rng(3), 3),
        _with_transient_state([[0.5, 0.5], [0.0, 1.0]]),
        [[0.2, 0.3, 0.5], [0.0, 0.5, 0.5], [0.0, 0.4, 0.6]],
        *(_with_transient_state(p) for p in NEARLY_DECOMPOSABLE.values()),
    ], axis=-1)
    before = stack.copy()
    pi, ok = _solve_stack(stack)
    assert ok.all()
    assert np.array_equal(stack, before)
    for member, got in zip(np.moveaxis(stack, -1, 0), pi.T):
        assert np.array_equal(got, stationary(member))
    assert pi[:, 1].tolist() == [0.0, 1.0, 0.0]
    assert pi[0, 2] == 0.0
    assert (pi[2, 3:] == 0.0).all()
    # numpy sums a lone column pairwise from 8 terms up; the kernel must not
    for n in (9, 47, 200):
        rng = np.random.default_rng(n)
        stack = np.stack([random_stochastic(rng, n) for _ in range(3)], axis=-1)
        pi, ok = _solve_stack(stack)
        assert ok.all()
        for member, got in zip(np.moveaxis(stack, -1, 0), pi.T):
            assert np.array_equal(got, stationary(member))


def test_unnormalized_total_beyond_float_range_still_normalizes():
    # back substitution gives components near 1e308 whose plain sum overflows
    t = 6e-309
    pi = stationary([[0.0, 0.5, 0.5], [t, 1.0 - t, 0.0], [0.0, t, 1.0 - t]])
    assert 0.0 < pi[0] < 1e-300
    assert np.allclose(pi, [0.0, 2.0 / 3.0, 1.0 / 3.0], rtol=0.0, atol=1e-15)


def test_closed_class_starts_at_the_largest_zero_pivot():
    # states 0 and 1 each reach no lower state; only state 2 is recurrent
    pi = stationary([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
    assert pi.tolist() == [0.0, 0.0, 1.0]


@pytest.mark.parametrize("n", [3, 10, 47])
def test_stacked_solve_equals_per_block_solves(n):
    # draw_posterior solves many blocks as one stack, so a stack of blocks must
    # give every member the bits of its own block's solve
    rng = np.random.default_rng(n)
    dense = rng.dirichlet(np.ones(n), size=(5, n))
    zeros = rng.dirichlet(np.ones(n), size=(256, n)) * (rng.random((256, n, n)) < 0.6)
    zeros[:, np.arange(n), np.arange(n)] += 0.1  # every row keeps some mass
    zeros /= zeros.sum(axis=-1, keepdims=True)
    transient = rng.dirichlet(np.ones(n), size=(3, n))
    transient[:, 1:, 0] = 0.0  # state 0 is never entered
    transient /= transient.sum(axis=-1, keepdims=True)
    blocks = [dense, dense[4:], zeros, transient, dense[:2]]
    pi, ok = _solve_stack(np.concatenate(blocks).transpose(1, 2, 0))
    parts = [_solve_stack(block.transpose(1, 2, 0)) for block in blocks]
    assert np.array_equal(pi, np.concatenate([part for part, _ in parts], axis=1))
    assert np.array_equal(ok, np.concatenate([flags for _, flags in parts]))
    assert (zeros == 0).any() and (pi[0, -5:-2] == 0.0).all()
