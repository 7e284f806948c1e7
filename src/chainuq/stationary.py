"""Stationary distributions of row-stochastic matrices.

The stationary vector is the normalized left eigenvector with eigenvalue one,
computed by GTH elimination (Grassmann, Taksar & Heyman 1985). It does no
subtraction, so every component keeps its relative accuracy however small
(O'Cinneide 1993), and transient states get exactly zero mass. The same
stacked elimination serves a single matrix and a block of posterior draws; a
solution that misses the residual tolerance is rejected, never repaired.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import NonStochasticError, NoUniqueStationaryError

ROW_SUM_TOL = 1e-10
RESIDUAL_TOL = 1e-8
REJECTED = (
    "failed to resolve the stationary distribution to the required residual tolerance"
)


@dataclass(frozen=True)
class CommunicatingClasses:
    """Strongly connected components of the positive-entry digraph."""

    classes: tuple
    closed: tuple

    @property
    def n_closed(self) -> int:
        return int(sum(self.closed))


def classify_support(matrix) -> CommunicatingClasses:
    """Communicating classes of a nonnegative matrix's support graph.

    A class is closed when no positive entry leads out of it; a unique
    stationary distribution exists iff exactly one class is closed.
    """
    adj = np.asarray(matrix, dtype=float) > 0
    n_comp, comp = connected_components(
        csr_matrix(adj), directed=True, connection="strong"
    )
    classes = []
    closed = []
    for c in range(n_comp):
        members = np.flatnonzero(comp == c)
        others = np.flatnonzero(comp != c)
        classes.append(tuple(int(i) for i in members))
        closed.append(not adj[np.ix_(members, others)].any())
    return CommunicatingClasses(tuple(classes), tuple(closed))


def _validated(matrix) -> np.ndarray:
    p = np.asarray(matrix, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise NonStochasticError(f"expected a square matrix, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise NonStochasticError("matrix contains non-finite entries")
    if np.any(p < 0):
        raise NonStochasticError(
            f"negative entry {p.min():.3e} in transition matrix"
        )
    row_err = np.abs(p.sum(axis=1) - 1.0).max()
    if row_err > ROW_SUM_TOL:
        raise NonStochasticError(
            f"row sums deviate from one by {row_err:.3e} (tolerance {ROW_SUM_TOL})"
        )
    return p


def _require_unique(support) -> None:
    """Raise unless the support graph of ``support`` has one closed class.

    Raises
    ------
    NoUniqueStationaryError
        If more than one communicating class is closed.
    """
    n_closed = classify_support(support).n_closed
    if n_closed != 1:
        raise NoUniqueStationaryError(
            f"support graph has {n_closed} closed communicating "
            "classes; the stationary distribution is not unique"
        )


def _solve_stack(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stationary vectors of a (B, I, I) stack by GTH elimination; ``p`` is not modified.

    The elimination runs on an (I, I, B) copy, one rank-1 update over the
    stack per pivot. Step k = I-1, ..., 1 censors state k out of the chain on
    0..k, dividing by its outflow to lower states, summed rather than formed
    as 1 - p[k, k]; with no subtraction every component keeps its relative
    accuracy. A zero outflow means k reaches no lower state; given a unique
    stationary distribution, the largest such k is then the smallest member
    of the closed class and all states below it are transient, so that step
    divides by one and back substitution starts at k with x[k] = 1 and exact
    zeros below. Returns ``(pi, ok)``: ``pi[i]`` is valid where ``ok[i]``,
    i.e. where its residual ``|pi P - pi|`` is within 1e-8 (NaN fails).
    """
    b, n, _ = p.shape
    a = np.moveaxis(p, 0, -1).copy()
    zero = np.zeros((n, b), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n - 1, 0, -1):
            s = a[k, :k].sum(axis=0)
            np.equal(s, 0.0, out=zero[k])
            a[:k, k] /= s + zero[k]  # a zero outflow divides by one
            a[:k, :k] += a[:k, k, None] * a[None, k, :k]
        ks = np.arange(n)[:, None]
        start = (ks * zero).max(axis=0)
        x = (ks == start).astype(float)
        for k in range(1, n):
            x[k] = np.where(start < k, (x[:k] * a[:k, k]).sum(axis=0), x[k])
        x /= x.max(axis=0)  # so that the total cannot overflow
        pi = (x / x.sum(axis=0)).T
        residual = np.abs((pi[:, None, :] @ p)[:, 0, :] - pi).max(axis=1)
    return pi, residual <= RESIDUAL_TOL


def stationary(matrix) -> np.ndarray:
    """Stationary distribution of a row-stochastic matrix.

    Parameters
    ----------
    matrix : array-like, shape (I, I)
        Nonnegative entries, rows summing to one within 1e-10.

    Returns
    -------
    ndarray, shape (I,)
        Nonnegative vector pi with ``pi @ matrix == pi`` within an
        infinity-norm residual of 1e-8 and ``pi.sum() == 1`` within 1e-12.

    Raises
    ------
    NonStochasticError
        If the matrix violates the row-stochastic contract.
    NoUniqueStationaryError
        If the support graph has more than one closed communicating class,
        or the solve is rejected.
    """
    p = _validated(matrix)
    # strictly positive matrices are irreducible; only check sparser supports
    if not (p > 0).all():
        _require_unique(p)
    pi, ok = _solve_stack(p[None])
    if not ok[0]:
        raise NoUniqueStationaryError(REJECTED)
    return pi[0]
