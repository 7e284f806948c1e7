"""Stationary distributions of row-stochastic matrices.

The stationary vector is the normalized left eigenvector with eigenvalue one.
It is computed by a direct linear solve of the balance equations with one row
replaced by the normalization constraint. The same stacked solve serves a single
matrix and a block of posterior draws; a solution that is not finite, has a
clearly negative entry, or misses the residual tolerance is rejected, never
repaired.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import NonStochasticError, NoUniqueStationaryError

ROW_SUM_TOL = 1e-10
RESIDUAL_TOL = 1e-8
NEGATIVE_CLAMP = 1e-12
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
    """Stationary vectors of a stack of row-stochastic matrices.

    Each matrix is solved as (P^T - I) x = 0 with the last equation replaced by
    sum(x) = 1. The replaced equation is redundant (columns of P^T - I sum to
    zero), so the system is nonsingular exactly when the stationary vector is
    unique. ``p`` has shape (B, I, I). Returns ``(pi, ok)``: ``pi[i]`` is the
    normalized solution for ``p[i]``, valid only where ``ok[i]``, i.e. where it
    is finite, no entry is below -1e-12 (smaller negatives are clamped to 0),
    its total is positive and its residual is within 1e-8. When the stack is
    singular, its members are solved one at a time and the singular ones are
    rejected.
    """
    b, n, _ = p.shape
    a = np.swapaxes(p, 1, 2) - np.eye(n)
    a[:, -1, :] = 1.0
    rhs = np.zeros((b, n, 1))
    rhs[:, -1, 0] = 1.0
    try:
        x = np.linalg.solve(a, rhs)[..., 0]
    except np.linalg.LinAlgError:
        x = np.full((b, n), np.nan)
        for i in range(b):
            try:
                x[i] = np.linalg.solve(a[i], rhs[i])[:, 0]
            except np.linalg.LinAlgError:
                pass
    with np.errstate(invalid="ignore", divide="ignore"):
        ok = np.isfinite(x).all(axis=1) & (x.min(axis=1) >= -NEGATIVE_CLAMP)
        x = np.where(x < 0, 0.0, x)
        total = x.sum(axis=1)
        ok &= total > 0
        pi = x / total[:, None]
        residual = np.abs((pi[:, None, :] @ p)[:, 0, :] - pi).max(axis=1)
    ok &= residual <= RESIDUAL_TOL
    return pi, ok


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
