"""Stationary distributions of row-stochastic matrices.

The stationary vector is the normalized left eigenvector with eigenvalue one,
computed by GTH elimination (Grassmann, Taksar & Heyman 1985). It does no
subtraction, so every component keeps its relative accuracy however small
(O'Cinneide 1993), and transient states get exactly zero mass. One stacked
elimination, summing in one order for every stack size, serves a single
matrix and a block of posterior draws, so ``stationary(p)`` equals p's solve
in any stack bit for bit. A solution that misses the residual tolerance is
rejected, never repaired.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonStochasticError, NoUniqueStationaryError

ROW_SUM_TOL = 1e-10
RESIDUAL_TOL = 1e-8
REJECTED = (
    "failed to resolve the stationary distribution to the required residual tolerance"
)


@dataclass(frozen=True)
class CommunicatingClasses:
    """Strongly connected components of the positive-entry digraph, by smallest member."""

    classes: tuple
    closed: tuple

    @property
    def n_closed(self) -> int:
        return int(sum(self.closed))


def classify_support(matrix) -> CommunicatingClasses:
    """Communicating classes of a nonnegative matrix's support graph.

    Reachability is the boolean closure of ``I + A``, taken by repeated
    squaring in about log2(I) matmuls; i and j communicate when each reaches
    the other. Classes are listed by their smallest member. A class is closed
    when nothing it reaches lies outside it; a unique stationary distribution
    exists iff exactly one class is closed.
    """
    adj = np.asarray(matrix, dtype=float) > 0
    reach, wider = None, adj | np.eye(len(adj), dtype=bool)
    while not np.array_equal(reach, wider):
        reach = wider
        step = reach.astype(np.float32)  # counts of 2-step paths are at most I: exact
        wider = (step @ step) > 0
    same = reach & reach.T
    firsts = np.flatnonzero(~np.tril(same, -1).any(axis=1))  # smallest members
    classes = tuple(tuple(np.flatnonzero(same[i]).tolist()) for i in firsts)
    closed = tuple((reach[firsts].sum(axis=1) == same[firsts].sum(axis=1)).tolist())
    return CommunicatingClasses(classes, closed)


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


def _require_unique(support: np.ndarray) -> None:
    """Raise unless the support graph of ``support`` has one closed class.

    A strictly positive matrix is irreducible and passes unclassified.

    Raises
    ------
    NoUniqueStationaryError
        If more than one communicating class is closed.
    """
    if (support > 0).all():
        return
    n_closed = classify_support(support).n_closed
    if n_closed != 1:
        raise NoUniqueStationaryError(
            f"support graph has {n_closed} closed communicating "
            "classes; the stationary distribution is not unique"
        )


def _column_sums(v: np.ndarray) -> np.ndarray:
    """Sums down axis -2 of a (..., k, B) stack in row order; numpy sums a lone column pairwise."""
    if v.shape[-1] > 1:
        return np.add.reduce(v, axis=-2)
    return np.add.accumulate(v, axis=-2)[..., -1, :]


def _solve_stack(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stationary vectors of an (I, I, B) stack by GTH elimination; ``p`` is not modified.

    Matrix b is ``p[..., b]``; one contiguous copy takes one rank-1 update
    per pivot. Step k = I-1, ..., 1 censors state k out of the chain on 0..k:
    it divides row k by the state's outflow s_k to lower states, summed
    rather than formed as 1 - p[k, k], so every entry of the row stays <= 1
    even when s_k is subnormal. With no subtraction every component keeps
    its relative accuracy. A zero outflow means k reaches no lower state;
    given a unique stationary distribution, the largest such k is then the
    smallest member of the closed class and all states below it are
    transient, so that step leaves its zero row undivided and back
    substitution starts at k with x[k] = 1 and exact zeros below. Back
    substitution sets x[k] to x[:k] . a[:k, k] / s_k, scaling x[:k] down
    instead wherever that would exceed 1, so no x overflows. Sums run in
    state order for every stack size, so a member's bits do not depend on
    the stack around it. Returns ``(pi, ok)``: column b of the C-contiguous
    (I, B) ``pi`` is valid where ``ok[b]``, i.e. where its residual
    ``|pi P - pi|`` is within 1e-8 (NaN fails).
    """
    n, _, b = p.shape
    a = p.copy()
    outflow = np.zeros((n, b))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n - 1, 0, -1):
            s = outflow[k] = _column_sums(a[k, :k])
            np.divide(a[k, :k], s, out=a[k, :k], where=s != 0)  # a zero outflow leaves a zero row
            a[:k, :k] += a[:k, k, None] * a[None, k, :k]
        if outflow[1:].all():  # every state above 0 has outflow: all start at state 0
            x = np.zeros((n, b))
            x[0] = 1.0
        else:
            ks = np.arange(n)[:, None]
            start = (ks * (outflow == 0)).max(axis=0)
            x = (ks == start).astype(float)
            # up to start, x[:k] is zero, and dividing by one keeps x[k] as it is
            outflow[ks <= start] = 1.0
        for k in range(1, n):
            dot = _column_sums(x[:k] * a[:k, k]) + x[k]
            t = np.maximum(dot, outflow[k])
            x[:k] *= outflow[k] / t
            np.divide(dot, t, out=x[k])
        x /= _column_sums(x)
        residual = np.abs(np.einsum("ib,ijb->jb", x, p) - x)
    return x, (residual <= RESIDUAL_TOL).all(axis=0)


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
    _require_unique(p)
    pi, ok = _solve_stack(p[..., None])
    if not ok[0]:
        raise NoUniqueStationaryError(REJECTED)
    return pi[:, 0]
