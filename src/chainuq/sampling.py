"""Posterior sampling of the transition matrix and derived stationary draws.

Rows of the transition matrix get independent Dirichlet priors; conjugacy
with the observed transition counts makes each posterior row a Dirichlet
draw, made by numpy's ``Generator.dirichlet``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._pool import map_units
from .chains import TransitionCounts
from .errors import ConfigError, DegenerateRowError, NoUniqueStationaryError
from .stationary import REJECTED, _column_sums, _require_unique, _solve_stack

# Draws per spawned RNG stream. Blocks are always generated whole, so the
# layout does not depend on R.
BLOCK_DRAWS = 256
# Cap on the cells of one (I*, I*, B) block, so that large I* shrinks the
# block instead of the memory growing as I*^2; below I* = 129 it never binds.
BLOCK_CELLS = 1 << 22
# Cells of a work unit: consecutive blocks share one _dirichlet_rows
# normalisation and one GTH solve up to this size, since a unit per small
# block costs more in overhead than threads save: one replication of the
# desk coverage study (I* = 3, R = 1000) took 2.2-2.4 ms as set and
# 3.7-4.4 ms with a unit per block (2 shared CPUs). A two-thread pool kept
# between calls loses too: its R = 1000 draws at I* = 3 took 0.88-1.07 ms as
# two units against 0.53-0.59 ms as one. Larger blocks are a unit each.
POOL_CELLS = 1 << 16


@dataclass(frozen=True, eq=False)
class PriorSpec:
    """Dirichlet prior policy for the transition-matrix rows.

    The rule follows from which field is set; setting both is an error.

    neither (``default()``)
        epsilon = 1/I* on every cell of the observed-model matrix (and zero
        for models never sampled, which are excluded from the matrix). This
        weighs like one pseudo-observation per row and is numerically robust.
    epsilon (``fixed(epsilon)``)
        A caller-supplied scalar on every cell. epsilon = 0 yields the
        improper prior; it is legal only when every row has at least one
        positive count and is known to be less stable numerically.
    epsilon_matrix (``from_matrix(matrix)``)
        An explicit nonnegative weight per cell, for samplers that only ever
        propose a structured subset of moves.

    Two specs are equal, and hash alike, when they hold equal values, matrices
    compared cell by cell.
    """

    epsilon: float | None = None
    epsilon_matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.epsilon is not None:
            if self.epsilon_matrix is not None:
                raise ConfigError("set epsilon or epsilon_matrix, not both")
            try:
                epsilon = float(self.epsilon)
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(f"epsilon must be a number, got {self.epsilon!r}") from None
            if not (epsilon == 0 or np.finfo(float).tiny <= epsilon < np.inf):  # NaN fails both
                raise ConfigError(f"epsilon must be finite and >= 0, not subnormal, got {self.epsilon!r}")
            object.__setattr__(self, "epsilon", epsilon)
        elif self.epsilon_matrix is not None:
            m = np.asarray(self.epsilon_matrix, dtype=float)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ConfigError("epsilon_matrix must be square")
            if not np.all((m == 0) | (np.finfo(float).tiny <= m) & (m < np.inf)):
                raise ConfigError("epsilon_matrix entries must be finite and >= 0, not subnormal")
            object.__setattr__(self, "epsilon_matrix", m)
            m.flags.writeable = False

    def _key(self) -> tuple:
        m = self.epsilon_matrix
        return self.epsilon, None if m is None else tuple(map(tuple, m.tolist()))

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, PriorSpec) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    @classmethod
    def default(cls) -> "PriorSpec":
        return cls()

    @classmethod
    def fixed(cls, epsilon: float) -> "PriorSpec":
        return cls(epsilon=epsilon)

    @classmethod
    def from_matrix(cls, matrix) -> "PriorSpec":
        return cls(epsilon_matrix=np.array(matrix, dtype=float))

    def resolve(self, n_models: int) -> np.ndarray:
        """Per-cell Dirichlet weights for an I* x I* observed-model matrix."""
        if self.epsilon_matrix is None:
            eps = 1.0 / n_models if self.epsilon is None else self.epsilon
            return np.full((n_models, n_models), eps)
        if self.epsilon_matrix.shape[0] != n_models:
            raise ConfigError(
                f"epsilon_matrix is {self.epsilon_matrix.shape[0]}x"
                f"{self.epsilon_matrix.shape[0]} but {n_models} models were observed"
            )
        return np.array(self.epsilon_matrix)


@dataclass(frozen=True, eq=False)
class PosteriorDraws:
    """Stationary-distribution draws under the transition-matrix posterior.

    Attributes
    ----------
    draws : ndarray, shape (R, I)
        One simplex vector per draw, aligned with ``source.labels``; the
        read-only transpose of a C-contiguous (I, R) array, one row per model.
    seed : int
        Root seed the draws were generated from.
    prior : PriorSpec
    source : TransitionCounts

    Derived, read-only: ``n_draws, n_models`` is ``draws.shape``; ``labels``
    is ``source.labels``; ``prior_mass``, the total prior weight the draws
    were sampled with, is ``prior.resolve(n_models).sum()``.
    """

    draws: np.ndarray
    seed: int
    prior: PriorSpec
    source: TransitionCounts

    def __post_init__(self):
        self.draws.flags.writeable = False

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]

    @property
    def n_models(self) -> int:
        return self.draws.shape[1]

    @property
    def prior_mass(self) -> float:
        return float(self.prior.resolve(self.n_models).sum())

    @property
    def labels(self) -> tuple:
        return self.source.labels


def _dirichlet_rows(shapes: np.ndarray, rngs, per_rng: int) -> np.ndarray:
    """``per_rng`` Dirichlet draws of every row of ``shapes`` from each generator, on the last axis.

    (I, I) shapes give an (I, I, B) stack and (I,) shapes an (I, B) one.
    Generator i fills the i-th run of ``per_rng`` draws with one
    ``Generator.dirichlet`` call per row, in row order; numpy breaks sticks
    over beta variates where every shape of a row is below 0.1, so tiny
    shapes do not underflow. Each draw is then divided by its sum in cell
    order: a zero shape gives exactly 0, a lone positive one exactly 1, and
    a matrix gets the same bits in any stack.
    """
    shapes = np.asarray(shapes, dtype=float)
    w = np.empty(shapes.shape + (len(rngs) * per_rng,))
    for row, out in zip(shapes.reshape(-1, shapes.shape[-1]), w.reshape(-1, *w.shape[-2:])):
        out[...] = np.concatenate([rng.dirichlet(row, per_rng) for rng in rngs]).T
    w /= _column_sums(w)[..., None, :]
    return w


def _allocate(shape, message: str) -> np.ndarray:
    """``np.empty(shape)``, or a ConfigError with ``message`` when numpy cannot allocate it."""
    try:
        return np.empty(shape)
    except (MemoryError, ValueError):  # numpy raises ValueError past 2**63 bytes
        raise ConfigError(message) from None


def _posterior_shapes(counts: TransitionCounts, prior: PriorSpec) -> np.ndarray:
    """Dirichlet shapes of the row posteriors, with the prior-mass and zero-row guards."""
    weights = prior.resolve(counts.n_models)
    with np.errstate(over="ignore"):  # else a row's gamma variates could sum past DBL_MAX
        if not weights.sum() < np.inf:
            raise ConfigError(f"prior weights over {counts.n_models} models sum past DBL_MAX (--epsilon)")
    shapes = counts.counts + weights
    live_rows = (shapes > 0).any(axis=1)
    if not live_rows.all():
        raise DegenerateRowError(counts.labels[int(np.argmin(live_rows))])
    return shapes


def sample_transition_matrix(
    counts: TransitionCounts, prior: PriorSpec, rng: np.random.Generator
) -> np.ndarray:
    """One posterior draw of the transition matrix.

    Row i is Dirichlet(counts[i, :] + prior weights for row i); rows are
    mutually independent and each sums to one within 1e-12.

    Raises
    ------
    ConfigError
        If the prior's total mass is not finite.
    DegenerateRowError
        If some row has neither counts nor prior weight anywhere.
    """
    return _dirichlet_rows(_posterior_shapes(counts, prior), [rng], 1)[..., 0]


def _block_draws(n_models: int) -> int:
    return max(1, min(BLOCK_DRAWS, BLOCK_CELLS // (n_models * n_models)))


def draw_posterior(
    counts: TransitionCounts,
    prior: PriorSpec | None = None,
    n_draws: int = 1000,
    seed: int = 0,
) -> PosteriorDraws:
    """Draw stationary-distribution samples from the transition-matrix posterior.

    Draws come in blocks of 256 (fewer only when I* > 128, to bound memory).
    Block k draws its transition matrices from its own RNG stream,
    ``SeedSequence(seed).spawn(n)[k]`` made inside its unit, and every block is
    generated whole before the result is truncated to ``n_draws``. Blocks
    are the unit of streams; work units group them. Consecutive blocks form
    units of up to ``POOL_CELLS`` cells (one block each from I* = 12 up),
    whose rows are normalised and solved once, and units run concurrently
    on the CPUs the process may use, each writing its own draws. Every step
    acts on one matrix at a time, so grouping changes no bit. Every matrix
    of a unit, zero entries included, goes through one stacked GTH
    elimination, unclamped; transient states get exactly zero mass.
    Uniqueness is decided once, from the support of ``counts + prior``:
    a draw's support lies inside it, and dropping edges never lowers the
    number of closed classes (a draw whose underflowed zeros split it gets
    the vector of one closed class). Hence results are a pure function of
    ``(counts, prior, n_draws, seed)``, not of the number of CPUs or of how
    blocks form units, and draw r is the same for every ``n_draws > r`` (the
    prefix property).

    Parameters
    ----------
    counts : TransitionCounts
    prior : PriorSpec, optional
        Defaults to the reduced 1/I* policy.
    n_draws : int
        Number of posterior draws (R >= 1). 1000 is usually enough for SDs;
        use 5000 or more to approximate full densities.
    seed : int
        Root seed; recorded on the result.

    Raises
    ------
    ConfigError
        If ``n_draws`` is below 1 or ``seed`` is negative, the prior's total
        mass is not finite, or the (I*, R) output cannot be allocated.
    DegenerateRowError
        Propagated from row sampling.
    NoUniqueStationaryError
        If the shape support has more than one closed class (reported as
        draw 0), or a draw misses the residual check; the message names it.
    """
    if n_draws < 1:
        raise ConfigError("n_draws must be at least 1")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    if prior is None:
        prior = PriorSpec.default()
    n = counts.n_models
    shapes = _posterior_shapes(counts, prior)
    try:
        _require_unique(shapes)
    except NoUniqueStationaryError as exc:
        raise NoUniqueStationaryError(f"draw 0: {exc}") from exc
    out = _allocate((n, n_draws), f"{n_draws} draws of {n} models do not fit in memory (--draws)")
    block = _block_draws(n)
    n_blocks = -(-n_draws // block)
    per_unit = max(1, POOL_CELLS // (block * n * n))
    units = [range(a, min(a + per_unit, n_blocks)) for a in range(0, n_blocks, per_unit)]

    def fill(unit):
        start, stop = unit.start * block, min(unit.stop * block, n_draws)
        rngs = [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,))) for k in unit]
        pi, ok = _solve_stack(_dirichlet_rows(shapes, rngs, block)[..., : stop - start])
        if not ok.all():
            raise NoUniqueStationaryError(f"draw {start + int(np.argmin(ok))}: {REJECTED}")
        out[:, start:stop] = pi

    map_units(fill, units)
    return PosteriorDraws(draws=out.T, seed=int(seed), prior=prior, source=counts)

