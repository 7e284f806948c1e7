"""Posterior sampling of the transition matrix and derived stationary draws.

Rows of the transition matrix get independent Dirichlet priors; conjugacy
with the observed transition counts makes each posterior row a Dirichlet
draw, realized through unit-scale gamma variates. Gamma shapes below one are
drawn in log space via the shape-boosting identity to avoid underflow at
tiny prior weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chains import TransitionCounts
from .errors import ConfigError, DegenerateRowError, NoUniqueStationaryError
from .stationary import REJECTED, _require_unique, _solve_stack

# Draws per spawned RNG stream. Blocks are always generated whole, so the
# layout does not depend on R.
BLOCK_DRAWS = 256
# Cap on the cells of one (B, I*, I*) block, so that large I* shrinks the
# block instead of the memory growing as I*^2; below I* = 129 it never binds.
BLOCK_CELLS = 1 << 22

PRIOR_MODES = ("default_reduced", "uniform_fixed", "matrix")


@dataclass(frozen=True)
class PriorSpec:
    """Dirichlet prior policy for the transition-matrix rows.

    Modes
    -----
    default_reduced
        epsilon = 1/I* on every cell of the observed-model matrix (and zero
        for models never sampled, which are excluded from the matrix). This
        weighs like one pseudo-observation per row and is numerically robust.
    uniform_fixed
        A caller-supplied scalar epsilon on every cell. epsilon = 0 yields
        the improper prior; it is legal only when every row has at least one
        positive count and is known to be less stable numerically.
    matrix
        An explicit nonnegative weight per cell, for samplers that only ever
        propose a structured subset of moves.
    """

    mode: str = "default_reduced"
    epsilon: float = 0.0
    epsilon_matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in PRIOR_MODES:
            raise ConfigError(f"unknown prior mode {self.mode!r}")
        if not np.isfinite(self.epsilon) or self.epsilon < 0:
            raise ConfigError(f"epsilon must be finite and >= 0, got {self.epsilon!r}")
        if self.mode == "matrix":
            if self.epsilon_matrix is None:
                raise ConfigError("matrix mode requires epsilon_matrix")
            m = np.asarray(self.epsilon_matrix, dtype=float)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ConfigError("epsilon_matrix must be square")
            if np.any(m < 0) or not np.all(np.isfinite(m)):
                raise ConfigError("epsilon_matrix entries must be finite and >= 0")
            object.__setattr__(self, "epsilon_matrix", m)
            m.flags.writeable = False

    @classmethod
    def default(cls) -> "PriorSpec":
        return cls(mode="default_reduced")

    @classmethod
    def fixed(cls, epsilon: float) -> "PriorSpec":
        return cls(mode="uniform_fixed", epsilon=float(epsilon))

    @classmethod
    def from_matrix(cls, matrix) -> "PriorSpec":
        return cls(mode="matrix", epsilon_matrix=np.array(matrix, dtype=float))

    def resolve(self, n_models: int) -> np.ndarray:
        """Per-cell Dirichlet weights for an I* x I* observed-model matrix."""
        if self.mode == "default_reduced":
            return np.full((n_models, n_models), 1.0 / n_models)
        if self.mode == "uniform_fixed":
            return np.full((n_models, n_models), float(self.epsilon))
        if self.epsilon_matrix.shape[0] != n_models:
            raise ConfigError(
                f"epsilon_matrix is {self.epsilon_matrix.shape[0]}x"
                f"{self.epsilon_matrix.shape[0]} but {n_models} models were observed"
            )
        return np.array(self.epsilon_matrix)

    def describe(self) -> str:
        if self.mode == "default_reduced":
            return "default_reduced (epsilon = 1/I* on observed models)"
        if self.mode == "uniform_fixed":
            return f"uniform_fixed (epsilon = {self.epsilon!r})"
        return "matrix (explicit per-cell weights)"


@dataclass(frozen=True)
class PosteriorDraws:
    """Stationary-distribution draws under the transition-matrix posterior.

    Attributes
    ----------
    draws : ndarray, shape (R, I)
        One simplex vector per draw, aligned with ``source.labels``.
    seed : int
        Root seed the draws were generated from.
    prior : PriorSpec
    source : TransitionCounts
    prior_mass : float
        Total Dirichlet prior weight actually used, summed over all cells;
        equals (I*)^2 * epsilon for the scalar policies.
    """

    draws: np.ndarray
    seed: int
    prior: PriorSpec
    source: TransitionCounts
    prior_mass: float

    def __post_init__(self):
        self.draws.flags.writeable = False

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]

    @property
    def n_models(self) -> int:
        return self.draws.shape[1]

    @property
    def labels(self) -> tuple:
        return self.source.labels

    @cached_property
    def label_to_index(self) -> dict:
        return self.source.label_to_index


class _GammaPlan:
    """Precomputed masks and shape slices for repeated gamma sampling.

    Shapes below one use the boosting identity G_a = G_{a+1} * U^(1/a),
    evaluated in log space so that draws at tiny shapes never underflow to
    zero. Shape exactly zero yields -inf (a degenerate point mass at zero).
    """

    def __init__(self, shapes: np.ndarray):
        shapes = np.asarray(shapes, dtype=float)
        self.shape = shapes.shape
        self.small = (shapes > 0) & (shapes < 1.0)
        self.large = shapes >= 1.0
        self.large_shapes = shapes[self.large]
        self.small_boosted = shapes[self.small] + 1.0
        self.small_inverse = 1.0 / shapes[self.small]
        self.n_small = int(self.small.sum())

    def log_variates(self, rng: np.random.Generator, n_matrices: int) -> np.ndarray:
        """Log-gamma variates for a stack of ``n_matrices`` in the plan's shape.

        The stream is consumed by three calls, in order: the shapes >= 1, the
        boosted small shapes, then the uniforms.
        """
        out = np.full((n_matrices,) + self.shape, -np.inf)
        if self.large_shapes.size:
            g = rng.standard_gamma(self.large_shapes, size=(n_matrices,) + self.large_shapes.shape)
            out[:, self.large] = np.log(g)
        if self.n_small:
            boosted = rng.standard_gamma(
                self.small_boosted, size=(n_matrices,) + self.small_boosted.shape
            )
            # log of a Uniform(0, 1] variate; avoids log(0)
            log_u = np.log1p(-rng.random((n_matrices, self.n_small)))
            out[:, self.small] = np.log(boosted) + log_u * self.small_inverse
        return out

    def rows(self, rng: np.random.Generator, n_matrices: int) -> np.ndarray:
        """Row-normalized gamma variates, ``n_matrices`` stacked."""
        log_g = self.log_variates(rng, n_matrices)
        log_g -= log_g.max(axis=-1, keepdims=True)
        w = np.exp(log_g)
        return w / w.sum(axis=-1, keepdims=True)


def sample_dirichlet(alpha, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Draw Dirichlet(alpha) samples via normalized gamma variates."""
    return _GammaPlan(alpha).rows(rng, n_samples)


def _posterior_shapes(counts: TransitionCounts, prior: PriorSpec) -> np.ndarray:
    """Dirichlet shapes of the row posteriors, with the zero-row guard."""
    shapes = counts.counts + prior.resolve(counts.n_models)
    zero_rows = np.flatnonzero(~np.any(shapes > 0, axis=1))
    if zero_rows.size:
        raise DegenerateRowError(counts.labels[int(zero_rows[0])])
    return shapes


def sample_transition_matrix(
    counts: TransitionCounts, prior: PriorSpec, rng: np.random.Generator
) -> np.ndarray:
    """One posterior draw of the transition matrix.

    Row i is Dirichlet(counts[i, :] + prior weights for row i); rows are
    mutually independent and each sums to one within 1e-12.

    Raises
    ------
    DegenerateRowError
        If some row has neither counts nor prior weight anywhere.
    """
    return _GammaPlan(_posterior_shapes(counts, prior)).rows(rng, 1)[0]


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
    Block k samples its transition matrices from its own RNG stream, spawned
    from ``seed`` by block index, and every block is generated whole before
    the result is truncated to ``n_draws``. Every matrix of a block, zero
    entries included, goes through one stacked GTH elimination, unclamped;
    transient states get exactly zero mass. Uniqueness is decided once, from
    the support of ``counts + prior``: a draw's support lies inside it, and
    dropping edges never lowers the number of closed classes (a draw whose
    underflowed zeros split it gets the vector of one closed class). Hence
    results are a pure function of ``(counts, prior, n_draws, seed)``, and
    draw r is the same for every ``n_draws > r`` (the prefix property).

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
        If ``n_draws`` is below 1 or ``seed`` is negative.
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
    prior_mass = float(prior.resolve(counts.n_models).sum())
    n = counts.n_models
    shapes = _posterior_shapes(counts, prior)
    if not (shapes > 0).all():
        try:
            _require_unique(shapes)
        except NoUniqueStationaryError as exc:
            raise NoUniqueStationaryError(f"draw 0: {exc}") from exc
    plan = _GammaPlan(shapes)
    block = _block_draws(n)
    n_blocks = -(-n_draws // block)
    streams = np.random.SeedSequence(seed).spawn(n_blocks)
    out = np.empty((n_draws, n))
    for k in range(n_blocks):
        start = k * block
        p = plan.rows(np.random.default_rng(streams[k]), block)[: n_draws - start]
        pi, ok = _solve_stack(p)
        if not ok.all():
            raise NoUniqueStationaryError(f"draw {start + int(np.argmin(ok))}: {REJECTED}")
        out[start : start + len(p)] = pi
    return PosteriorDraws(
        draws=out, seed=int(seed), prior=prior, source=counts, prior_mass=prior_mass
    )


def point_estimate(draws: PosteriorDraws, statistic: str = "mean") -> np.ndarray:
    """Componentwise point estimate over the posterior draws.

    The mean preserves the simplex constraint; the componentwise median does
    not and is therefore renormalized to sum to one.
    """
    if statistic == "mean":
        return draws.draws.mean(axis=0)
    if statistic == "median":
        med = np.median(draws.draws, axis=0)
        return med / med.sum()
    raise ConfigError(f"unknown point statistic {statistic!r}")
