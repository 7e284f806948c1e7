"""Synthetic autocorrelated index chains and the coverage study.

The generator produces a chain with a known stationary distribution: each
step copies the previous state with probability beta and otherwise draws a
fresh state from the target distribution. Lag-k autocorrelation of the
occupancy indicators is beta^k, so beta directly tunes how much the chain's
information content falls short of independent sampling.

The coverage study fits both the transition-matrix model and the
independent-sampling baseline to the same chains and records, per
replication, the posterior SDs, whether the credibility intervals cover the
generating probabilities, and the effective sample size.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .chains import LabeledChain, count_transitions
from .errors import ConfigError
from .ess import _betaincinv, effective_sample_size, iid_posterior
from .sampling import PriorSpec, draw_posterior
from .summaries import DEFAULT_LEVELS, _check_levels, summarize


@dataclass(frozen=True)
class MixtureChainSpec:
    """Configuration of one synthetic autocorrelated chain.

    Attributes
    ----------
    pi_true : tuple of float
        Target stationary distribution (a simplex vector).
    beta : float
        Copy probability in [0, 1]; 0 gives independent draws, 1 a constant
        chain.
    iterations : int
        Chain length T >= 1.
    seed : int

    Raises
    ------
    ConfigError
        If ``pi_true`` is not a probability vector (NaN included), ``beta``
        lies outside [0, 1] or ``iterations`` is below 1.
    """

    pi_true: tuple
    beta: float
    iterations: int
    seed: int = 0

    def __post_init__(self):
        pi = np.asarray(self.pi_true, dtype=float)
        # every comparison with NaN is false, so these tests reject a NaN
        if not (pi.ndim == 1 and pi.size and np.all(pi >= 0) and abs(pi.sum() - 1.0) <= 1e-9):
            raise ConfigError(
                f"--pi must be a probability vector summing to 1 (pi_true), got {pi.tolist()}"
            )
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"--beta-grid values must lie in [0, 1] (beta), got {self.beta!r}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        object.__setattr__(self, "pi_true", tuple(float(v) for v in pi))


def generate_chain(spec: MixtureChainSpec) -> LabeledChain:
    """Generate a chain from the copy/fresh-draw mixture process.

    The first state is drawn from the target distribution, so the chain is
    stationary from the start and every iteration is marginally distributed
    as ``pi_true``. Labels are the 1-based state numbers.
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    pi = np.asarray(spec.pi_true)
    n_states = pi.size
    t = spec.iterations
    first = rng.choice(n_states, p=pi)
    copy = rng.random(t - 1) < spec.beta
    fresh = rng.choice(n_states, p=pi, size=t - 1)
    # step i repeats the state drawn at the last step <= i that did not copy
    src = np.arange(t)
    src[1:][copy] = 0
    states = np.concatenate(([first], fresh))[np.maximum.accumulate(src)]
    # index the states by first appearance, as index_chain would
    values, first_seen, inverse = np.unique(states, return_index=True, return_inverse=True)
    order = np.argsort(first_seen)
    return LabeledChain(
        labels=tuple((values[order] + 1).tolist()),
        indices=np.argsort(order)[inverse],
    )


def _derived_seeds(seed: int, beta_index: int, replication: int) -> tuple[int, int]:
    """Independent (chain, draws) seeds for one replication cell."""
    children = np.random.SeedSequence([seed, beta_index, replication]).spawn(2)
    return (
        int(children[0].generate_state(1, np.uint64)[0]),
        int(children[1].generate_state(1, np.uint64)[0]),
    )


# the two uncertainty methods, in the order their cells are reported
METHODS = ("markov", "iid")


@dataclass(frozen=True)
class MethodSummary:
    """Aggregates for one (beta, method) cell of the coverage study."""

    beta: float
    method: str
    mean_sd: np.ndarray
    coverage: np.ndarray
    joint_coverage: float
    replications: int


@dataclass(frozen=True)
class CoverageResult:
    """Full output of the coverage study.

    ``cells`` holds per-(beta, method) aggregates; ``t_eff`` the per-
    replication effective sample sizes of the transition-matrix method,
    keyed by beta (NaN where a replication observed a single model).
    """

    pi_true: tuple
    betas: tuple
    iterations: int
    replications: int
    n_draws: int
    seed: int
    levels: tuple
    cells: tuple
    t_eff: dict = field(repr=False)

    def cell(self, beta: float, method: str) -> MethodSummary:
        for c in self.cells:
            if c.method == method and c.beta == beta:
                return c
        raise KeyError((beta, method))

    def median_t_eff(self, beta: float) -> float:
        """Median over the replications that define t_eff; NaN if none does."""
        t_eff = self.t_eff[beta]
        return float("nan") if np.isnan(t_eff).all() else float(np.nanmedian(t_eff))

    def to_dict(self) -> dict:
        medians = {b: self.median_t_eff(b) for b in self.betas}
        return {
            "pi_true": list(self.pi_true),
            "betas": list(self.betas),
            "iterations": self.iterations,
            "replications": self.replications,
            "draws": self.n_draws,
            "seed": self.seed,
            "ci_levels": list(self.levels),
            "cells": [
                {
                    "beta": c.beta,
                    "method": c.method,
                    "mean_posterior_sd": c.mean_sd.tolist(),
                    "coverage": c.coverage.tolist(),
                    "joint_coverage": c.joint_coverage,
                    "replications": c.replications,
                }
                for c in self.cells
            ],
            # JSON has no NaN: an undefined median is null
            "t_eff_median": {str(b): None if np.isnan(m) else m for b, m in medians.items()},
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            [
                "beta",
                "method",
                "component",
                "mean_posterior_sd",
                "coverage",
                "joint_coverage",
                "replications",
                "t_eff_median",
            ]
        )
        for c in self.cells:
            ess_med = repr(self.median_t_eff(c.beta)) if c.method == "markov" else ""
            for comp in range(len(self.pi_true)):
                writer.writerow(
                    [
                        repr(c.beta),
                        c.method,
                        comp + 1,
                        repr(float(c.mean_sd[comp])),
                        repr(float(c.coverage[comp])),
                        repr(c.joint_coverage),
                        c.replications,
                        ess_med,
                    ]
                )
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def run_coverage_experiment(
    pi_true,
    betas,
    iterations: int = 1000,
    replications: int = 200,
    n_draws: int = 1000,
    seed: int = 0,
    levels=DEFAULT_LEVELS,
    progress=None,
) -> CoverageResult:
    """Paired coverage study of the Markov and i.i.d. uncertainty methods.

    For every beta and replication a fresh chain is generated; both methods
    are then evaluated on that same chain. The whole experiment is a pure
    function of its arguments, so a rerun with the same seed reproduces the
    result exactly.

    Parameters
    ----------
    pi_true : array-like
        Generating stationary distribution.
    betas : iterable of float
        Autocorrelation grid.
    iterations, replications, n_draws, seed : int
        Chain length, replications per beta, posterior draws per fit, and
        the master seed. The defaults keep a desk-scale run fast; a
        full-scale study uses 500 replications with 5000 draws.
    progress : callable, optional
        Called as ``progress(message)`` after each beta finishes.

    Raises
    ------
    ConfigError
        Before the first replication, for any setting out of range
        (`MixtureChainSpec` checks ``pi_true`` and each beta) or when scipy,
        which the i.i.d. baseline needs, is not installed.
    """
    if iterations < 2 or replications < 1 or n_draws < 2:
        raise ConfigError("--iterations and --draws must be >= 2, --replications >= 1")
    if seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {seed}")
    lo, hi = _check_levels(levels)
    pi = np.asarray(pi_true, dtype=float)
    n_states = pi.size
    betas = tuple(float(b) for b in betas)
    if not betas:
        raise ConfigError("--beta-grid must name at least one beta")
    specs = [MixtureChainSpec(tuple(pi), beta, iterations) for beta in betas]
    _betaincinv()  # without scipy, fail here rather than after the first fit
    prior = PriorSpec.default()

    cells = []
    t_eff: dict = {}
    for b_idx, (beta, spec) in enumerate(zip(betas, specs)):
        sd = {m: np.empty((replications, n_states)) for m in METHODS}
        covered = {m: np.empty((replications, n_states), dtype=bool) for m in METHODS}
        ess_vals = np.empty(replications)
        for rep in range(replications):
            chain_seed, draw_seed = _derived_seeds(seed, b_idx, rep)
            chain = generate_chain(replace(spec, seed=chain_seed))
            counts = count_transitions(chain)
            draws = draw_posterior(counts, prior, n_draws=n_draws, seed=draw_seed)
            ess_vals[rep] = effective_sample_size(draws).t_eff
            # labels are the 1-based state numbers; unvisited states stay 0
            states = np.asarray(counts.labels) - 1
            summary = summarize(draws, levels=(lo, hi))
            markov = np.zeros((3, n_states))
            markov[:, states] = summary.sd, summary.lower, summary.upper
            ipost = iid_posterior(np.bincount(states, counts.visits, minlength=n_states))
            iid = (ipost.sd(), ipost.quantile(lo), ipost.quantile(hi))
            for m, (m_sd, m_lo, m_hi) in zip(METHODS, (markov, iid)):
                sd[m][rep] = m_sd
                covered[m][rep] = (m_lo <= pi) & (pi <= m_hi)
        t_eff[beta] = ess_vals
        beta_cells = [
            MethodSummary(
                beta=beta,
                method=m,
                mean_sd=sd[m].mean(axis=0),
                coverage=covered[m].mean(axis=0),
                joint_coverage=float(covered[m].all(axis=1).mean()),
                replications=replications,
            )
            for m in METHODS
        ]
        cells += beta_cells
        if progress is not None:
            progress(f"beta={beta:g}: " + ", ".join(
                f"{c.method} coverage {np.round(c.coverage, 3).tolist()}" for c in beta_cells
            ))
    return CoverageResult(
        pi_true=tuple(float(v) for v in pi),
        betas=betas,
        iterations=int(iterations),
        replications=int(replications),
        n_draws=int(n_draws),
        seed=int(seed),
        levels=(lo, hi),
        cells=tuple(cells),
        t_eff=t_eff,
    )
