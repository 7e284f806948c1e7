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
from dataclasses import dataclass, field

import numpy as np

from .chains import LabeledChain, count_transitions, index_chain
from .ess import effective_sample_size, iid_posterior
from .sampling import PriorSpec, draw_posterior
from .summaries import summarize

DEFAULT_LEVELS = (0.05, 0.95)


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
    """

    pi_true: tuple
    beta: float
    iterations: int
    seed: int = 0

    def __post_init__(self):
        pi = np.asarray(self.pi_true, dtype=float)
        if pi.ndim != 1 or pi.size < 1 or np.any(pi < 0):
            raise ValueError("pi_true must be a nonnegative vector")
        if abs(pi.sum() - 1.0) > 1e-9:
            raise ValueError(f"pi_true sums to {pi.sum()!r}, expected 1")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
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
    return index_chain((states + 1).tolist())


def _derived_seeds(seed: int, beta_index: int, replication: int) -> tuple[int, int]:
    """Independent (chain, draws) seeds for one replication cell."""
    children = np.random.SeedSequence([seed, beta_index, replication]).spawn(2)
    return (
        int(children[0].generate_state(1, np.uint64)[0]),
        int(children[1].generate_state(1, np.uint64)[0]),
    )


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
        return float(np.nanmedian(self.t_eff[beta]))

    def to_dict(self) -> dict:
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
            "t_eff_median": {str(b): self.median_t_eff(b) for b in self.betas},
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


def _embed(values: np.ndarray, labels: tuple, n_states: int, fill: float = 0.0) -> np.ndarray:
    """Map label-aligned values onto the full 1..n_states component grid."""
    out = np.full(n_states, fill)
    for pos, lab in enumerate(labels):
        out[lab - 1] = values[pos]
    return out


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
    """
    pi = np.asarray(pi_true, dtype=float)
    n_states = pi.size
    betas = tuple(float(b) for b in betas)
    lo, hi = float(levels[0]), float(levels[1])
    prior = PriorSpec.default()

    cells = []
    t_eff: dict = {}
    for b_idx, beta in enumerate(betas):
        sd_markov = np.empty((replications, n_states))
        sd_iid = np.empty((replications, n_states))
        cov_markov = np.empty((replications, n_states), dtype=bool)
        cov_iid = np.empty((replications, n_states), dtype=bool)
        ess_vals = np.empty(replications)
        for rep in range(replications):
            chain_seed, draw_seed = _derived_seeds(seed, b_idx, rep)
            chain = generate_chain(
                MixtureChainSpec(tuple(pi), beta, iterations, chain_seed)
            )
            counts = count_transitions(chain)
            draws = draw_posterior(counts, prior, n_draws=n_draws, seed=draw_seed)
            summary = summarize(draws, levels=(lo, hi))
            m_sd = _embed(summary.sd, counts.labels, n_states)
            m_lo = _embed(summary.lower, counts.labels, n_states)
            m_hi = _embed(summary.upper, counts.labels, n_states)
            sd_markov[rep] = m_sd
            cov_markov[rep] = (m_lo <= pi) & (pi <= m_hi)
            ess_vals[rep] = effective_sample_size(draws).t_eff

            visits = _embed(counts.visits.astype(float), counts.labels, n_states)
            ipost = iid_posterior(visits)
            sd_iid[rep] = ipost.sd()
            i_lo = ipost.quantile(lo)
            i_hi = ipost.quantile(hi)
            cov_iid[rep] = (i_lo <= pi) & (pi <= i_hi)
        t_eff[beta] = ess_vals
        cells.append(
            MethodSummary(
                beta=beta,
                method="markov",
                mean_sd=sd_markov.mean(axis=0),
                coverage=cov_markov.mean(axis=0),
                joint_coverage=float(cov_markov.all(axis=1).mean()),
                replications=replications,
            )
        )
        cells.append(
            MethodSummary(
                beta=beta,
                method="iid",
                mean_sd=sd_iid.mean(axis=0),
                coverage=cov_iid.mean(axis=0),
                joint_coverage=float(cov_iid.all(axis=1).mean()),
                replications=replications,
            )
        )
        if progress is not None:
            progress(
                f"beta={beta:g}: markov coverage "
                f"{np.round(cov_markov.mean(axis=0), 3).tolist()}, "
                f"iid coverage {np.round(cov_iid.mean(axis=0), 3).tolist()}"
            )
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
