"""Uncertainty quantification for posterior model probabilities from
discrete model-indicator MCMC output.

The package fits a first-order Markov model to a sampled model-indicator
sequence, draws from the conjugate posterior of its transition matrix, maps
each draw to a stationary distribution, and summarizes the resulting
uncertainty: componentwise spreads and intervals, Bayes factors, model-subset
probabilities, rank stability, and an effective sample size for the chain.
"""

__version__ = "0.1.0"

from .chains import (
    LabeledChain,
    TransitionCounts,
    count_transitions,
    index_chain,
    merge_counts,
    read_chain_file,
)
from .dirichlet import DirichletFit, fit_dirichlet
from .errors import (
    ChainFileError,
    ChainUQError,
    ConfigError,
    DegenerateRowError,
    DegenerateSamplesError,
    EmptyChainError,
    EmptyMergeError,
    InsufficientTransitionsError,
    LabelError,
    NonStochasticError,
    NoUniqueStationaryError,
)
from .ess import EssEstimate, IidPosterior, effective_sample_size, iid_posterior
from .benchmark import (
    CoverageResult,
    MixtureChainSpec,
    generate_chain,
    run_coverage_experiment,
)
from .sampling import (
    PosteriorDraws,
    PriorSpec,
    draw_posterior,
    sample_transition_matrix,
)
from .stationary import CommunicatingClasses, classify_support, stationary
from .summaries import (
    BayesFactorSummary,
    RankReport,
    SubsetSummary,
    UncertaintySummary,
    bayes_factors,
    rank_stability,
    subset_probability,
    summarize,
)

__all__ = [
    "__version__",
    "BayesFactorSummary",
    "ChainFileError",
    "ChainUQError",
    "CommunicatingClasses",
    "ConfigError",
    "CoverageResult",
    "DegenerateRowError",
    "DegenerateSamplesError",
    "DirichletFit",
    "EmptyChainError",
    "EmptyMergeError",
    "EssEstimate",
    "IidPosterior",
    "InsufficientTransitionsError",
    "LabelError",
    "LabeledChain",
    "MixtureChainSpec",
    "NonStochasticError",
    "NoUniqueStationaryError",
    "PosteriorDraws",
    "PriorSpec",
    "RankReport",
    "SubsetSummary",
    "TransitionCounts",
    "UncertaintySummary",
    "bayes_factors",
    "classify_support",
    "count_transitions",
    "draw_posterior",
    "effective_sample_size",
    "fit_dirichlet",
    "generate_chain",
    "iid_posterior",
    "index_chain",
    "merge_counts",
    "rank_stability",
    "read_chain_file",
    "run_coverage_experiment",
    "sample_transition_matrix",
    "stationary",
    "subset_probability",
    "summarize",
]
