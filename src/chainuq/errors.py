"""Exception types shared across the package.

Each class carries the CLI's exit code and stderr label, so this module alone
decides which failure exits how: ``1`` input error (an empty or too short
chain, an empty merge, an unparsable chain file; the CLI adds ``OSError``),
``2`` numerical failure (a degenerate row, a non-stochastic matrix, no unique
stationary vector, unusable samples), ``3`` config error (a bad setting, an
unknown or repeated label). The base class's ``2``, ``error`` is the fallback
for a class that sets neither. The two config classes are also
``ValueError``s, as a bad argument is.
"""


class ChainUQError(Exception):
    """Base class for all package-specific errors."""
    exit_code, kind = 2, "error"


class EmptyChainError(ChainUQError):
    """A chain or visit-count vector contains no observations."""
    exit_code, kind = 1, "input error"


class InsufficientTransitionsError(ChainUQError):
    """A chain is too short to contain a single transition."""
    exit_code, kind = 1, "input error"


class EmptyMergeError(ChainUQError):
    """An empty collection of count matrices was merged."""
    exit_code, kind = 1, "input error"


class ChainFileError(ChainUQError):
    """A chain file could not be parsed."""
    exit_code, kind = 1, "input error"


class DegenerateRowError(ChainUQError):
    """A transition-matrix row has no strictly positive Dirichlet parameter."""
    exit_code, kind = 2, "numerical failure"

    def __init__(self, label):
        self.label = label
        super().__init__(
            f"row for model {label!r} has all-zero counts and "
            "all-zero prior weight; its posterior is undefined"
        )


class NonStochasticError(ChainUQError):
    """A matrix violates the row-stochastic contract."""
    exit_code, kind = 2, "numerical failure"


class NoUniqueStationaryError(ChainUQError):
    """The stationary distribution is not unique (or could not be resolved)."""
    exit_code, kind = 2, "numerical failure"


class DegenerateSamplesError(ChainUQError):
    """Simplex samples are unusable for a Dirichlet fit."""
    exit_code, kind = 2, "numerical failure"


class LabelError(ChainUQError, ValueError):
    """A model label or subset name is unknown, empty or repeated."""
    exit_code, kind = 3, "config error"


class ConfigError(ChainUQError, ValueError):
    """Invalid run configuration."""
    exit_code, kind = 3, "config error"
