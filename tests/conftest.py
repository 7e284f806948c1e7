import hypothesis
import numpy as np
import pytest

from chainuq.chains import TransitionCounts
from chainuq.sampling import PosteriorDraws, PriorSpec

hypothesis.settings.register_profile(
    "default", max_examples=25, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("default")


def build_draws(array, labels=None, prior=None, seed=0, visits=None):
    """Wrap a raw draw matrix in a PosteriorDraws with consistent metadata."""
    array = np.asarray(array, dtype=float)
    n = array.shape[1]
    if labels is None:
        labels = tuple(range(1, n + 1))
    if prior is None:
        prior = PriorSpec.default()
    if visits is None:
        visits = np.full(n, 10, dtype=np.int64)
    counts = TransitionCounts(
        counts=np.ones((n, n), dtype=np.int64),
        labels=tuple(labels),
        visits=np.asarray(visits, dtype=np.int64),
        n_chains=1,
    )
    return PosteriorDraws(draws=array, seed=seed, prior=prior, source=counts)


@pytest.fixture
def make_draws():
    return build_draws
