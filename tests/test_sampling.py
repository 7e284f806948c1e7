import dataclasses
import os
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.stats as ss
from hypothesis import given, settings
from hypothesis import strategies as st

from chainuq import _pool, sampling
from chainuq.benchmark import run_coverage_experiment
from chainuq.chains import TransitionCounts, count_transitions, index_chain
from chainuq.errors import ConfigError, DegenerateRowError, NoUniqueStationaryError
from chainuq.ess import effective_sample_size, iid_posterior
from chainuq.sampling import (
    PosteriorDraws,
    PriorSpec,
    draw_posterior,
    sample_transition_matrix,
)
from chainuq.summaries import bayes_factors, rank_stability, subset_probability, summarize


def make_counts(matrix, labels=None):
    matrix = np.asarray(matrix, dtype=np.int64)
    n = matrix.shape[0]
    if labels is None:
        labels = tuple(range(1, n + 1))
    visits = matrix.sum(axis=1)
    visits = visits + np.eye(n, dtype=np.int64)[n - 1]  # pretend the chain ended in the last state
    return TransitionCounts(
        counts=matrix,
        labels=tuple(labels),
        visits=visits,
        n_chains=1,
    )


class TestPriorSpec:
    def test_default_reduced_resolves_to_one_over_n(self):
        eps = PriorSpec.default().resolve(4)
        assert np.allclose(eps, 0.25)

    def test_fixed_scalar(self):
        eps = PriorSpec.fixed(0.5).resolve(3)
        assert np.allclose(eps, 0.5)

    def test_matrix_mode_roundtrip(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(PriorSpec.from_matrix(m).resolve(2), m)

    def test_matrix_mode_wrong_size_rejected(self):
        spec = PriorSpec.from_matrix(np.ones((3, 3)))
        with pytest.raises(ConfigError):
            spec.resolve(2)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ConfigError):
            PriorSpec.fixed(-0.1)

    def test_subnormal_epsilon_rejected(self):
        # numpy's beta variates lose their symmetry at shapes as small as 5e-324
        with pytest.raises(ConfigError, match="not subnormal"):
            PriorSpec.fixed(1e-310)
        assert PriorSpec.fixed(np.finfo(float).tiny).epsilon == np.finfo(float).tiny

    def test_epsilon_field_is_the_fixed_rule(self):
        assert np.array_equal(PriorSpec(epsilon=0.5).resolve(3), np.full((3, 3), 0.5))

    def test_both_fields_rejected(self):
        with pytest.raises(ConfigError):
            PriorSpec(epsilon=0.5, epsilon_matrix=np.ones((3, 3)))

    def test_epsilon_is_converted_to_float(self):
        assert np.array_equal(PriorSpec(epsilon="0.5").resolve(2), np.full((2, 2), 0.5))

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (np.ones((3, 2)), "must be square"),
            ([[1.0, -0.5], [1.0, 1.0]], "finite and >= 0"),
            ([[1.0, np.nan], [1.0, 1.0]], "finite and >= 0"),
            ([[1.0, 1e-310], [1.0, 1.0]], "not subnormal"),
        ],
        ids=["non-square", "negative", "nan", "subnormal"],
    )
    def test_bad_matrix_rejected(self, matrix, message):
        with pytest.raises(ConfigError, match=message):
            PriorSpec.from_matrix(matrix)

    @pytest.mark.parametrize("epsilon", ["x", object()], ids=["text", "object"])
    def test_epsilon_not_a_number_rejected(self, epsilon):
        with pytest.raises(ConfigError, match="epsilon"):
            PriorSpec(epsilon=epsilon)

    def test_equal_values_are_equal_specs(self):
        a, b = PriorSpec.from_matrix(np.ones((2, 2))), PriorSpec.from_matrix(np.ones((2, 2)))
        assert a == b and hash(a) == hash(b)
        zero = PriorSpec.from_matrix([[0.0, 1.0], [1.0, 0.0]])
        negative_zero = PriorSpec.from_matrix([[-0.0, 1.0], [1.0, 0.0]])
        assert zero == negative_zero and hash(zero) == hash(negative_zero)
        assert a != zero and a != PriorSpec.from_matrix(np.ones((3, 3)))
        assert PriorSpec.fixed(1) == PriorSpec(epsilon=1.0) != PriorSpec.default()
        assert hash(PriorSpec.fixed(1)) == hash(PriorSpec(epsilon=1.0))
        assert PriorSpec.default() == PriorSpec() and PriorSpec.fixed(1) != a


def test_removed_fields_are_not_constructor_arguments():
    counts = make_counts([[1, 1], [1, 1]])
    with pytest.raises(TypeError):
        PriorSpec(mode="uniform_fixed", epsilon_matrix=np.ones((3, 3)))
    with pytest.raises(TypeError):
        TransitionCounts(counts=counts.counts, labels=counts.labels, visits=counts.visits,
                         total_transitions=4)
    with pytest.raises(TypeError):
        PosteriorDraws(draws=np.full((2, 2), 0.5), seed=0, prior=PriorSpec.default(),
                       source=counts, prior_mass=1.0)


@pytest.mark.parametrize("prior", [
    PriorSpec.fixed(0.3), PriorSpec.from_matrix([[0.1, 0.2, 0.0], [0.4, 0.0, 0.3], [0.0, 0.5, 0.6]]),
], ids=["fixed", "matrix"])
def test_prior_mass_is_the_resolved_prior_total(prior):
    counts = count_transitions(index_chain("AABBCACBBCAACB" * 5))
    draws = draw_posterior(counts, prior, n_draws=300, seed=4)
    total = float(prior.resolve(3).sum())
    assert draws.prior_mass == total
    assert effective_sample_size(draws).prior_weight == total


def test_symmetric_dirichlet_row_mean():
    # a row with no observed transitions and epsilon=1 is a Dirichlet(1, 1) draw
    counts = make_counts([[0, 0], [0, 0]])
    prior = PriorSpec.fixed(1.0)
    rng = np.random.default_rng(123)
    first = np.array(
        [sample_transition_matrix(counts, prior, rng)[0, 0] for _ in range(20_000)]
    )
    assert abs(first.mean() - 0.5) <= 0.01


def test_heavy_count_row_mean():
    counts = make_counts([[1000, 0], [0, 1000]])
    prior = PriorSpec.fixed(0.5)
    rng = np.random.default_rng(99)
    first = np.array(
        [sample_transition_matrix(counts, prior, rng)[0, 0] for _ in range(20_000)]
    )
    assert abs(first.mean() - 1000.5 / 1001.0) <= 1e-4


def test_rows_sum_to_one_tightly():
    counts = make_counts(np.arange(16).reshape(4, 4))
    rng = np.random.default_rng(5)
    p = sample_transition_matrix(counts, PriorSpec.default(), rng)
    assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12


def test_fixed_seed_is_bit_identical():
    counts = make_counts([[5, 2], [1, 9]])
    p1 = sample_transition_matrix(counts, PriorSpec.default(), np.random.default_rng(7))
    p2 = sample_transition_matrix(counts, PriorSpec.default(), np.random.default_rng(7))
    assert np.array_equal(p1, p2)


def test_zero_prior_with_zero_row_raises_with_label():
    counts = make_counts([[1, 1], [0, 0]], labels=("good", "dead_end"))
    with pytest.raises(DegenerateRowError) as err:
        sample_transition_matrix(counts, PriorSpec.fixed(0.0), np.random.default_rng(0))
    assert "dead_end" in str(err.value)


def test_tiny_shapes_never_produce_nan_rows():
    # shape boosting must survive epsilon = 1/I* at large I*
    n = 300
    counts = make_counts(np.zeros((n, n), dtype=np.int64))
    rng = np.random.default_rng(17)
    p = sample_transition_matrix(counts, PriorSpec.default(), rng)
    assert np.all(np.isfinite(p))
    assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12


def test_two_model_conjugacy_oracle():
    counts = make_counts([[30, 12], [11, 20]])
    prior = PriorSpec.fixed(0.5)
    rng = np.random.default_rng(2718)
    n_draws = 20_000
    p11 = np.array(
        [sample_transition_matrix(counts, prior, rng)[0, 0] for _ in range(n_draws)]
    )
    a, b = 30.5, 12.5
    mean, var, _, kurt = ss.beta.stats(a, b, moments="mvsk")
    se_mean = np.sqrt(var / n_draws)
    m4 = (kurt + 3.0) * var**2
    se_var = np.sqrt((m4 - var**2) / n_draws)
    assert abs(p11.mean() - mean) <= 4 * se_mean
    assert abs(p11.var(ddof=1) - var) <= 4 * se_var


def test_draw_posterior_matches_frequency_estimate():
    counts = make_counts([[500, 10], [10, 480]])
    draws = draw_posterior(counts, PriorSpec.fixed(0.5), n_draws=1000, seed=31)
    freq = counts.counts.sum(axis=1) / counts.counts.sum()
    assert np.abs(draws.draws.mean(axis=0) - freq).max() <= 0.05


def test_single_model_chain_yields_constant_draws():
    counts = count_transitions(index_chain([7, 7, 7]))
    draws = draw_posterior(counts, n_draws=50, seed=0)
    assert np.array_equal(draws.draws, np.ones((50, 1)))


def test_different_seeds_agree_within_three_standard_errors():
    counts = make_counts([[40, 12, 3], [9, 50, 6], [4, 7, 33]])
    d1 = draw_posterior(counts, n_draws=4000, seed=101)
    d2 = draw_posterior(counts, n_draws=4000, seed=202)
    m1, m2 = d1.draws.mean(axis=0), d2.draws.mean(axis=0)
    se = np.sqrt(d1.draws.var(axis=0, ddof=1) / 4000 + d2.draws.var(axis=0, ddof=1) / 4000)
    assert np.all(np.abs(m1 - m2) <= 3 * se)


def test_reproducible_from_seed():
    counts = make_counts([[5, 2], [3, 8]])
    d1 = draw_posterior(counts, n_draws=64, seed=9)
    d2 = draw_posterior(counts, n_draws=64, seed=9)
    assert np.array_equal(d1.draws, d2.draws)


def test_draws_independent_of_total_count():
    # per-draw RNG streams: draw r is the same whether 64 or 128 draws are made
    counts = make_counts([[5, 2], [3, 8]])
    d1 = draw_posterior(counts, n_draws=64, seed=9)
    d2 = draw_posterior(counts, n_draws=128, seed=9)
    assert np.array_equal(d1.draws, d2.draws[:64])


def test_large_model_blocks_keep_prefix():
    # at I* = 150 a block holds fewer than 256 draws; the prefix property
    # must hold across its block boundaries
    rng = np.random.default_rng(3)
    counts = make_counts(rng.integers(1, 5, size=(150, 150)))
    d1 = draw_posterior(counts, n_draws=190, seed=2)
    d2 = draw_posterior(counts, n_draws=400, seed=2)
    assert np.array_equal(d1.draws, d2.draws[:190])
    assert np.abs(d2.draws.sum(axis=1) - 1.0).max() <= 1e-12


@pytest.mark.parametrize(
    "n_models, n_draws, longer",
    [(n, r, 1000) for n in (3, 8, 9, 10, 47) for r in (1, 257, 513, 769)] + [(150, 187, 372)],
)
def test_prefix_holds_when_the_last_block_holds_one_draw(n_models, n_draws, longer):
    # a last block of one draw is solved as a one-matrix stack, which must give
    # the draw the bits it gets inside its full block
    rng = np.random.default_rng(n_models)
    counts = make_counts(rng.integers(0, 5, size=(n_models, n_models)))
    short = draw_posterior(counts, n_draws=n_draws, seed=4).draws
    assert np.array_equal(short, draw_posterior(counts, n_draws=longer, seed=4).draws[:n_draws])


def bounded(fn, timeout=120.0):
    """Run ``fn`` on a daemon thread and fail unless it returns within ``timeout`` s."""
    outcome = {}

    def target():
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # handed back to the test's thread below
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"did not finish within {timeout} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


@pytest.fixture
def fast_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize(
    "n_models, short, long", [(3, 7300, 7700), (10, 1000, 1300), (47, 300, 700), (150, 190, 372)]
)
def test_draws_do_not_depend_on_worker_count(monkeypatch, fast_switching, n_models, short, long):
    # 8 workers is more than the cores; units must come back bit for bit, in
    # order, and the prefix property must hold across worker counts. Each
    # short run spans two work units: merged blocks below I* = 12, one block
    # each above.
    rng = np.random.default_rng(7)
    counts = make_counts(rng.integers(0, 5, size=(n_models, n_models)))
    solved_on = []
    solve = sampling._solve_stack

    def spy(p):
        solved_on.append(threading.get_ident())
        return solve(p)

    monkeypatch.setattr(sampling, "_solve_stack", spy)

    def draws(workers, n_draws):
        """The draws, and for each unit's solve whether it ran on the calling thread."""
        monkeypatch.setattr(_pool, "cpu_count", lambda: workers)
        solved_on.clear()

        def run():
            return draw_posterior(counts, n_draws=n_draws, seed=2).draws, threading.get_ident()

        out, caller = bounded(run)
        return out, [ident == caller for ident in solved_on]

    serial, inline = draws(1, short)
    pooled, pooled_inline = draws(8, short)
    pooled_long, _ = draws(8, long)
    assert inline == [True, True]
    assert pooled_inline == [False, False]
    assert np.array_equal(pooled, serial)
    assert np.array_equal(pooled_long[:short], serial)


@pytest.mark.parametrize("epsilon", [1.0, 1e-3], ids=["no-underflow", "underflow"])
def test_pooled_blocks_run_under_callers_error_state(monkeypatch, epsilon):
    # worker threads start with numpy's default error state; under the caller's
    # all="raise" both paths must return the same draws or raise the same error
    rng = np.random.default_rng(3)
    counts = make_counts(rng.integers(0, 3, size=(47, 47)))
    outcomes = []
    for workers in (1, 8):
        monkeypatch.setattr(_pool, "cpu_count", lambda: workers)
        with np.errstate(all="raise"):
            try:
                outcomes.append(draw_posterior(counts, PriorSpec.fixed(epsilon), 600, 1).draws)
            except FloatingPointError as exc:
                outcomes.append(repr(exc))
    assert isinstance(outcomes[0], str) == (epsilon < 1)
    assert np.array_equal(outcomes[0], outcomes[1])


def test_cpu_count_falls_back_without_affinity(monkeypatch):
    # macOS and Windows have no os.sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _pool.cpu_count() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _pool.cpu_count() == 1


def two_workers(monkeypatch):
    monkeypatch.setattr(_pool, "cpu_count", lambda: 2)


def test_map_units_keeps_input_order_when_later_units_finish_first(monkeypatch):
    two_workers(monkeypatch)
    unit_1_done = threading.Event()

    def fn(unit):
        if unit == 0:
            assert unit_1_done.wait(10)
        else:
            unit_1_done.set()
        return unit

    assert bounded(lambda: _pool.map_units(fn, [0, 1])) == [0, 1]


def test_map_units_raises_first_exception_in_input_order(monkeypatch):
    two_workers(monkeypatch)
    unit_1_failed = threading.Event()

    def fn(unit):
        if unit == 0:
            assert unit_1_failed.wait(10)
            time.sleep(0.1)  # unit 1's exception reaches its future well before this one
        else:
            unit_1_failed.set()
        raise ValueError(f"unit {unit}")

    with pytest.raises(ValueError, match="unit 0"):
        bounded(lambda: _pool.map_units(fn, [0, 1]))


def test_map_units_cancels_units_queued_behind_a_failure(monkeypatch):
    # unit 0 fails while unit 1 holds the other worker; the freed worker may take
    # unit 2 before the caller sees the failure, but units 3-19 stay queued
    two_workers(monkeypatch)
    started = []

    def fn(unit):
        started.append(unit)
        if unit == 0:
            raise ValueError("unit 0")
        time.sleep(0.5)

    with pytest.raises(ValueError, match="unit 0"):
        bounded(lambda: _pool.map_units(fn, range(20)))
    assert set(started) <= {0, 1, 2}


def test_map_units_runs_each_unit_under_callers_error_state(monkeypatch):
    two_workers(monkeypatch)

    def run():
        with np.errstate(over="raise", under="ignore", divide="warn", invalid="print"):
            return np.geterr(), _pool.map_units(lambda unit: np.geterr(), range(4))

    caller, seen = bounded(run)
    assert caller != np.geterr()
    assert seen == [caller] * 4


def test_result_records_compare_and_hash_by_identity():
    # records that hold arrays compare by identity, so ==, `in` and hash() never raise
    chain = index_chain(["A", "B", "A", "A", "B", "C", "A"])
    counts = count_transitions(chain)
    draws = draw_posterior(counts, n_draws=50, seed=1)
    study = run_coverage_experiment(
        (0.5, 0.5), (0.0,), iterations=30, replications=2, n_draws=20, seed=1
    )
    records = [
        chain,
        counts,
        draws,
        effective_sample_size(draws).fit,
        iid_posterior(counts.visits),
        summarize(draws),
        bayes_factors(draws, [("A", "B")])[0],
        subset_probability(draws, ["A", "C"]),
        rank_stability(draws, k_top=2),
        study.cells[0],
        study,
    ]
    assert [type(r).__name__ for r in records] == [
        "LabeledChain", "TransitionCounts", "PosteriorDraws", "DirichletFit", "IidPosterior",
        "UncertaintySummary", "BayesFactorSummary", "SubsetSummary", "RankReport",
        "MethodSummary", "CoverageResult",
    ]
    for record in records:
        twin = dataclasses.replace(record)
        assert record == record and record != twin
        assert record in records and twin not in records
        assert len({record, twin}) == 2  # hash() works


def test_reducible_counts_with_zero_prior_raise_with_draw_index():
    counts = make_counts([[3, 0], [0, 3]])
    with pytest.raises(NoUniqueStationaryError) as err:
        draw_posterior(counts, PriorSpec.fixed(0.0), n_draws=3, seed=0)
    assert "draw 0" in str(err.value)


def test_transient_model_gets_zero_mass_in_every_draw():
    # model 1 leaks into model 2, which never leaves: one closed class {2}
    counts = make_counts([[3, 1], [0, 3]])
    draws = draw_posterior(counts, PriorSpec.fixed(0.0), n_draws=300, seed=4)
    assert np.array_equal(draws.draws, np.tile([0.0, 1.0], (300, 1)))


@pytest.mark.parametrize("seed", range(20))
def test_tiny_prior_with_subnormal_outflows_resolves_every_draw(seed):
    # with epsilon 0.001, the sampled outflow of model Z often falls to about
    # 1e-315, where dividing by it overflows
    counts = count_transitions(index_chain(list("ABAABZ")))
    draws = draw_posterior(counts, PriorSpec.fixed(0.001), n_draws=1000, seed=seed)
    assert np.isfinite(draws.draws).all()
    assert np.abs(draws.draws.sum(axis=1) - 1.0).max() <= 1e-12


@settings(max_examples=10)
@given(
    st.integers(2, 3),
    st.integers(0, 2**31 - 1),
    st.integers(0, 2**31 - 1),
)
def test_posterior_concentrates_as_counts_grow(dim, count_seed, draw_seed):
    rng = np.random.default_rng(count_seed)
    base = rng.integers(0, 20, size=(dim, dim))
    base[np.arange(dim), np.arange(dim)] += 1  # keep every model visited
    sd_small = draw_posterior(
        make_counts(base), n_draws=1200, seed=draw_seed
    ).draws.std(axis=0, ddof=1)
    sd_big = draw_posterior(
        make_counts(base * 100), n_draws=1200, seed=draw_seed
    ).draws.std(axis=0, ddof=1)
    assert np.all(sd_big < sd_small)


def test_prior_washout_with_heavy_counts():
    counts = make_counts([[800, 200], [300, 700]])
    with_prior = draw_posterior(counts, PriorSpec.default(), n_draws=4000, seed=1)
    without = draw_posterior(counts, PriorSpec.fixed(0.0), n_draws=4000, seed=1)
    assert np.abs(with_prior.draws.mean(axis=0) - without.draws.mean(axis=0)).max() <= 0.01


def per_block_draws(counts, n_draws, seed):
    """``draw_posterior``'s draws from a plain loop: one stream, rows and solve per block."""
    shapes = sampling._posterior_shapes(counts, PriorSpec.default())
    block = sampling._block_draws(counts.n_models)
    streams = np.random.SeedSequence(seed).spawn(-(-n_draws // block))
    parts = []
    for k, stream in enumerate(streams):
        start = k * block
        rows = sampling._dirichlet_rows(shapes, [np.random.default_rng(stream)], block)
        pi, ok = sampling._solve_stack(rows[..., : n_draws - start])
        assert ok.all()
        parts.append(pi)
    return np.concatenate(parts, axis=1).T


@pytest.mark.parametrize("per_rng", [1, 3, 256])
def test_dirichlet_rows_over_many_generators_stack_the_one_generator_calls(per_rng):
    # exact zeros, shapes below one and shapes >= 1 together, so numpy's gamma
    # sampler takes both its branches and some cells are exactly 0
    shapes = np.array([[0.0, 0.3, 2.5, 1.0], [4.0, 0.0, 0.0, 0.02], [0.7, 1.5, 0.0, 3.0],
                       [0.0, 0.0, 0.0, 9.0]])
    seeds = np.random.SeedSequence(11).spawn(4)
    stacked = sampling._dirichlet_rows(shapes, [np.random.default_rng(s) for s in seeds], per_rng)
    alone = [sampling._dirichlet_rows(shapes, [np.random.default_rng(s)], per_rng) for s in seeds]
    assert stacked.shape == (4, 4, 4 * per_rng)
    assert np.array_equal(stacked, np.concatenate(alone, axis=-1))
    assert np.all(stacked[shapes == 0] == 0)
    assert np.all(stacked[3, 3] == 1)


@pytest.mark.parametrize(
    "row",
    [(0.0, 2.0, 0.0, 3.0), (0.0, 0.05, 0.0, 1e-300), (1e-300, 0.05), (0.0, 7.0, 0.0), (0.0, 0.05), (0.5,)],
    ids=["gammas-with-zeros", "sticks-with-zeros", "sticks", "lone-gamma", "lone-stick", "single"],
)
def test_dirichlet_rows_pin_what_generator_dirichlet_gives(row):
    # a zero shape gives exact zeros and a lone positive shape exactly 1, on numpy's gamma
    # path and on its stick-breaking path (every shape below 0.1), which stays finite
    shapes = np.array(row)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = sampling._dirichlet_rows(shapes, [np.random.default_rng(s) for s in range(3)], 500)
    assert rows.shape == (len(row), 1500) and np.isfinite(rows).all()
    assert np.all(rows[shapes == 0] == 0)
    assert np.abs(rows.sum(axis=0) - 1.0).max() <= 4 * np.finfo(float).eps
    if np.count_nonzero(shapes) == 1:
        assert np.all(rows[shapes > 0] == 1.0)


@pytest.mark.parametrize("n_models", [47, 200])
def test_dirichlet_rows_peak_memory_is_about_one_block(n_models):
    # the kernel holds one row's draws beside its output, not several stacks of its size
    counts = np.random.default_rng(n_models).integers(0, 40, size=(n_models, n_models))
    shapes = counts + 1.0 / n_models
    block = sampling._block_draws(n_models)
    assert block == {47: 256, 200: 104}[n_models]
    rng = np.random.default_rng(1)
    tracemalloc.start()
    try:
        rows = sampling._dirichlet_rows(shapes, [rng], block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * rows.nbytes


@pytest.mark.parametrize("n_draws", [10**15, 10**19], ids=["petabytes", "past-2**63-bytes"])
def test_unallocatable_draw_count_is_a_config_error(n_draws):
    # the (I*, R) output is allocated before any stream or work unit is made
    with pytest.raises(ConfigError, match="--draws"):
        draw_posterior(make_counts([[3, 1], [1, 3]]), n_draws=n_draws)


def test_prior_mass_past_the_largest_float_is_a_config_error():
    counts = make_counts([[3, 1], [1, 3]])
    for prior in (PriorSpec.fixed(1e308), PriorSpec.from_matrix([[1e308, 0], [0, 1e308]])):
        with pytest.raises(ConfigError, match="--epsilon"):
            draw_posterior(counts, prior, n_draws=10)
        with pytest.raises(ConfigError, match="--epsilon"):
            sample_transition_matrix(counts, prior, np.random.default_rng(0))
    assert np.isfinite(draw_posterior(counts, PriorSpec.fixed(1e307), n_draws=10).draws).all()


def stack_first_rows(shapes, rngs, per_rng):
    """Plain Dirichlet rows with the stack axis first: (B, I, I) or (B, I).

    Each generator draws each row in row order, and each draw is divided by its sum.
    """
    shapes = np.asarray(shapes, dtype=float)
    rows = shapes.reshape(-1, shapes.shape[-1])
    w = np.concatenate([np.stack([rng.dirichlet(row, per_rng) for row in rows], axis=1) for rng in rngs])
    w = w.reshape((-1,) + shapes.shape)
    w /= w.sum(axis=-1, keepdims=True)
    return w


@settings(max_examples=60)
@given(
    n=st.integers(1, 16),
    matrix=st.booleans(),
    n_rngs=st.sampled_from([1, 3]),
    per_rng=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_stack_last_rows_match_per_row_generator_dirichlet_draws(n, matrix, n_rngs, per_rng, seed, data):
    # the same generator calls in the same order; only the row sum's order may
    # differ, and only once a row spans 8 cells, where the reference's
    # contiguous sum turns pairwise
    shape = (n, n) if matrix else (n,)
    values = st.sampled_from([0.0, 1e-300, 0.3, 1.0, 2.5, 1e5])
    cells = data.draw(st.lists(values, min_size=n ** len(shape), max_size=n ** len(shape)))
    shapes = np.array(cells).reshape(shape)
    rows = shapes.reshape(-1, n)
    rows[~(rows > 0).any(axis=1), 0] = 1.0  # every row keeps some weight
    seeds = np.random.SeedSequence(seed).spawn(n_rngs)
    old = stack_first_rows(shapes, [np.random.default_rng(s) for s in seeds], per_rng)
    new = sampling._dirichlet_rows(shapes, [np.random.default_rng(s) for s in seeds], per_rng)
    assert new.shape == shape + (n_rngs * per_rng,)
    # each generator's run alone, a lone matrix included, gets the bits it gets in the stack
    alone = [sampling._dirichlet_rows(shapes, [np.random.default_rng(s)], per_rng) for s in seeds]
    assert np.array_equal(np.concatenate(alone, axis=-1), new)
    new = np.moveaxis(new, -1, 0)
    if n <= 7:
        assert np.array_equal(new, old)
    else:
        assert np.array_equal(new == 0, old == 0)
        assert np.all(np.abs(new - old) <= 2 * n * np.finfo(float).eps * old)


@pytest.mark.parametrize("n_draws", [1, 255, 257, 1000, 7300])
@pytest.mark.parametrize("n_models", [2, 3, 10, 16, 47])
def test_draws_match_a_plain_per_block_loop(n_models, n_draws):
    # below I* = 12 blocks merge into work units; at I* = 3, 7300 draws span two.
    # Zero counts give shapes below one, so numpy's gamma sampler takes both its branches.
    rng = np.random.default_rng(n_models)
    counts = make_counts(rng.integers(0, 5, size=(n_models, n_models)))
    draws = draw_posterior(counts, n_draws=n_draws, seed=n_draws).draws
    assert draws.T.flags.c_contiguous
    assert np.array_equal(draws, per_block_draws(counts, n_draws, n_draws))


@pytest.mark.parametrize("pool_cells", [sampling.POOL_CELLS, 1], ids=["merged", "per-block"])
def test_rejected_draw_is_named_by_its_global_index(monkeypatch, pool_cells):
    # the solve rejects the matrix of draw 600, the 89th of block 2
    counts = make_counts([[40, 12, 3], [9, 50, 6], [4, 7, 33]])
    shapes = sampling._posterior_shapes(counts, PriorSpec.default())
    stream = np.random.SeedSequence(5).spawn(3)[2]
    target = sampling._dirichlet_rows(shapes, [np.random.default_rng(stream)], 256)[..., 600 - 512]
    solve = sampling._solve_stack

    def reject_target(p):
        pi, ok = solve(p)
        return pi, ok & ~(p == target[..., None]).all(axis=(0, 1))

    monkeypatch.setattr(sampling, "_solve_stack", reject_target)
    monkeypatch.setattr(sampling, "POOL_CELLS", pool_cells)
    with pytest.raises(NoUniqueStationaryError) as err:
        draw_posterior(counts, n_draws=1000, seed=5)
    assert type(err.value) is NoUniqueStationaryError
    assert str(err.value).startswith("draw 600: ")


def test_draws_are_the_transpose_of_a_models_major_array():
    counts = make_counts([[40, 12, 3], [9, 50, 6], [4, 7, 33]])
    draws = draw_posterior(counts, n_draws=1000, seed=3).draws
    assert draws.shape == (1000, 3) and draws.T.flags.c_contiguous
    assert not draws.flags.writeable
    with pytest.raises(ValueError):
        draws[0, 0] = 0.5
    iid = iid_posterior([40, 60, 0], n_draws=1000, seed=3).draws
    assert iid.shape == (1000, 3) and iid.T.flags.c_contiguous


@pytest.mark.parametrize("n_models", [3, 12, 47])
def test_reducers_agree_on_a_row_major_copy(n_models):
    # the layout changes only the order of the sums along the draws. Over 20
    # seeds at I* = 3, 12, 47 and R = 1000, 5000 a row-major copy moved means
    # by at most 33 eps relative, SDs by 17 eps and t_eff by 1.9e4 eps
    # (4.2e-12); the quantiles and every rank statistic kept their bits
    rng = np.random.default_rng(n_models)
    counts = make_counts(rng.integers(0, 30, size=(n_models, n_models)))
    draws = draw_posterior(counts, n_draws=1000, seed=n_models)
    copy = dataclasses.replace(draws, draws=np.ascontiguousarray(draws.draws))
    assert copy.draws.flags.c_contiguous and np.array_equal(copy.draws, draws.draws)
    labels = counts.labels
    runs = [
        (summarize(d), *bayes_factors(d, [(labels[0], labels[-1])]),
         subset_probability(d, labels[: (n_models + 1) // 2]))
        for d in (draws, copy)
    ]
    eps = np.finfo(float).eps
    for got, want in zip(*runs):
        for name in ("median", "lower", "upper"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        for name in ("mean", "sd"):
            assert np.all(np.abs(getattr(got, name) - getattr(want, name))
                          <= 64 * eps * np.abs(getattr(want, name)))
    got, want = effective_sample_size(draws), effective_sample_size(copy)
    assert abs(got.t_eff - want.t_eff) <= 1e-11 * want.t_eff
    got, want = rank_stability(draws, k_top=3), rank_stability(copy, k_top=3)
    for name in ("mean_rank", "sd_rank", "point_rank", "rank_distribution", "p_rank_within_top"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert got.p_top_order_reproduced == want.p_top_order_reproduced
