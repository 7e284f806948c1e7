import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats as ss

import chainuq.benchmark
from chainuq.benchmark import (
    METHODS,
    MixtureChainSpec,
    _derived_seeds,
    generate_chain,
    run_coverage_experiment,
)
from chainuq.chains import count_transitions, index_chain
from chainuq.errors import ConfigError
from chainuq.ess import effective_sample_size, iid_posterior
from chainuq.sampling import PriorSpec, draw_posterior
from chainuq.summaries import DEFAULT_LEVELS, summarize

PI = (0.85, 0.13, 0.02)


def loop_chain(spec):
    """Step-by-step copy/fresh process on the generator's stream, as an oracle."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    pi = np.asarray(spec.pi_true)
    states = [int(rng.choice(pi.size, p=pi))]
    if spec.iterations > 1:
        copy = rng.random(spec.iterations - 1) < spec.beta
        fresh = rng.choice(pi.size, p=pi, size=spec.iterations - 1)
        for i in range(1, spec.iterations):
            states.append(states[-1] if copy[i - 1] else int(fresh[i - 1]))
    return index_chain([s + 1 for s in states])


def occupancy_autocorr(indicator, lag):
    x = indicator - indicator.mean()
    return float(np.dot(x[:-lag], x[lag:]) / np.dot(x, x))


class TestGenerateChain:
    def test_beta_one_copies_forever(self):
        chain = generate_chain(MixtureChainSpec(PI, 1.0, 500, seed=3))
        assert chain.n_models == 1
        assert chain.length == 500

    def test_beta_zero_matches_target_frequencies(self):
        spec = MixtureChainSpec(PI, 0.0, 100_000, seed=11)
        chain = generate_chain(spec)
        freq = np.zeros(3)
        for pos, lab in enumerate(chain.labels):
            freq[lab - 1] = chain.visit_counts()[pos] / chain.length
        bound = 3.0 * np.sqrt(np.array(PI) * (1.0 - np.array(PI)) / spec.iterations)
        assert np.all(np.abs(freq - PI) <= np.maximum(bound, 0.005))

    def test_lag_one_autocorrelation_near_beta(self):
        spec = MixtureChainSpec(PI, 0.5, 100_000, seed=5)
        chain = generate_chain(spec)
        indicator = (np.array([chain.labels[i] for i in chain.indices]) == 1).astype(float)
        assert abs(occupancy_autocorr(indicator, 1) - 0.5) <= 0.02

    def test_lag_two_autocorrelation_near_beta_squared(self):
        spec = MixtureChainSpec(PI, 0.5, 100_000, seed=6)
        chain = generate_chain(spec)
        indicator = (np.array([chain.labels[i] for i in chain.indices]) == 1).astype(float)
        assert abs(occupancy_autocorr(indicator, 2) - 0.25) <= 0.02

    def test_stationarity_chi_square_smoke(self):
        spec = MixtureChainSpec(PI, 0.0, 100_000, seed=29)
        chain = generate_chain(spec)
        observed = np.zeros(3)
        for pos, lab in enumerate(chain.labels):
            observed[lab - 1] = chain.visit_counts()[pos]
        _, pvalue = ss.chisquare(observed, np.array(PI) * spec.iterations)
        assert pvalue >= 0.001

    def test_same_seed_same_chain(self):
        a = generate_chain(MixtureChainSpec(PI, 0.3, 1000, seed=8))
        b = generate_chain(MixtureChainSpec(PI, 0.3, 1000, seed=8))
        assert a.labels == b.labels
        assert np.array_equal(a.indices, b.indices)

    @pytest.mark.parametrize("iterations", [1, 2, 5, 1000])
    def test_matches_step_by_step_loop(self, iterations):
        # the first-appearance order skips a state of probability 0, and the rare states
        # that come first in label order are mostly first seen after the common ones
        for pi in (PI, (0.6, 0.0, 0.4), (0.01, 0.02, 0.03, 0.04, 0.3, 0.6)):
            for seed in range(200):
                for beta in (0.0, 0.3, 0.8, 1.0):
                    spec = MixtureChainSpec(pi, beta, iterations, seed=seed)
                    got, want = generate_chain(spec), loop_chain(spec)
                    assert got.labels == want.labels
                    assert all(type(lab) is int for lab in got.labels)
                    assert np.array_equal(got.indices, want.indices)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            MixtureChainSpec((0.5, 0.4), 0.0, 10)
        with pytest.raises(ValueError):
            MixtureChainSpec(PI, 1.5, 10)
        with pytest.raises(ValueError):
            MixtureChainSpec(PI, 0.5, 0)

    @pytest.mark.parametrize(
        "pi, beta",
        [((float("nan"), 0.5, 0.5), 0.2), (PI, float("nan")), ((1.5, -0.5), 0.2), ((), 0.2)],
        ids=["nan-pi", "nan-beta", "negative-pi", "empty-pi"],
    )
    def test_spec_rejects_with_config_error(self, pi, beta):
        with pytest.raises(ConfigError):
            MixtureChainSpec(pi, beta, 10)


@pytest.mark.parametrize(
    "settings",
    [
        {"betas": (0.0, 0.5, 1.5)},
        {"betas": ()},
        {"pi_true": (float("nan"), 0.5, 0.5)},
        {"iterations": 1},
        {"replications": 0},
        {"n_draws": 1},
        {"seed": -1},
        {"levels": (0.9, 0.1)},
        {"betas": (0.0, 0.9, 0.0)},
    ],
    ids=["late-beta", "no-beta", "nan-pi", "iterations", "replications", "draws", "seed", "levels",
         "repeated-beta"],
)
def test_bad_setting_fails_before_any_chain(monkeypatch, settings):
    calls = []
    monkeypatch.setattr(chainuq.benchmark, "generate_chain", lambda spec: calls.append(spec))
    args = {"pi_true": PI, "betas": (0.0,), "iterations": 50, "replications": 2, "n_draws": 20,
            **settings}
    with pytest.raises(ConfigError):
        run_coverage_experiment(**args)
    assert calls == []


@pytest.mark.parametrize(
    "settings, flag",
    # 7.28 TiB of chain and 14.2 PiB of draws: numpy refuses both at once
    [({"iterations": 10**12}, "--iterations"), ({"n_draws": 10**15}, "--draws")],
    ids=["iterations", "draws"],
)
def test_unallocatable_study_fails_before_any_chain(monkeypatch, settings, flag):
    monkeypatch.setattr(chainuq.benchmark, "generate_chain", lambda spec: pytest.fail())
    args = {"pi_true": (0.7, 0.3), "betas": (0.0,), "iterations": 50, "replications": 1,
            "n_draws": 20, **settings}
    with pytest.raises(ConfigError, match=f"not fit in memory \\({flag}\\)"):
        run_coverage_experiment(**args)


def test_unallocatable_draw_stack_fails_before_any_chain(monkeypatch):
    # the check is the (method, state) x draw stack itself, not a smaller proxy array
    allocate = chainuq.benchmark._allocate

    def refuse_stack(shape, message):
        if shape == (4, 20):
            raise ConfigError(message)
        return allocate(shape, message)

    monkeypatch.setattr(chainuq.benchmark, "_allocate", refuse_stack)
    monkeypatch.setattr(chainuq.benchmark, "generate_chain", lambda spec: pytest.fail())
    with pytest.raises(ConfigError, match="20 draws of 2 models do not fit in memory \\(--draws\\)"):
        run_coverage_experiment((0.7, 0.3), (0.0,), iterations=50, replications=1, n_draws=20)


@pytest.fixture(scope="module")
def small_run():
    return run_coverage_experiment(
        PI, betas=(0.0, 0.8), iterations=200, replications=20, n_draws=200, seed=77
    )


class TestCoverageExperiment:
    def test_structure(self, small_run):
        assert {c.method for c in small_run.cells} == {"markov", "iid"}
        assert len(small_run.cells) == 4
        cell = small_run.cell(0.0, "markov")
        assert cell.mean_sd.shape == (3,)
        assert np.all((0.0 <= cell.coverage) & (cell.coverage <= 1.0))
        assert small_run.replications == 20

    def test_cell_of_a_beta_not_run_raises_key_error(self, small_run):
        with pytest.raises(KeyError):
            small_run.cell(0.5, "markov")

    def test_rerun_is_identical(self, small_run):
        again = run_coverage_experiment(
            PI, betas=(0.0, 0.8), iterations=200, replications=20, n_draws=200, seed=77
        )
        for a, b in zip(small_run.cells, again.cells):
            assert a.method == b.method and a.beta == b.beta
            assert np.array_equal(a.mean_sd, b.mean_sd)
            assert np.array_equal(a.coverage, b.coverage)
        assert small_run.to_csv() == again.to_csv()
        assert small_run.to_json() == again.to_json()

    def test_iid_sd_does_not_react_to_autocorrelation(self, small_run):
        sd0 = small_run.cell(0.0, "iid").mean_sd
        sd8 = small_run.cell(0.8, "iid").mean_sd
        assert np.all(np.abs(sd8 - sd0) / sd0 < 0.25)

    def test_markov_sd_grows_with_autocorrelation(self, small_run):
        sd0 = small_run.cell(0.0, "markov").mean_sd
        sd8 = small_run.cell(0.8, "markov").mean_sd
        assert np.all(sd8 > sd0)

    def test_t_eff_recorded_per_replication(self, small_run):
        assert small_run.t_eff[0.0].shape == (20,)
        assert small_run.median_t_eff(0.0) > small_run.median_t_eff(0.8)

    def test_csv_shape(self, small_run):
        rows = list(csv.reader(io.StringIO(small_run.to_csv())))
        assert rows[0] == ["beta", "method", "component", "mean_posterior_sd", "coverage",
                           "joint_coverage", "replications", "t_eff_median"]
        assert len(rows) == 1 + 4 * 3  # header + cells x components
        # one row per cell and state, in cell order; repr round-trips, so floats compare exactly
        expected = [
            (c["beta"], c["method"], k + 1, sd, cov, c["joint_coverage"], c["replications"])
            for c in small_run.to_dict()["cells"]
            for k, (sd, cov) in enumerate(zip(c["mean_posterior_sd"], c["coverage"]))
        ]
        for row, want in zip(rows[1:], expected):
            beta, method, comp, sd, cov, joint, reps, t_eff = row
            got = (float(beta), method, int(comp), float(sd), float(cov), float(joint), int(reps))
            assert got == want
            assert t_eff == (repr(small_run.median_t_eff(want[0])) if method == "markov" else "")


# the second pi has a state no chain can reach: every replication leaves it unvisited
@pytest.mark.parametrize("pi", [PI, (0.7, 0.3, 0.0)], ids=["rare-state", "zero-state"])
def test_cells_match_a_plain_replication_loop(pi):
    """Each cell's aggregates, recomputed state by state from the library calls."""
    betas, iterations, replications, n_draws, seed = (0.0, 0.8), 30, 8, 200, 5
    result = run_coverage_experiment(
        pi, betas, iterations=iterations, replications=replications, n_draws=n_draws, seed=seed
    )
    lo, hi = DEFAULT_LEVELS
    missed = 0  # (beta, replication) cells whose chain never visits the last state
    for b_idx, beta in enumerate(betas):
        rows = {"markov": ([], []), "iid": ([], [])}  # per-replication SDs and cover flags
        t_eff = []
        for rep in range(replications):
            chain_seed, draw_seed, iid_seed = _derived_seeds(seed, b_idx, rep)
            counts = count_transitions(
                generate_chain(MixtureChainSpec(pi, beta, iterations, seed=chain_seed))
            )
            draws = draw_posterior(counts, PriorSpec.default(), n_draws=n_draws, seed=draw_seed)
            summary = summarize(draws, levels=(lo, hi))
            t_eff.append(effective_sample_size(draws).t_eff)
            markov, visits = [], []
            for state in range(1, len(pi) + 1):
                if state in counts.labels:
                    pos = counts.labels.index(state)
                    markov.append((summary.sd[pos], summary.lower[pos], summary.upper[pos]))
                    visits.append(counts.visits[pos])
                else:
                    markov.append((0.0, 0.0, 0.0))
                    visits.append(0)
                    missed += state == len(pi)
            ipost = iid_posterior(visits, n_draws, iid_seed)
            iid = list(zip(ipost.sd(), ipost.quantile(lo), ipost.quantile(hi)))
            for method, fit in (("markov", markov), ("iid", iid)):
                sds, flags = rows[method]
                sds.append([sd for sd, _, _ in fit])
                flags.append([low <= p <= high for (_, low, high), p in zip(fit, pi)])
        assert np.array_equal(result.t_eff[beta], t_eff, equal_nan=True)  # NaN: one model seen
        for method, (sds, flags) in rows.items():
            cell = result.cell(beta, method)
            assert np.array_equal(cell.mean_sd, np.mean(sds, axis=0))
            assert np.array_equal(cell.coverage, np.mean(flags, axis=0))
            assert cell.joint_coverage == np.mean([all(f) for f in flags])
    assert missed  # some short chain never visits PI's rare state
    if pi[-1] == 0:  # and no chain visits a state of probability 0
        assert missed == len(betas) * replications


def test_one_replication_is_the_first_of_five(monkeypatch):
    """A 1-replication study's t_eff and cells are those of a 5-replication study's first."""
    args = {"pi_true": PI, "betas": (0.0, 0.8), "iterations": 200, "n_draws": 200, "seed": 9}
    one = run_coverage_experiment(replications=1, **args)
    stats = []  # each replication's (method x state) summaries, in run order
    sample_stats = chainuq.benchmark._sample_stats
    monkeypatch.setattr(chainuq.benchmark, "_sample_stats",
                        lambda *a: stats.append(sample_stats(*a)) or stats[-1])
    five = run_coverage_experiment(replications=5, **args)
    assert len(stats) == 10
    for b_idx, beta in enumerate(args["betas"]):
        assert np.array_equal(one.t_eff[beta], five.t_eff[beta][:1])
        # (replication, method, state) SDs and cover flags of this beta's five replications
        reps, pis = stats[5 * b_idx: 5 * b_idx + 5], np.tile(PI, len(METHODS))
        sd = np.array([r["sd"] for r in reps]).reshape(5, len(METHODS), -1)
        covered = np.array([(r["lower"] <= pis) & (pis <= r["upper"]) for r in reps])
        covered = covered.reshape(sd.shape)
        for i, method in enumerate(METHODS):
            first, all_five = one.cell(beta, method), five.cell(beta, method)
            assert np.array_equal(first.mean_sd, sd[0, i])
            assert np.array_equal(first.coverage, covered[0, i])
            assert first.joint_coverage == covered[0, i].all()
            assert np.array_equal(all_five.mean_sd, sd[:, i].mean(axis=0))
            assert np.array_equal(all_five.coverage, covered[:, i].mean(axis=0))
            assert all_five.joint_coverage == covered[:, i].all(axis=1).mean()


@pytest.mark.parametrize("cell, chain_and_markov", [
    ((0, 0, 0), (8668861027912758289, 4881901421217228719)),
    ((3, 1, 7), (12726980290186576505, 13947036692243945624)),
    ((2**32 + 5, 2, 199), (1842484335132757223, 18019207102118996397)),
])
def test_derived_seeds_keep_the_chain_and_markov_seeds(cell, chain_and_markov):
    # the seeds of SeedSequence(...).spawn(2): the i.i.d. stream moves no chain or Markov bit
    seeds = _derived_seeds(*cell)
    assert seeds[:2] == chain_and_markov
    assert len(set(seeds)) == 3


def test_coverage_study_loads_no_scipy():
    # the i.i.d. baseline is drawn, not taken from Beta quantiles: the study needs no scipy
    env = dict(os.environ, PYTHONPATH=str(Path(chainuq.benchmark.__file__).parents[1]))
    code = (
        "import sys, chainuq; chainuq.run_coverage_experiment("
        "(0.85, 0.13, 0.02), (0.0, 0.8), iterations=50, replications=2, n_draws=50); "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["[]"]


def test_undefined_t_eff_median_is_null_in_json():
    # at beta = 1 every replication observes one model, so no t_eff is defined
    result = run_coverage_experiment((0.5, 0.5), betas=(1.0,), iterations=5, replications=2,
                                     n_draws=10, seed=1)

    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    assert json.loads(result.to_json(), parse_constant=reject)["t_eff_median"] == {"1.0": None}
    assert result.to_csv().splitlines()[1].endswith(",nan")
