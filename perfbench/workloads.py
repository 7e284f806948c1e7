"""The benchmark's three workloads, their inputs and their output checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished. Inputs come from the run seed alone and
from the copy/fresh mixture generator below, never from
``chainuq.benchmark.generate_chain``, so a change to the package's generator
cannot change what is measured.

A workload exposes:

- ``in_process``: whether operations run in the benchmark's own process
  (and get an untimed warm-up) or each in a cold child process.
- ``op(k, traced)``: operation ``k``; the caller times it.
- ``check(k, output)``: ``(problem or None, record)`` for one operation.
- ``finish(records)``: run-level checks as ``(problem, failing op ids)``.
- ``instrument(tracer)`` and ``replay_calls(tracer, op_span, output)`` for
  the traced run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
OP_TIMEOUT_S = 150


def mixture_chain(rng: np.random.Generator, pi, beta: float, length: int) -> np.ndarray:
    """States 0..len(pi)-1 of a stationary copy/fresh mixture chain.

    Each step keeps the previous state with probability ``beta`` and
    otherwise takes a fresh draw from ``pi``; the first state is fresh. The
    chain holds, at every step, the fresh draw of the last step that did not
    copy, so a running maximum of those step indices vectorises it.
    """
    fresh = rng.choice(len(pi), size=length, p=pi)
    copy = rng.random(length) < beta
    copy[0] = False
    source = np.where(copy, 0, np.arange(length))
    np.maximum.accumulate(source, out=source)
    return fresh[source]


def oracle_t_eff(iterations: int, beta: float) -> float:
    """Effective sample size of the mixture chain: T(1 - beta)/(1 + beta)."""
    return iterations * (1.0 - beta) / (1.0 + beta)


def within_factor(value: float, target: float, factor: float = 2.0) -> bool:
    return math.isfinite(value) and target / factor <= value <= target * factor


def sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _derived_seed(*words) -> int:
    return int(np.random.SeedSequence(list(words)).generate_state(1, np.uint64)[0])


class Coverage:
    """One replication of the desk coverage study per operation.

    Many small dense 3x3 fits: per-draw RNG set-up, gamma rows and tiny
    solves dominate, with no file I/O and no support classification.
    """

    name = "coverage"
    entry_module = "chainuq"
    in_process = True
    PI = (0.85, 0.13, 0.02)
    BETAS = (0.0, 0.8)

    def __init__(self, seed: int, workdir: Path, iterations: int = 1000, n_draws: int = 1000):
        import chainuq.benchmark
        import chainuq.ess

        self._bench = chainuq.benchmark
        self._ess = chainuq.ess
        self.seed = seed
        self.iterations = iterations
        self.draws_per_op = n_draws
        self.n_models = len(self.PI)
        self.inputs = {
            "pi": self.PI, "betas": self.BETAS, "iterations": iterations,
            "draws": n_draws, "op_seed": "SeedSequence([seed, k]) -> uint64",
        }

    def _op_inputs(self, k: int):
        return self.BETAS[k % len(self.BETAS)], _derived_seed(self.seed, k)

    def digest(self, ops: int) -> dict:
        plan = [self._op_inputs(k) for k in range(ops)]
        return {"ops": sha256_json([self.inputs, plan])}

    def op(self, k: int, traced: bool = False):
        beta, op_seed = self._op_inputs(k)
        return self._bench.run_coverage_experiment(
            self.PI, (beta,), iterations=self.iterations, replications=1,
            n_draws=self.draws_per_op, seed=op_seed,
        )

    def check(self, k: int, result):
        beta, _ = self._op_inputs(k)
        t_eff = float(result.t_eff[beta][0])
        mean_sd = float(np.mean(result.cell(beta, "markov").mean_sd))
        if not math.isfinite(t_eff):
            return f"t_eff is {t_eff}", None
        return None, (beta, t_eff, mean_sd)

    def finish(self, records):
        failures = []
        by_beta = {beta: [(k, r) for k, r in records if r[0] == beta] for beta in self.BETAS}
        for beta, rows in by_beta.items():
            if not rows:
                continue
            median = float(np.median([r[1] for _, r in rows]))
            oracle = oracle_t_eff(self.iterations, beta)
            if not within_factor(median, oracle):
                failures.append((
                    f"beta={beta}: median t_eff {median:.4g} outside 2x of oracle {oracle:.4g}",
                    [k for k, _ in rows],
                ))
        low, high = by_beta[self.BETAS[0]], by_beta[self.BETAS[-1]]
        if low and high:
            sd_low = float(np.mean([r[2] for _, r in low]))
            sd_high = float(np.mean([r[2] for _, r in high]))
            if not sd_high > sd_low:
                failures.append((
                    f"mean Markov SD {sd_high:.4g} at beta={self.BETAS[-1]} is not above "
                    f"{sd_low:.4g} at beta={self.BETAS[0]}",
                    [k for k, _ in low + high],
                ))
        return failures

    def instrument(self, tracer) -> None:
        tracer.install(self._bench)
        tracer.install_iid_methods(self._ess.IidPosterior)

    def replay_calls(self, tracer, op_span, output):
        calls, tracer.calls = tracer.calls, []
        return calls


class ManyModels:
    """In-process library pipeline on I* = 100 sparse transition counts.

    Large matrices, many zero count cells and thousands of tiny gamma
    shapes: most draws carry an underflowed zero entry, so per-draw support
    classification runs. Peak memory shows any batching that holds all R
    transition matrices at once.
    """

    name = "many-models"
    entry_module = "chainuq"
    in_process = True

    def __init__(self, seed: int, workdir: Path, n_models: int = 100,
                 iterations: int = 10_000, beta: float = 0.2, n_draws: int = 1000):
        import chainuq

        self._cq = chainuq
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        states = mixture_chain(rng, np.full(n_models, 1.0 / n_models), beta, iterations)
        self.counts = chainuq.count_transitions(chainuq.index_chain((states + 1).tolist()))
        self.draw_seed = _derived_seed(seed, 2, 1)
        self.draws_per_op = n_draws
        self.n_models = n_models
        self.oracle = oracle_t_eff(iterations, beta)
        by_visits = np.argsort(-self.counts.visits, kind="stable")
        labels = self.counts.labels
        self.bf_pair = (labels[by_visits[0]], labels[by_visits[1]])
        self.subset = [labels[i] for i in by_visits[:3]]
        self.inputs = {"models": n_models, "iterations": iterations, "beta": beta, "draws": n_draws}
        self._digest = {
            "chain": hashlib.sha256(states.astype(np.int64).tobytes()).hexdigest(),
            "draw_seed": self.draw_seed,
        }

    def digest(self, ops: int) -> dict:
        return self._digest

    def op(self, k: int, traced: bool = False):
        cq = self._cq  # names looked up at call time, so the tracer can wrap them
        draws = cq.draw_posterior(self.counts, n_draws=self.draws_per_op, seed=self.draw_seed)
        ess = cq.effective_sample_size(draws)
        summary = cq.summarize(draws)
        cq.rank_stability(draws, k_top=10)
        cq.bayes_factors(draws, [self.bf_pair])
        cq.subset_probability(draws, self.subset)
        return draws.draws, ess.t_eff, summary.mean, summary.sd

    def check(self, k: int, output):
        draws, t_eff, mean, sd = output
        if draws.shape != (self.draws_per_op, self.n_models):
            return f"draws have shape {draws.shape}", None
        if not (draws >= 0).all():
            return "negative draw entry", None
        row_err = float(np.abs(draws.sum(axis=1) - 1.0).max())
        if row_err > 1e-12:
            return f"draw row sums off by {row_err:.3g}", None
        truth = 1.0 / self.n_models
        if not (np.abs(mean - truth) <= 5 * sd).all():
            return "a posterior mean lies over 5 SD from the true probability", None
        if not within_factor(t_eff, self.oracle):
            return f"t_eff {t_eff:.4g} outside 2x of oracle {self.oracle:.4g}", None
        return None, None

    def finish(self, records):
        return []

    def instrument(self, tracer) -> None:
        tracer.install(self._cq)

    def replay_calls(self, tracer, op_span, output):
        calls, tracer.calls = tracer.calls, []
        return calls


class AnalyzeCsv:
    """One cold ``chainuq analyze`` subprocess per operation.

    What a user runs on real sampler output: import, CSV parsing and
    iteration validation dominate; counting is tiny and sampling is light.
    """

    name = "analyze-csv"
    entry_module = "chainuq.cli"
    in_process = False

    def __init__(self, seed: int, workdir: Path, n_models: int = 50, chains: int = 4,
                 rows: int = 250_000, stay: float = 0.95, n_draws: int = 1000):
        self.workdir = workdir
        self.env = dict(os.environ)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
        pi = rng.dirichlet(np.full(n_models, 0.5))
        names = np.array([f"M{i:02d}" for i in range(n_models)])
        iteration = np.arange(rows).astype(str)
        visits = np.zeros(n_models, dtype=np.int64)
        self.paths = []
        self._digest = {}
        for c in range(chains):
            states = mixture_chain(rng, pi, stay, rows)
            visits += np.bincount(states, minlength=n_models)
            body = np.char.add(np.char.add(iteration, ","), names[states])
            path = workdir / f"chain{c}.csv"
            data = ("iteration,label\n" + "\n".join(body.tolist()) + "\n").encode()
            path.write_bytes(data)
            self.paths.append(path)
            self._digest[path.name] = hashlib.sha256(data).hexdigest()
        top = [str(names[i]) for i in np.argsort(-visits, kind="stable")[:3]]
        self.models_observed = self.n_models = int((visits > 0).sum())
        self.iterations = chains * rows
        self.oracle = oracle_t_eff(self.iterations, stay)
        self.draws_per_op = n_draws
        self.draw_seed = _derived_seed(seed, 3, 1)
        self.report = workdir / "report.json"
        self.spans = workdir / "spans.json"
        self.argv = ["analyze"]
        for path in self.paths:
            self.argv += ["--input", str(path)]
        self.argv += [
            "--draws", str(n_draws), "--seed", str(self.draw_seed), "--top-k", "10",
            "--bf", f"{top[0]},{top[1]}", "--subset", "top=" + ",".join(top),
            "--out-format", "json", "--out", str(self.report),
        ]
        self.inputs = {
            "models": n_models, "chains": chains, "rows_per_chain": rows,
            "stay": stay, "draws": n_draws, "models_observed": self.models_observed,
        }
        self._replay_counts = None

    def digest(self, ops: int) -> dict:
        return self._digest

    def op(self, k: int, traced: bool = False):
        """Run the CLI; returns (exit code, peak RSS of the child in MB)."""
        self.report.unlink(missing_ok=True)
        self.spans.unlink(missing_ok=True)
        if traced:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(self.spans)]
        else:
            cmd = [sys.executable, "-m", "chainuq.cli"]
        with open(self.workdir / "stderr.txt", "wb") as err:
            proc = subprocess.Popen(
                cmd + self.argv, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss / 1024.0

    def check(self, k: int, output):
        code, _ = output
        if code != 0:
            tail = (self.workdir / "stderr.txt").read_text(errors="replace")[-300:]
            return f"exit code {code}: {tail.strip()}", None
        try:
            report = json.loads(self.report.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return f"report is not valid JSON: {exc}", None
        total = math.fsum(row["mean"] for row in report["models"])
        if abs(total - 1.0) > 1e-9:
            return f"model means sum to {total!r}", None
        chain = report["chain"]
        if chain["models_observed"] != self.models_observed:
            return f"models_observed {chain['models_observed']} != {self.models_observed}", None
        if chain["iterations"] != self.iterations:
            return f"iterations {chain['iterations']} != {self.iterations}", None
        t_eff = report["ess"]["t_eff"]
        if t_eff is None or not within_factor(t_eff, self.oracle):
            return f"t_eff {t_eff} outside 2x of oracle {self.oracle:.4g}", None
        return None, None

    def finish(self, records):
        return []

    def instrument(self, tracer) -> None:
        pass  # the traced child instruments itself

    def replay_calls(self, tracer, op_span, output):
        tracer.adopt(self.spans, op_span)
        if self._replay_counts is None:
            import chainuq

            self._replay_counts = chainuq.merge_counts([
                chainuq.count_transitions(chain)
                for path in self.paths
                for chain in chainuq.read_chain_file(path)
            ])
        return [(self._replay_counts, None, self.draws_per_op, self.draw_seed)]


WORKLOADS = {cls.name: cls for cls in (Coverage, AnalyzeCsv, ManyModels)}
