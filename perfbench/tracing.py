"""Layer spans taken from outside the package.

The tracer wraps the public names that a chainuq module looks up at call
time (``chainuq.cli``, ``chainuq.benchmark`` or the ``chainuq`` package
namespace itself), so nothing under ``src/`` changes. Each span records its
name, start, end and parent; spans and counts are held in memory and written
out when the run ends.

This module imports only the standard library at load time, so the traced
CLI child can time ``import chainuq.cli`` without numpy already loaded.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import subprocess
import sys
import time

# public name -> span name ("<layer module>.<function>")
SPAN_NAMES = {
    "read_chain_file": "chains.read_chain_file",
    "count_transitions": "chains.count_transitions",
    "merge_counts": "chains.merge_counts",
    "draw_posterior": "sampling.draw_posterior",
    "point_estimate": "sampling.point_estimate",
    "effective_sample_size": "ess.effective_sample_size",
    "iid_posterior": "ess.iid_posterior",
    "summarize": "summaries.summarize",
    "bayes_factors": "summaries.bayes_factors",
    "subset_probability": "summaries.subset_probability",
    "rank_stability": "summaries.rank_stability",
    "generate_chain": "benchmark.generate_chain",
    "run_coverage_experiment": "benchmark.run_coverage_experiment",
}
IID_METHODS = ("quantile", "sd")

# per-layer metric -> spans whose durations it sums, per operation
SPAN_METRICS = {
    "chains.read_s": ("chains.read_chain_file",),
    "chains.count_s": ("chains.count_transitions", "chains.merge_counts"),
    "sampling.draw_posterior_s": ("sampling.draw_posterior",),
    "ess.fit_s": ("ess.effective_sample_size",),
    "ess.iid_s": ("ess.iid_posterior", "ess.IidPosterior.quantile", "ess.IidPosterior.sd"),
    "summaries.total_s": (
        "summaries.summarize",
        "sampling.point_estimate",
        "summaries.bayes_factors",
        "summaries.subset_probability",
        "summaries.rank_stability",
    ),
    "benchmark.generate_s": ("benchmark.generate_chain",),
}
# per-layer metric -> span whose self time (duration minus children) it is
SELF_METRICS = {
    "cli.self_s": "cli.main",
    "benchmark.self_s": "benchmark.run_coverage_experiment",
}
COUNT_METRICS = ("chains.rows", "ess.fit_iterations")


class Tracer:
    """In-memory span recorder with call-time wrapping of module names."""

    def __init__(self):
        self.spans = []  # [id, name, parent id or None, start, end]
        self.counts = []  # [span id, key, value]
        self.calls = []  # bound draw_posterior arguments, for the replay
        self._stack = []
        self._patches = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, parent, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    def count(self, sid: int, key: str, value) -> None:
        self.counts.append([sid, key, float(value)])

    def _wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        after = _AFTER.get(attr)
        signature = inspect.signature(original) if after else None
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(sid)
            if after is not None:
                after(tracer, sid, signature.bind(*args, **kwargs), result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self, module) -> None:
        """Wrap every known public name that ``module`` holds."""
        for attr, name in SPAN_NAMES.items():
            if attr in vars(module):
                self._wrap(module, attr, name)

    def install_iid_methods(self, iid_class) -> None:
        for attr in IID_METHODS:
            self._wrap(iid_class, attr, f"ess.IidPosterior.{attr}")

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)

    def adopt(self, path, parent: int) -> None:
        """Graft spans written by a child process under span ``parent``."""
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        offset = len(self.spans)
        for sid, name, par, start, end in data["spans"]:
            self.spans.append(
                [sid + offset, name, parent if par is None else par + offset, start, end]
            )
        for sid, key, value in data["counts"]:
            self.counts.append([sid + offset, key, value])

    def op_metrics(self, root: int) -> dict:
        """Per-layer span metrics for the subtree under span ``root``."""
        children = {}
        for sid, _, parent, _, _ in self.spans:
            children.setdefault(parent, []).append(sid)
        subtree, todo = [], [root]
        while todo:
            sid = todo.pop()
            subtree.append(sid)
            todo.extend(children.get(sid, ()))

        def duration(sid):
            return self.spans[sid][4] - self.spans[sid][3]

        totals = {}
        for sid in subtree:
            totals[self.spans[sid][1]] = totals.get(self.spans[sid][1], 0.0) + duration(sid)
        out = {
            metric: sum(totals.get(name, 0.0) for name in names)
            for metric, names in SPAN_METRICS.items()
        }
        for metric, name in SELF_METRICS.items():
            out[metric] = sum(
                duration(sid) - sum(duration(c) for c in children.get(sid, ()))
                for sid in subtree
                if self.spans[sid][1] == name
            )
        members = set(subtree)
        for key in COUNT_METRICS:
            out[key] = sum(v for sid, k, v in self.counts if k == key and sid in members)
        top = sum(duration(c) for c in children.get(root, ()))
        out["trace.span_share"] = top / duration(root)
        return out


def _after_read(tracer, sid, bound, result):
    tracer.count(sid, "chains.rows", sum(chain.length for chain in result))


def _after_ess(tracer, sid, bound, result):
    tracer.count(sid, "ess.fit_iterations", 0 if result.fit is None else result.fit.iterations)


def _after_draw(tracer, sid, bound, result):
    bound.apply_defaults()
    args = bound.arguments
    tracer.calls.append((args["counts"], args["prior"], args["n_draws"], args["seed"]))


_AFTER = {
    "read_chain_file": _after_read,
    "effective_sample_size": _after_ess,
    "draw_posterior": _after_draw,
}


def replay(counts, prior, n_draws: int, seed: int) -> dict:
    """Re-run the draws of one ``draw_posterior`` call through public functions.

    Each draw gets its own stream spawned from ``seed`` by draw index, then
    one ``sample_transition_matrix`` (``sampling.rows_s``, stream set-up
    included) and one ``stationary`` solve (``stationary.solve_s``). Matrices
    with a zero entry take the per-draw support-classification path.
    """
    import numpy as np

    import chainuq

    if prior is None:
        prior = chainuq.PriorSpec.default()
    rows_s = solve_s = 0.0
    zero_entry = 0
    t0 = time.perf_counter()
    streams = np.random.SeedSequence(seed).spawn(n_draws)
    rows_s += time.perf_counter() - t0
    for stream in streams:
        t0 = time.perf_counter()
        matrix = chainuq.sample_transition_matrix(counts, prior, np.random.default_rng(stream))
        t1 = time.perf_counter()
        chainuq.stationary(matrix)
        solve_s += time.perf_counter() - t1
        rows_s += t1 - t0
        zero_entry += bool((matrix == 0).any())
    return {
        "sampling.rows_s": rows_s,
        "stationary.solve_s": solve_s,
        "stationary.zero_entry_draws": float(zero_entry),
    }


def import_times(module: str, env: dict, repeats: int, between=None) -> list:
    """Seconds to import ``module``, each in a fresh interpreter.

    One untimed import runs first so that bytecode caches exist, as they do
    for every invocation after a package's first. ``between``, if given, is
    called after each timed import.
    """
    code = (
        "import time; t = time.perf_counter(); "
        f"import {module}; print(repr(time.perf_counter() - t))"
    )
    times = []
    for i in range(repeats + 1):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, capture_output=True,
            text=True, timeout=120,
        )
        if i:
            times.append(float(out.stdout.strip()))
            if between is not None:
                between()
    return times


def importtime_cumulative(module: str, env: dict, names) -> dict:
    """Cumulative import seconds of ``names`` from ``python -X importtime``.

    A module the import does not load reads 0.0.
    """
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", f"import {module}"],
        env=env, check=True, capture_output=True, text=True, timeout=120,
    )
    found = dict.fromkeys(names, 0.0)
    for line in out.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] in found:
            found[parts[2]] = int(parts[1]) * 1e-6
    return found


def median_metrics(rows) -> dict:
    """Median of each key over a list of per-operation metric dicts."""
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}
