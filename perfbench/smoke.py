"""Smoke test of the benchmark at tiny sizes.

Usage, from the root of a checkout: python3 perfbench/smoke.py

For each workload it runs the operation and its checks through the real
run loop, untraced and traced, and confirms that nothing fails and that the
metric names match ``BENCHMARK.json``. It then feeds each workload one
deliberately corrupted output and confirms that the loop counts every such
operation as failed, so the checks are not vacuous. Exits 1 on any surprise.
"""

from __future__ import annotations

import json
import math
import shutil
import sys

import run

TINY = {
    "coverage": {"n_draws": 200},
    "analyze-csv": {"n_models": 10, "chains": 2, "rows": 5000, "n_draws": 200},
    "many-models": {"n_models": 20, "iterations": 2000, "n_draws": 200},
}


def corrupt_coverage(workload, op):
    def corrupted(k, traced=False):
        result = op(k, traced)
        for values in result.t_eff.values():
            values[:] = math.nan
        return result
    return corrupted


def corrupt_analyze(workload, op):
    def corrupted(k, traced=False):
        output = op(k, traced)
        report = json.loads(workload.report.read_text(encoding="utf-8"))
        for row in report["models"]:
            row["mean"] *= 1.5
        workload.report.write_text(json.dumps(report), encoding="utf-8")
        return output
    return corrupted


def corrupt_many_models(workload, op):
    def corrupted(k, traced=False):
        draws, t_eff, mean, sd = op(k, traced)
        return draws * 1.01, t_eff, mean, sd
    return corrupted


CORRUPT = {
    "coverage": corrupt_coverage,
    "analyze-csv": corrupt_analyze,
    "many-models": corrupt_many_models,
}


def main() -> int:
    if run.prepare() is None:
        print("smoke: no chainuq package under src/", file=sys.stderr)
        return 2
    import tracing
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    importtime = dict.fromkeys(run.IMPORTTIME_METRICS, 0.0)
    problems = []
    for name, cls in workloads.WORKLOADS.items():
        workdir = run.OUT / f"smoke-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            workload = cls(7, workdir, **TINY[name])
            plain = run.run_loop(workload, 1.0)
            traced = run.run_loop(workload, 0.0, tracing.Tracer())
            workload.op = CORRUPT[name](workload, workload.op)
            bad = run.run_loop(workload, 0.0)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for label, loop in (("untraced", plain), ("traced", traced)):
            for op in loop["ops"]:
                if op["problem"]:
                    problems.append(f"{name} {label} op {op['k']}: {op['problem']}")
            problems += [f"{name} {label}: {m}" for m in loop["run_problems"]]
        metrics, _, _ = run.end_to_end(workload, plain, [1.0], [1.0])
        if set(metrics) != e2e_names:
            problems.append(f"{name}: end-to-end metrics {sorted(metrics)} != BENCHMARK.json")
        layers = run.per_layer(traced, [1.0], importtime)
        if set(layers) != layer_names:
            problems.append(f"{name}: per-layer metrics differ from BENCHMARK.json by "
                            f"{sorted(set(layers) ^ layer_names)}")
        n_bad, n_failed = len(bad["ops"]), len(bad["failed_ks"])
        if n_failed != n_bad:
            problems.append(f"{name}: corrupted output failed {n_failed} of {n_bad} ops")
        print(f"{name}: {len(plain['ops'])} untraced and {len(traced['ops'])} traced ops, "
              f"span share {layers.get('trace.span_share', (math.nan,))[0]:.3f}; "
              f"corrupted output failed {n_failed}/{n_bad}")
    for problem in problems:
        print("FAIL", problem)
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
