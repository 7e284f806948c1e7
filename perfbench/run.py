"""chainuq benchmark: closed-loop, single-client workloads, one process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {coverage,analyze-csv,many-models} \\
        --seed N --seconds S --trace {0,1}

Runs operations one at a time for S seconds after an untimed warm-up (the
in-process workloads only; each ``analyze-csv`` operation is a cold process,
as a user's is), checks every output, and prints a human-readable table
followed, as the last line, by one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median seconds to
import the workload's entry module in a fresh interpreter), ``op_s_p50``,
``draws_per_s`` (posterior draws over the summed latency of the timed
operations) and ``peak_rss_mb`` (peak resident memory of the process doing
the work). The three time metrics are scaled to a reference machine speed,
measured by a fixed kernel like the timed work and timed next to it (see
``speed.py``); the table also prints the unscaled medians. ``--trace 1`` alternates untraced
and traced operations and reports the per-layer metrics, unscaled, from
spans taken around the package's public functions (see ``tracing.py``). The
package is imported from ``src/`` of the checkout; it exits with status 2
and prints no result when that is missing.

Everything the run leaves behind goes under ``.perfbench/`` in the checkout.
``perfbench/smoke.py`` checks the workloads, their checks and the metric
names at tiny sizes in a few seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
KERNEL_SHARE = 0.05
IMPORT_REPEATS = 3
IMPORTTIME_METRICS = {
    "scipy.stats": "import.scipy_stats_s",
    "scipy.sparse.csgraph": "import.scipy_sparse_csgraph_s",
}
WAITED = "not applicable: single-threaded, no queues between layers"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("coverage", "analyze-csv", "many-models"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    """Environment for child interpreters: ``src/`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def blas_info() -> dict:
    """BLAS name, version and the thread count each bundled OpenBLAS will use."""
    import ctypes

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": {}}
    for package in (np, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                func = getattr(lib, symbol, None)
                if func is not None:
                    func.restype = ctypes.c_int
                    info["threads"][path.name] = func()
                    break
    info["env"] = {k: os.environ.get(k) for k in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return info


def git_commit():
    """Commit of the checkout from ``.git`` files, or None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(args, threads_env) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "CHAINUQ_THREADS": f"unset for the run (was {threads_env!r})",
        "commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client, one operation at a time",
    }


def run_loop(workload, seconds: float, tracer=None) -> dict:
    """Time operations for ``seconds``; traced ops alternate with untraced.

    Untraced runs time a batch of the speed kernel before the first
    operation, batches after each operation until the kernel has taken
    ``KERNEL_SHARE`` of the run so far, and one after the last.
    """
    import speed
    import tracing

    if workload.in_process:
        try:
            workload.op(0)  # warm-up: BLAS and lazy set-up stay out of the timings
        except Exception:  # the timed operations report failures
            pass
    ops = []  # per op: {"k", "latency", "traced", "problem", "rss_mb"}
    records, layer_rows, replay_rows = [], [], []
    speed_log = None
    if tracer is None:
        speed_log = speed.SpeedLog(speed.WARM if workload.in_process else speed.COLD)
        speed_log.measure()
    start = time.perf_counter()
    k = 0
    min_ops = 2 if tracer is None else 4
    while k < min_ops or time.perf_counter() - start < seconds:
        # untraced and traced ops alternate in pairs, so that workloads that
        # alternate inputs by op parity give each input to both kinds
        traced = tracer is not None and k % 4 >= 2
        problem, output = None, None
        t0 = time.perf_counter()
        try:
            if traced:
                try:
                    workload.instrument(tracer)
                    sid = tracer.begin("op")
                    try:
                        output = workload.op(k, traced=True)
                    finally:
                        tracer.end(sid)
                finally:
                    tracer.restore()
            else:
                output = workload.op(k)
        except Exception as exc:  # a raising op is a failed op
            problem = f"raised {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if problem is None:
            try:
                problem, record = workload.check(k, output)
            except (KeyError, TypeError, ValueError) as exc:  # malformed output
                problem = f"check raised {type(exc).__name__}: {exc}"
            else:
                if problem is None:
                    records.append((k, record))
        if traced and problem is None:
            try:
                calls = workload.replay_calls(tracer, sid, output)
                layer_rows.append(tracer.op_metrics(sid))
                replay_rows.extend(tracing.replay(*call) for call in calls)
            except Exception as exc:  # a failed trace collection fails the op
                problem = f"trace collection raised {type(exc).__name__}: {exc}"
        rss = output[1] if output and not workload.in_process else None
        ops.append({"k": k, "latency": latency, "traced": traced,
                    "problem": problem, "rss_mb": rss})
        k += 1
        while speed_log and speed_log.spent() < KERNEL_SHARE * (time.perf_counter() - start):
            speed_log.measure()
    if speed_log:
        speed_log.measure()
    failed_ks = {op["k"] for op in ops if op["problem"]}
    run_problems = []
    for message, ks in workload.finish(records):
        run_problems.append(message)
        failed_ks.update(ks)
    return {"ops": ops, "failed_ks": failed_ks, "run_problems": run_problems,
            "layer_rows": layer_rows, "replay_rows": replay_rows,
            "speed_log": speed_log}


def end_to_end(workload, loop, setup_times, raw_setup) -> tuple:
    """Metrics of an untraced loop; times are scaled to reference speed.

    ``setup_times`` are the import times ``raw_setup``, scaled.
    """
    ops = loop["ops"]
    speed_log = loop["speed_log"]
    good = [op for op in ops if op["k"] not in loop["failed_ks"]] or ops
    raw = [op["latency"] for op in good]
    latencies = [speed_log.scale(t) for t in raw]
    if not workload.in_process:
        peak = statistics.median(op["rss_mb"] for op in good if op["rss_mb"] is not None)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_s_p50": (statistics.median(latencies), "s"),
        "draws_per_s": (workload.draws_per_op * len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": (peak, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh interpreters importing "
                   f"{workload.entry_module}; unscaled {statistics.median(raw_setup):.4g} s",
        "op_s_p50": f"n={len(latencies)}; unscaled {statistics.median(raw):.4g} s, "
                    f"kernel median {speed_log.median_ms():.4g} ms of {len(speed_log.times)}",
        "draws_per_s": f"scaled; R={workload.draws_per_op} per op, I*={workload.n_models}",
        "peak_rss_mb": "benchmark process" if workload.in_process
                       else "median over the operations' child processes",
    }
    extra = []
    if len(latencies) >= 100:  # ten samples beyond the 90th percentile
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
        extra.append(("op_s_p90", p90, "s", f"n={len(latencies)}, scaled"))
    return metrics, notes, extra


def per_layer(loop, import_s, importtime) -> dict:
    import tracing

    ops = loop["ops"]
    good = [op for op in ops if op["k"] not in loop["failed_ks"]]
    traced = [op["latency"] for op in good if op["traced"]]
    plain = [op["latency"] for op in good if not op["traced"]]
    values = {"cli.import_s": statistics.median(import_s)}
    for module, metric in IMPORTTIME_METRICS.items():
        values[metric] = importtime[module]
    if loop["layer_rows"]:
        values.update(tracing.median_metrics(loop["layer_rows"]))
    if loop["replay_rows"]:
        values.update(tracing.median_metrics(loop["replay_rows"]))
    if traced and plain:
        values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    units = {}
    for key in values:
        units[key] = "s" if key.endswith("_s") else (
            "ratio" if key.startswith("trace.") else "count")
    return {key: (values[key], units[key]) for key in values}


def prepare():
    """Point this process and its children at ``src/``; unset CHAINUQ_THREADS.

    Returns ``(child environment, former CHAINUQ_THREADS value)``, or None
    when the checkout holds no package to measure.
    """
    if not (SRC / "chainuq" / "__init__.py").is_file():
        return None
    threads_env = os.environ.pop("CHAINUQ_THREADS", None)
    env = child_env()
    os.environ["PYTHONPATH"] = env["PYTHONPATH"]
    sys.path.insert(0, str(SRC))
    return env, threads_env


def main(argv=None) -> int:
    args = parse_args(argv)
    prepared = prepare()
    if prepared is None:
        print(f"perfbench: no chainuq package under {SRC}; nothing to measure",
              file=sys.stderr)
        return 2
    env, threads_env = prepared

    import tracing
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    setup_times = raw_setup = import_s = importtime = None
    if args.trace:
        import_s = tracing.import_times("chainuq.cli", env, IMPORT_REPEATS)
        importtime = tracing.importtime_cumulative("chainuq.cli", env, IMPORTTIME_METRICS)
    else:
        import speed

        setup_log = speed.SpeedLog(speed.COLD)
        setup_log.measure()
        raw_setup = tracing.import_times(cls.entry_module, env, SETUP_REPEATS,
                                         between=setup_log.measure)
        setup_times = [setup_log.scale(t) for t in raw_setup]
    tracer = tracing.Tracer() if args.trace else None
    try:
        workload = cls(args.seed, workdir)
        loop = run_loop(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = loop["ops"]
    attempted, failed = len(ops), len(loop["failed_ks"])
    if args.trace:
        metrics = per_layer(loop, import_s, importtime)
    else:
        metrics, notes, extra = end_to_end(workload, loop, setup_times, raw_setup)
    info = provenance(args, threads_env)
    info["operations"] = {"attempted": attempted, "failed": failed,
                          "traced": sum(op["traced"] for op in ops)}
    info["inputs"] = workload.inputs
    info["input_digest"] = workload.digest(attempted)

    print(f"chainuq benchmark  workload={args.workload}  seed={args.seed}  "
          f"seconds={args.seconds:g}  trace={args.trace}")
    print("machine: " + json.dumps(info, sort_keys=True))
    if args.trace:
        for name, (value, unit) in sorted(metrics.items()):
            print(f"  {name:<30} {value:>14.6g} {unit}")
        print(f"  {'time waited':<30} {WAITED}")
    else:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<14} {value:>14.6g} {unit:<6} {notes[name]}")
        for name, value, unit, note in extra:
            print(f"  {name:<14} {value:>14.6g} {unit:<6} {note}")
    print(f"  {'failed_ratio':<14} {failed / attempted:>14.6g} ratio  {failed}/{attempted}")
    for op in ops:
        if op["problem"]:
            print(f"  failed op {op['k']}: {op['problem']}")
    for message in loop["run_problems"]:
        print(f"  failed run check: {message}")

    OUT.mkdir(exist_ok=True)
    record = {"provenance": info, "metrics": metrics, "ops": ops,
              "failed_ks": sorted(loop["failed_ks"]), "run_problems": loop["run_problems"],
              "kernel_times": None if args.trace else loop["speed_log"].times,
              "trace": tracer.to_dict() if tracer else None}
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
