"""Command-line front end.

``chainuq analyze`` reads model-indicator chains, samples the posterior of
the transition matrix, and reports uncertainty summaries, Bayes factors,
subset probabilities, rank stability, and the effective sample size.
``chainuq bench`` runs the synthetic coverage study.

Exit codes: 0 success, 1 input error, 2 numerical failure, 3 config error;
each error class in `chainuq.errors` carries its own code.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import warnings

import numpy as np

from . import __version__
from ._pool import map_units
from .benchmark import run_coverage_experiment
from .chains import count_transitions, merge_counts, read_chain_file
from .errors import ChainUQError, ConfigError, InsufficientTransitionsError, LabelError
from .ess import EXCESS_RATIO, effective_sample_size
from .sampling import PriorSpec, draw_posterior
from .stationary import classify_support
from .summaries import (
    DEFAULT_LEVELS, _check_levels, _model_indices, _reject_repeats, bayes_factors, rank_stability,
    subset_probability, summarize,
)

# warning code -> message template, filled by `str.format`; the report lists
# warnings in the order `analyze_chains` raises them
WARNINGS = {
    "disconnected_chains": (
        "the observed transitions split the models into more than one "
        "closed class; probabilities across the classes rest on the prior alone"
    ),
    "k_top_reduced": "top-k reduced from {k_top} to the {n_models} observed models",
    "unstable_bayes_factor": (
        "B({numerator!r}/{denominator!r}): {n_zero} of {n_draws} draws had a zero or "
        "vanishing denominator; summary uses the remaining draws only"
    ),
    "single_model_chain": "only one model was ever sampled; the effective sample size is undefined",
    "negative_ess": "fitted shape total fell below the prior weight; t_eff reported as 0",
    "ess_exceeds_iterations": (
        "t_eff = {t_eff:.6g} exceeds {ratio:g}x the {t_raw} chain iterations; "
        "reported as estimated, never truncated"
    ),
    "dirichlet_fit_not_converged": (
        "the Dirichlet fit did not converge (draws equal to rounding, or its "
        "step budget ran out); t_eff is not determined"
    ),
    "clamped_draws": "draws contained zero components that were clamped before the fit",
    "never_sampled_model": "declared model {label!r} was never sampled; reported with probability 0",
}
# report key -> attribute of a summary (per model, per Bayes factor, per subset)
STATS = {"mean": "mean", "sd": "sd", "median": "median", "ci_lower": "lower", "ci_upper": "upper"}
# keys of a model row's ``rank``, each the `RankReport` attribute of that name
RANKS = ("point_rank", "mean_rank", "sd_rank", "p_rank_equals_point", "p_rank_within_top")


def _stats(result) -> dict:
    """The report's statistics of ``result``: a value each, or an array each for model rows."""
    return {key: getattr(result, attr) for key, attr in STATS.items()}


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports bad flags as config errors (exit 3)."""

    def error(self, message):
        raise ConfigError(message)


def _parse_epsilon(text: str) -> PriorSpec:
    if text == "default_reduced":
        return PriorSpec.default()
    if text.startswith("fixed:"):
        try:
            value = float(text.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"cannot parse epsilon value in {text!r}") from None
        return PriorSpec.fixed(value)
    if text.startswith("matrix:"):
        path = text.split(":", 1)[1]
        try:
            with warnings.catch_warnings():  # an empty file is reported below instead
                warnings.simplefilter("ignore")
                matrix = np.loadtxt(path, delimiter=",", ndmin=2, encoding="utf-8-sig")
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read epsilon matrix from {path!r}: {exc}") from None
        if matrix.size == 0:
            raise ConfigError(f"epsilon matrix file {path!r} holds no numbers")
        return PriorSpec.from_matrix(matrix)
    raise ConfigError(
        f"epsilon must be 'default_reduced', 'fixed:<value>' or 'matrix:<path>', got {text!r}"
    )


def _parse_subset(text: str, position: int) -> tuple:
    if "=" in text:
        name, labels = text.split("=", 1)
    else:
        name, labels = f"subset_{position}", text
    return name.strip(), _parse_labels(labels)


def _parse_pair(text: str) -> tuple:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 2 or not all(parts):
        raise ConfigError(f"--bf expects 'numerator,denominator', got {text!r}")
    return parts[0], parts[1]


def _parse_labels(text: str) -> list:
    return [part.strip() for part in text.split(",") if part.strip()]


def _parse_floats(text: str, flag: str) -> list:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse {flag} value {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chainuq",
        description="Quantify the Monte Carlo uncertainty of posterior model "
        "probabilities estimated from a discrete model-indicator chain.",
    )
    parser.add_argument("--version", action="version", version=f"chainuq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="analyze one or more model-indicator chains")
    an.add_argument("--input", action="append", required=True, metavar="PATH",
                    help="chain file; repeat for multiple independent chains")
    an.add_argument("--format", choices=("lines", "csv"), default=None,
                    help="input format (default: inferred from the extension)")
    an.add_argument("--epsilon", default="default_reduced", metavar="POLICY",
                    help="prior policy: default_reduced | fixed:<value> | matrix:<path>")
    an.add_argument("--draws", type=int, default=1000, metavar="R",
                    help="posterior draws, at least 2 (default 1000; use >= 5000 for densities)")
    an.add_argument("--seed", type=int, default=None,
                    help="RNG seed (default: fresh entropy, recorded in the report)")
    an.add_argument("--ci", default=",".join(map(str, DEFAULT_LEVELS)), metavar="LO,HI",
                    help="credibility interval quantile levels")
    an.add_argument("--top-k", type=int, default=None, metavar="K",
                    help="emit a rank-stability report for the top K models")
    an.add_argument("--subset", action="append", default=[], metavar="[NAME=]A,B",
                    help="summarize the total probability of a set of models; repeatable")
    an.add_argument("--bf", action="append", default=[], metavar="A,B",
                    help="summarize the Bayes factor of model A over model B; repeatable")
    an.add_argument("--declared", default="", metavar="A,B",
                    help="models that could have been sampled; reported even if never seen")
    an.add_argument("--out", default="-", metavar="PATH", help="output path (default stdout)")
    an.add_argument("--out-format", choices=RENDERERS, default="text")

    be = sub.add_parser("bench", help="run the synthetic coverage study")
    be.add_argument("--pi", default="0.85,0.13,0.02", metavar="P1,P2,...",
                    help="generating stationary distribution")
    be.add_argument("--beta-grid", default="0,0.2,0.4,0.6,0.8", metavar="B1,B2,...",
                    help="autocorrelation levels to sweep")
    be.add_argument("--iterations", type=int, default=1000, metavar="T")
    be.add_argument("--replications", type=int, default=200)
    be.add_argument("--draws", type=int, default=1000, metavar="R",
                    help="posterior draws per replication, at least 2 (default 1000)")
    be.add_argument("--seed", type=int, default=0)
    be.add_argument("--ci", default=",".join(map(str, DEFAULT_LEVELS)), metavar="LO,HI")
    be.add_argument("--out", default="coverage", metavar="PREFIX",
                    help="writes PREFIX.csv and PREFIX.json")
    return parser


def _clean(value):
    """Make a report value JSON-safe: plain floats, NaN/inf -> None; containers walked."""
    if isinstance(value, float):  # numpy's float64 is one
        value = float(value)
        return value if math.isfinite(value) else None
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    return value


def analyze_chains(
    chains,
    prior: PriorSpec,
    n_draws: int,
    seed: int,
    levels=DEFAULT_LEVELS,
    k_top: int | None = None,
    subsets=(),
    bf_pairs=(),
    declared=(),
) -> dict:
    """Run the full pipeline on indexed chains and assemble the report dict.

    This is the CLI's engine, exposed so library users can produce the same
    report without touching the filesystem; ``chains`` is iterated only after
    every setting is checked. The report's ``epsilon_policy`` names ``prior``
    (``default_reduced``, ``fixed:<epsilon>`` or ``matrix``), ``inputs`` is
    empty and ``input_format`` is null; the CLI fills those three keys from
    its command line.

    Raises
    ------
    ConfigError
        If ``n_draws`` is below 2, which leaves the ESS fit and the
        standard deviations undefined, ``seed`` is negative, ``levels`` are
        not 0 < lo < hi < 1, or ``k_top`` is below 1; checked before counting.
    LabelError
        If ``declared``, a subset or a Bayes-factor pair names a model twice,
        a subset names no models, or a subset name is empty or repeated; or,
        checked after counting but before any draw, a Bayes-factor pair or
        subset names an unobserved model.
    """
    # the messages name the CLI flags too: the CLI reads no input before these checks
    if n_draws < 2:
        raise ConfigError(
            f"n_draws must be at least 2 (--draws); the ESS fit needs two draws, got {n_draws}"
        )
    if seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {seed}")
    _check_levels(levels)
    if k_top is not None and k_top < 1:
        raise ConfigError(f"k_top must be at least 1 (--top-k), got {k_top}")
    _reject_repeats(declared, "declared model list")
    subset_names = [name for name, _ in subsets]
    if "" in subset_names:
        raise LabelError("a subset has an empty name")
    _reject_repeats(subset_names, "subset list")
    for name, members in subsets:
        if not members:
            raise LabelError(f"subset {name!r} names no models")
        _reject_repeats(tuple(members), "subset")
    for pair in bf_pairs:
        _reject_repeats(pair, "Bayes-factor pair")
    counts = merge_counts([count_transitions(c) for c in chains])
    wanted = [lab for pair in bf_pairs for lab in pair] + [lab for _, m in subsets for lab in m]
    _model_indices(counts, wanted)  # an unknown --bf or --subset label fails before any draw
    draws = draw_posterior(counts, prior, n_draws=n_draws, seed=seed)
    summary = summarize(draws, levels=levels)
    ess_est = effective_sample_size(draws)
    raised = []

    def warn(code, **fields):
        raised.append({"code": code, "message": WARNINGS[code].format(**fields)})

    # models with an observed outgoing move; a model seen only at a chain's
    # end would otherwise form a closed class of its own
    left = counts.counts.sum(axis=1) > 0
    if classify_support(counts.counts[np.ix_(left, left)]).n_closed > 1:
        warn("disconnected_chains")

    rank_report = None
    k_used = None
    if k_top is not None:
        k_used = min(int(k_top), counts.n_models)
        if k_used < int(k_top):
            warn("k_top_reduced", k_top=k_top, n_models=counts.n_models)
        rank_report = rank_stability(draws, k_top=k_used)

    bf_results = bayes_factors(draws, bf_pairs, levels=levels)
    for bf in bf_results:
        if bf.unstable:
            warn("unstable_bayes_factor", numerator=bf.numerator, denominator=bf.denominator,
                 n_zero=bf.n_zero_denominator, n_draws=draws.n_draws)
    subset_results = [
        (name, subset_probability(draws, members, levels=levels))
        for name, members in subsets
    ]

    if ess_est.single_model:
        warn("single_model_chain")
    if ess_est.negative:
        warn("negative_ess")
    if ess_est.exceeds_raw:
        warn("ess_exceeds_iterations", t_eff=ess_est.t_eff, ratio=EXCESS_RATIO, t_raw=ess_est.t_raw)
    if not ess_est.converged:
        warn("dirichlet_fit_not_converged")
    if ess_est.approximate:
        warn("clamped_draws")

    never_sampled = [lab for lab in declared if lab not in counts.label_to_index]
    for lab in never_sampled:
        warn("never_sampled_model", label=lab)

    pad = [0.0] * len(never_sampled)  # a never-sampled model: every statistic 0, no visit, no rank
    stats = {key: values.tolist() + pad for key, values in _stats(summary).items()}
    visits = counts.visits.tolist() + [0] * len(never_sampled)
    ranks = {} if rank_report is None else {key: getattr(rank_report, key).tolist() for key in RANKS}
    model_rows = []
    for i, lab in enumerate(counts.labels + tuple(never_sampled)):
        row = {
            "label": str(lab),
            **{key: values[i] for key, values in stats.items()},
            "point_estimate": stats["mean"][i],  # the posterior mean
            "visits": visits[i],
            "never_sampled": i >= counts.n_models,
        }
        if ranks and i < counts.n_models:
            row["rank"] = {key: values[i] for key, values in ranks.items()}
        model_rows.append(row)
    model_rows.sort(key=lambda row: row["label"])

    report = {
        "tool": "chainuq",
        "version": __version__,
        "config": {
            "inputs": [],
            "input_format": None,
            "epsilon_policy": "matrix" if prior.epsilon_matrix is not None else (
                "default_reduced" if prior.epsilon is None else f"fixed:{prior.epsilon!r}"
            ),
            "epsilon_total_mass": draws.prior_mass,
            "draws": int(n_draws),
            "seed": int(seed),
            "ci_levels": list(levels),
            "k_top": k_used,
            "subsets": [name for name, _ in subsets],
            "bayes_factor_pairs": [[str(a), str(b)] for a, b in bf_pairs],
            "declared_models": [str(lab) for lab in declared],
        },
        "chain": {
            "chains": counts.n_chains,
            "iterations": counts.total_iterations,
            "transitions": counts.total_transitions,
            "models_observed": counts.n_models,
        },
        "models": model_rows,
        "ess": {
            "t_eff": ess_est.t_eff,
            "t_raw": ess_est.t_raw,
            "ratio": ess_est.ratio,
            "alpha_total": None if ess_est.alpha_hat is None else float(ess_est.alpha_hat.sum()),
            "prior_weight": ess_est.prior_weight,
            "converged": ess_est.converged,
            "negative": ess_est.negative,
            "single_model": ess_est.single_model,
        },
        "warnings": raised,
    }
    if rank_report is not None:
        report["rank_stability"] = {
            "k_top": rank_report.k_top,
            "p_top_order_reproduced": rank_report.p_top_order_reproduced,
        }
    if bf_results:
        report["bayes_factors"] = [
            {
                "numerator": str(bf.numerator),
                "denominator": str(bf.denominator),
                **_stats(bf),
                "n_zero_denominator": bf.n_zero_denominator,
                "unstable": bf.unstable,
            }
            for bf in bf_results
        ]
    if subset_results:
        report["subsets"] = [
            {
                "name": name,
                "labels": [str(lab) for lab in res.labels],
                **_stats(res),
            }
            for name, res in subset_results
        ]
    return _clean(report)


def _interval(row: dict) -> str:
    """A Bayes-factor or subset row's mean, SD and interval; one finite ratio has no SD."""
    sd = "n/a" if row["sd"] is None else f"{row['sd']:.6g}"
    return f"mean {row['mean']:.6g} sd {sd} ci [{row['ci_lower']:.6g}, {row['ci_upper']:.6g}]"


def render_text(report: dict) -> str:
    cfg = report["config"]
    ch = report["chain"]
    lines = [f"chainuq {report['version']} analyze report"]
    lines.append(
        f"seed {cfg['seed']}   draws {cfg['draws']}   epsilon {cfg['epsilon_policy']}"
        f"   ci {cfg['ci_levels'][0]:g},{cfg['ci_levels'][1]:g}"
    )
    lines.append(
        f"chains {ch['chains']}   iterations {ch['iterations']}   "
        f"transitions {ch['transitions']}   observed models {ch['models_observed']}"
    )
    lines.append("")
    lines.append(f"{'model':<16}" + "".join(f"{name:>12}" for name in STATS.values()))
    for row in report["models"]:
        tag = "  (never sampled)" if row["never_sampled"] else ""
        lines.append(f"{row['label']:<16}" + "".join(f"{row[k]:>12.6g}" for k in STATS) + tag)
    lines.append("")
    ess = report["ess"]
    if ess["t_eff"] is None:
        lines.append("effective sample size: undefined (see warnings)")
    else:
        lines.append(
            f"effective sample size: t_eff {ess['t_eff']:.6g} of {ess['t_raw']} "
            f"iterations (ratio {ess['ratio']:.6g})"
        )
    if "rank_stability" in report:
        rs = report["rank_stability"]
        lines.append(
            f"rank stability: top-{rs['k_top']} ordering reproduced in "
            f"{100 * rs['p_top_order_reproduced']:.6g}% of draws"
        )
        for row in report["models"]:
            if "rank" in row:
                rk = row["rank"]
                lines.append(
                    f"  {row['label']:<14} rank {rk['point_rank']:>3}   "
                    f"mean {rk['mean_rank']:.6g}   P(rank=point) {rk['p_rank_equals_point']:.6g}   "
                    f"P(rank<=k) {rk['p_rank_within_top']:.6g}"
                )
    # a pair with no finite ratio has its denominator below 1e-308 in every draw,
    # which fails the ESS fit before the report is built
    for bf in report.get("bayes_factors", []):
        flag = "  [unstable]" if bf["unstable"] else ""
        lines.append(f"bayes factor {bf['numerator']}/{bf['denominator']}: {_interval(bf)}{flag}")
    for sub in report.get("subsets", []):
        lines.append(f"subset {sub['name']} ({','.join(sub['labels'])}): {_interval(sub)}")
    if report["warnings"]:
        lines.append("")
        lines.append("warnings:")
        for w in report["warnings"]:
            lines.append(f"  [{w['code']}] {w['message']}")
    return "\n".join(lines) + "\n"


def render_csv(report: dict) -> str:
    cfg = report["config"]
    out = io.StringIO()
    out.write(
        f"# chainuq={report['version']} seed={cfg['seed']} draws={cfg['draws']} "
        f"epsilon={cfg['epsilon_policy']} ci={cfg['ci_levels'][0]!r},{cfg['ci_levels'][1]!r}\n"
    )
    # the writer quotes labels that hold a comma, quote or line break
    writer = csv.writer(out, lineterminator="\n")
    columns = ("label", *STATS, "point_estimate", "visits", "never_sampled")
    writer.writerow(columns)
    for row in report["models"]:
        writer.writerow([repr(row[k]) if isinstance(row[k], float) else row[k] for k in columns])
    ess = report["ess"]
    t_eff = "" if ess["t_eff"] is None else repr(ess["t_eff"])
    out.write(f"# ess t_eff={t_eff} t_raw={ess['t_raw']} prior_weight={ess['prior_weight']!r}\n")
    for w in report["warnings"]:
        out.write(f"# warning {w['code']}: {w['message']}\n")
    return out.getvalue()


# --out-format value -> renderer of the report dict
RENDERERS = {"json": lambda report: json.dumps(report, indent=2) + "\n",
             "csv": render_csv, "text": render_text}


def _check_out(path: str) -> None:
    # an empty path names the working directory, as an empty dirname does
    if path != "-" and (os.path.isdir(path or ".") or not os.path.isdir(os.path.dirname(path) or ".")):
        raise ConfigError(f"--out {path!r} is a directory or lies in a missing directory")


def _write_output(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_inputs(paths, input_format):
    """Every file's chains, read on the pool when first iterated; errors in argument order."""

    def read(path):  # a short chain is named by its file before counting
        part = read_chain_file(path, input_format)
        for k, chain in enumerate(part, 1):
            if chain.length < 2:
                raise InsufficientTransitionsError(
                    f"{path}: chain {k} of {len(part)} has length {chain.length} and contains no transition"
                )
        return part

    for part in map_units(read, paths):
        yield from part


def _run_analyze(args) -> int:
    # every flag is parsed before any input is read, so a bad flag exits 3 first
    seed = args.seed
    if seed is None:
        seed = int(np.random.SeedSequence().generate_state(1, np.uint64)[0])
    prior = _parse_epsilon(args.epsilon)
    levels = _parse_floats(args.ci, "--ci")
    subsets = [_parse_subset(s, i + 1) for i, s in enumerate(args.subset)]
    bf_pairs = [_parse_pair(p) for p in args.bf]
    declared = _parse_labels(args.declared)
    _check_out(args.out)
    report = analyze_chains(
        _read_inputs(args.input, args.format),
        prior=prior,
        n_draws=args.draws,
        seed=seed,
        levels=levels,
        k_top=args.top_k,
        subsets=subsets,
        bf_pairs=bf_pairs,
        declared=declared,
    )
    report["config"].update(inputs=args.input, input_format=args.format, epsilon_policy=args.epsilon)
    _write_output(RENDERERS[args.out_format](report), args.out)
    return 0


def _run_bench(args) -> int:
    for path in (args.out, f"{args.out}.csv", f"{args.out}.json"):
        _check_out(path)
    # run_coverage_experiment checks every setting before its first replication
    result = run_coverage_experiment(
        _parse_floats(args.pi, "--pi"),
        _parse_floats(args.beta_grid, "--beta-grid"),
        iterations=args.iterations,
        replications=args.replications,
        n_draws=args.draws,
        seed=args.seed,
        levels=_parse_floats(args.ci, "--ci"),
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    _write_output(result.to_csv(), f"{args.out}.csv")
    _write_output(result.to_json(), f"{args.out}.json")
    print(f"wrote {args.out}.csv and {args.out}.json", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "analyze":
            return _run_analyze(args)
        return _run_bench(args)
    except OSError as exc:
        print(f"chainuq: input error: {exc}", file=sys.stderr)
        return 1
    except ChainUQError as exc:  # each class carries its own exit code and label
        print(f"chainuq: {exc.kind}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
