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
import sys
import warnings

import numpy as np

from . import __version__
from ._pool import map_units
from .benchmark import run_coverage_experiment
from .chains import count_transitions, merge_counts, read_chain_file
from .errors import ChainUQError, ConfigError, InsufficientTransitionsError, LabelError
from .ess import effective_sample_size
from .sampling import PriorSpec, draw_posterior
from .stationary import classify_support
from .summaries import (
    _check_levels, _reject_repeats, bayes_factors, rank_stability, subset_probability, summarize,
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
        "t_eff = {t_eff:.6g} exceeds 1.5x the {t_raw} chain iterations; "
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


def _stats(result, i=None) -> dict:
    """The report's statistics of ``result``, of component ``i`` when given."""
    values = [getattr(result, attr) for attr in STATS.values()]
    return dict(zip(STATS, values if i is None else [v[i] for v in values]))


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports bad flags as config errors (exit 3)."""

    def error(self, message):
        raise ConfigError(message)


def _parse_epsilon(text: str) -> PriorSpec:
    if text in ("default_reduced", "default"):
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
                matrix = np.loadtxt(path, delimiter=",", ndmin=2)
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
    members = [part.strip() for part in labels.split(",") if part.strip()]
    if not members:
        raise ConfigError(f"subset {text!r} names no models")
    return name.strip(), members


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
    an.add_argument("--ci", default="0.05,0.95", metavar="LO,HI",
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
    an.add_argument("--out-format", choices=("json", "csv", "text"), default="text")

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
    be.add_argument("--ci", default="0.05,0.95", metavar="LO,HI")
    be.add_argument("--out", default="coverage", metavar="PREFIX",
                    help="writes PREFIX.csv and PREFIX.json")
    return parser


def _clean(value):
    """Make a report value JSON-safe: plain python types, NaN/inf -> None."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if math.isfinite(value) else None
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_clean(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    return value


def _check_settings(n_draws, seed, levels, k_top, declared, subsets) -> None:
    """Reject the settings that would otherwise fail only after counting.

    The messages name the CLI flag too, since ``chainuq analyze`` calls this
    before it reads any input.
    """
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


def analyze_chains(
    chains,
    prior: PriorSpec,
    n_draws: int,
    seed: int,
    levels=(0.05, 0.95),
    k_top: int | None = None,
    subsets=(),
    bf_pairs=(),
    declared=(),
    epsilon_text: str = "default_reduced",
    inputs=(),
    input_format=None,
) -> dict:
    """Run the full pipeline on indexed chains and assemble the report dict.

    This is the CLI's engine, exposed so library users can produce the same
    report without touching the filesystem.

    Raises
    ------
    ConfigError
        If ``n_draws`` is below 2, which leaves the ESS fit and the
        standard deviations undefined, ``seed`` is negative, ``levels`` are
        not 0 < lo < hi < 1, or ``k_top`` is below 1; checked before counting.
    LabelError
        If ``declared`` names a model more than once, or a subset name is
        empty or repeated.
    """
    _check_settings(n_draws, seed, levels, k_top, declared, subsets)
    counts = merge_counts([count_transitions(c) for c in chains])
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

    bf_results = bayes_factors(draws, bf_pairs, levels=levels) if bf_pairs else []
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
        warn("ess_exceeds_iterations", t_eff=ess_est.t_eff, t_raw=ess_est.t_raw)
    if not ess_est.converged:
        warn("dirichlet_fit_not_converged")
    if ess_est.approximate:
        warn("clamped_draws")

    label_index = counts.label_to_index
    never_sampled = [lab for lab in declared if lab not in label_index]
    for lab in never_sampled:
        warn("never_sampled_model", label=lab)

    model_rows = []
    for lab in counts.labels:
        i = label_index[lab]
        row = {
            "label": str(lab),
            **_stats(summary, i),
            "point_estimate": summary.mean[i],  # the posterior mean
            "visits": int(counts.visits[i]),
            "never_sampled": False,
        }
        if rank_report is not None:
            row["rank"] = {
                "point_rank": int(rank_report.point_rank[i]),
                "mean_rank": rank_report.mean_rank[i],
                "sd_rank": rank_report.sd_rank[i],
                "p_rank_equals_point": rank_report.p_rank_equals_point[i],
                "p_rank_within_top": rank_report.p_rank_within_top[i],
            }
        model_rows.append(row)
    for lab in never_sampled:
        model_rows.append({
            "label": str(lab),
            **dict.fromkeys(STATS, 0.0),
            "point_estimate": 0.0,
            "visits": 0,
            "never_sampled": True,
        })
    model_rows.sort(key=lambda row: row["label"])

    report = {
        "tool": "chainuq",
        "version": __version__,
        "config": {
            "inputs": [str(p) for p in inputs],
            "input_format": input_format,
            "epsilon_policy": epsilon_text,
            "epsilon_total_mass": draws.prior_mass,
            "draws": n_draws,
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


def render_text(report: dict) -> str:
    lines = []
    cfg = report["config"]
    ch = report["chain"]
    lines.append(f"chainuq {report['version']} analyze report")
    lines.append(
        f"seed {cfg['seed']}   draws {cfg['draws']}   epsilon {cfg['epsilon_policy']}"
        f"   ci {cfg['ci_levels'][0]:g},{cfg['ci_levels'][1]:g}"
    )
    lines.append(
        f"chains {ch['chains']}   iterations {ch['iterations']}   "
        f"transitions {ch['transitions']}   observed models {ch['models_observed']}"
    )
    lines.append("")
    header = f"{'model':<16}{'mean':>12}{'sd':>12}{'median':>12}{'lower':>12}{'upper':>12}"
    lines.append(header)
    for row in report["models"]:
        tag = "  (never sampled)" if row["never_sampled"] else ""
        sd = row["sd"]
        sd_txt = f"{sd:>12.6g}" if sd is not None else f"{'n/a':>12}"
        lines.append(
            f"{row['label']:<16}{row['mean']:>12.6g}{sd_txt}{row['median']:>12.6g}"
            f"{row['ci_lower']:>12.6g}{row['ci_upper']:>12.6g}{tag}"
        )
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
    for bf in report.get("bayes_factors", []):
        mean = "n/a" if bf["mean"] is None else f"{bf['mean']:.6g}"
        sd = "n/a" if bf["sd"] is None else f"{bf['sd']:.6g}"
        flag = "  [unstable]" if bf["unstable"] else ""
        lines.append(
            f"bayes factor {bf['numerator']}/{bf['denominator']}: mean {mean} "
            f"sd {sd} ci [{bf['ci_lower']:.6g}, {bf['ci_upper']:.6g}]{flag}"
            if bf["ci_lower"] is not None
            else f"bayes factor {bf['numerator']}/{bf['denominator']}: undefined{flag}"
        )
    for sub_row in report.get("subsets", []):
        lines.append(
            f"subset {sub_row['name']} ({','.join(sub_row['labels'])}): "
            f"mean {sub_row['mean']:.6g} sd {sub_row['sd']:.6g} "
            f"ci [{sub_row['ci_lower']:.6g}, {sub_row['ci_upper']:.6g}]"
        )
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
        "label,mean,sd,median,ci_lower,ci_upper,point_estimate,visits,never_sampled\n"
    )
    # the writer quotes labels that hold a comma, quote or line break
    writer = csv.writer(out, lineterminator="\n")
    for row in report["models"]:
        sd = "" if row["sd"] is None else repr(row["sd"])
        writer.writerow([
            row["label"], repr(row["mean"]), sd, repr(row["median"]),
            repr(row["ci_lower"]), repr(row["ci_upper"]), repr(row["point_estimate"]),
            row["visits"], row["never_sampled"],
        ])
    ess = report["ess"]
    t_eff = "" if ess["t_eff"] is None else repr(ess["t_eff"])
    out.write(f"# ess t_eff={t_eff} t_raw={ess['t_raw']} prior_weight={ess['prior_weight']!r}\n")
    return out.getvalue()


def _write_output(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


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
    _check_settings(args.draws, seed, levels, args.top_k, declared, subsets)
    # files are read concurrently but joined, and their errors raised, in argument order
    parts = map_units(lambda path: read_chain_file(path, args.format), args.input)
    for path, part in zip(args.input, parts):  # name the file before any counting
        for k, chain in enumerate(part, 1):
            if chain.length < 2:
                raise InsufficientTransitionsError(
                    f"{path}: chain {k} of {len(part)} has length {chain.length}"
                    " and contains no transition"
                )
    chains = [chain for part in parts for chain in part]
    report = analyze_chains(
        chains,
        prior=prior,
        n_draws=args.draws,
        seed=seed,
        levels=levels,
        k_top=args.top_k,
        subsets=subsets,
        bf_pairs=bf_pairs,
        declared=declared,
        epsilon_text=args.epsilon,
        inputs=args.input,
        input_format=args.format,
    )
    if args.out_format == "json":
        text = json.dumps(report, indent=2) + "\n"
    elif args.out_format == "csv":
        text = render_csv(report)
    else:
        text = render_text(report)
    _write_output(text, args.out)
    return 0


def _run_bench(args) -> int:
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
    csv_path = f"{args.out}.csv"
    json_path = f"{args.out}.json"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(result.to_csv())
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(result.to_json())
    print(f"wrote {csv_path} and {json_path}", file=sys.stderr)
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


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
