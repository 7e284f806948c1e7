import csv
import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import chainuq
from chainuq import _pool, errors
from chainuq.cli import WARNINGS, analyze_chains, main
from chainuq.errors import ConfigError


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.txt"
    path.write_text("A\nA\nB\nA\nB\nB\nA\nA\nB\nA\n" * 5, encoding="utf-8")
    return path


def run_json(capsys, args):
    code = main(args + ["--out-format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_analyze_text_output(chain_file, capsys):
    code = main(["analyze", "--input", str(chain_file), "--seed", "3", "--draws", "400"])
    captured = capsys.readouterr()
    assert code == 0
    assert "effective sample size" in captured.out
    assert "A" in captured.out and "B" in captured.out


def test_analyze_json_is_reproducible(chain_file, capsys):
    args = ["analyze", "--input", str(chain_file), "--seed", "5", "--draws", "300"]
    first = run_json(capsys, args)
    second = run_json(capsys, args)
    assert first == second
    assert first["config"]["seed"] == 5
    assert first["chain"]["models_observed"] == 2
    means = [row["mean"] for row in first["models"]]
    assert abs(sum(means) - 1.0) < 1e-9


def test_two_identical_files_equal_one_file_twice(tmp_path, chain_file, capsys):
    copy = tmp_path / "copy.txt"
    copy.write_text(chain_file.read_text(encoding="utf-8"), encoding="utf-8")
    base = ["--seed", "2", "--draws", "200"]
    twice = run_json(capsys, ["analyze", "--input", str(chain_file), "--input", str(chain_file)] + base)
    copied = run_json(capsys, ["analyze", "--input", str(chain_file), "--input", str(copy)] + base)
    twice["config"]["inputs"] = copied["config"]["inputs"] = None
    assert twice == copied


def test_analyze_csv_input_with_chain_ids(tmp_path, capsys):
    path = tmp_path / "chains.csv"
    rows = ["chain_id,iteration,label"]
    rows += [f"c1,{i},{'A' if i % 3 else 'B'}" for i in range(1, 31)]
    rows += [f"c2,{i},{'B' if i % 4 else 'A'}" for i in range(1, 21)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    report = run_json(capsys, ["analyze", "--input", str(path), "--seed", "1", "--draws", "200"])
    assert report["chain"]["chains"] == 2
    assert report["chain"]["iterations"] == 50
    assert report["chain"]["transitions"] == 48


def test_missing_input_exits_1(capsys):
    assert main(["analyze", "--input", "/nonexistent/chain.txt"]) == 1
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("workers", [1, 8])
def test_first_bad_input_in_argument_order_is_reported(tmp_path, capsys, monkeypatch, workers):
    # the first file fails late and the second at once; the first is still named
    monkeypatch.setattr(_pool, "cpu_count", lambda: workers)
    late = tmp_path / "late.csv"
    late.write_text("label,note\n" + "A,x\n" * 200_000 + "B\n", encoding="utf-8")
    early = tmp_path / "early.csv"
    early.write_text("label,note\nB\n", encoding="utf-8")
    assert main(["analyze", "--input", str(late), "--input", str(early)]) == 1
    assert capsys.readouterr().err.startswith(f"chainuq: input error: {late}:200002:")
    missing = tmp_path / "missing.csv"
    assert main(["analyze", "--input", str(missing), "--input", str(early)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("chainuq: input error: ") and str(missing) in err


def test_inputs_joined_in_argument_order_for_any_worker_count(tmp_path, capsys, monkeypatch):
    args = ["analyze", "--seed", "4", "--draws", "200"]
    for i, text in enumerate(["A\nB\nA\nC\n" * 20, "C\nD\nC\n" * 20, "B\nE\nB\nA\n" * 20]):
        path = tmp_path / f"run{i}.txt"
        path.write_text(text, encoding="utf-8")
        args += ["--input", str(path)]
    reports = []
    for workers in (1, 8):
        monkeypatch.setattr(_pool, "cpu_count", lambda: workers)
        assert main(args + ["--out-format", "json"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    # models are listed by first appearance across the inputs in argument order
    assert [row["label"] for row in json.loads(reports[0])["models"]] == list("ABCDE")


def test_empty_input_exits_1(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("", encoding="utf-8")
    assert main(["analyze", "--input", str(path)]) == 1


def test_one_row_input_after_a_good_one_names_its_file(tmp_path, capsys):
    good = tmp_path / "ab.csv"
    good.write_text("chain_id,label\na,A\na,B\nb,B\nb,A\n", encoding="utf-8")
    short = tmp_path / "c.csv"
    short.write_text("chain_id,label\nc,A\n", encoding="utf-8")
    assert main(["analyze", "--input", str(good), "--input", str(short)]) == 1
    assert capsys.readouterr().err == (
        f"chainuq: input error: {short}: chain 1 of 1 has length 1 and contains no transition\n"
    )


@pytest.mark.parametrize(
    "name, data, where",
    [
        ("chain.csv", b"iteration,label\n0,A\n1,mod\xe8le\n2,A\n", ":3: not valid UTF-8"),
        ("chain.csv", b"label,note\nA,x\nB,caf\xe9\n", ":3: not valid UTF-8"),
        ("chain.txt", b"A\nmod\xe8le\nA\n", ":2: not valid UTF-8"),
        ("chain.csv", b"label\nA\n" + b"x" * 200_000 + b"\nA\n", ":3: field larger than"),
    ],
    ids=["latin1-csv", "latin1-csv-unread-column", "latin1-lines", "field-over-limit"],
)
def test_malformed_input_exits_1_with_line(tmp_path, capsys, name, data, where):
    path = tmp_path / name
    path.write_bytes(data)
    assert main(["analyze", "--input", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"chainuq: input error: {path}{where}")


def test_bad_flag_exits_3_before_reading(capsys):
    assert main(["analyze", "--input", "/nonexistent.csv", "--declared", "Z,Z"]) == 3
    assert "more than once" in capsys.readouterr().err


def test_bad_epsilon_exits_3(chain_file, capsys):
    assert main(["analyze", "--input", str(chain_file), "--epsilon", "nonsense"]) == 3
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_fixed_epsilon_exits_3(chain_file, capsys, value):
    assert main(["analyze", "--input", str(chain_file), "--epsilon", f"fixed:{value}"]) == 3
    assert "epsilon must be finite" in capsys.readouterr().err


def test_bad_ci_exits_3(chain_file):
    assert main(["analyze", "--input", str(chain_file), "--ci", "0.9,0.1"]) == 3


def test_bad_draws_exits_3(chain_file):
    assert main(["analyze", "--input", str(chain_file), "--draws", "0"]) == 3


def test_analyze_single_draw_exits_3(chain_file, capsys):
    assert main(["analyze", "--input", str(chain_file), "--draws", "1"]) == 3
    assert "--draws" in capsys.readouterr().err


def test_analyze_chains_rejects_single_draw():
    chain = chainuq.index_chain(["A", "B", "A", "B", "B"])
    with pytest.raises(ConfigError, match="n_draws must be at least 2"):
        analyze_chains([chain], prior=chainuq.PriorSpec.default(), n_draws=1, seed=0)


def _analyze_one_model_chain(**settings):
    # counting rejects a one-step chain, so only a check made first can answer
    chain = chainuq.index_chain(["A"])
    defaults = {"prior": chainuq.PriorSpec.default(), "n_draws": 2, "seed": 0}
    return analyze_chains([chain], **{**defaults, **settings})


@pytest.mark.parametrize(
    "call",
    [
        lambda: chainuq.draw_posterior(
            chainuq.count_transitions(chainuq.index_chain(["A", "B", "A"])), n_draws=2, seed=-1
        ),
        lambda: _analyze_one_model_chain(seed=-1),
        lambda: _analyze_one_model_chain(k_top=0),
        lambda: _analyze_one_model_chain(levels=(0.9, 0.1)),
    ],
    ids=["draw_posterior-seed", "analyze_chains-seed", "analyze_chains-k_top", "analyze_chains-levels"],
)
def test_library_rejects_bad_setting_with_config_error(call):
    with pytest.raises(ConfigError):
        call()


def test_empty_epsilon_matrix_is_one_config_error(chain_file, tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["analyze", "--input", str(chain_file), "--epsilon", f"matrix:{empty}"])
    assert code == 3
    assert capsys.readouterr().err == (
        f"chainuq: config error: epsilon matrix file {str(empty)!r} holds no numbers\n"
    )


def test_bench_single_draw_exits_3(tmp_path, capsys):
    assert main(["bench", "--draws", "1", "--out", str(tmp_path / "cov")]) == 3
    assert "--draws" in capsys.readouterr().err


def test_unknown_flag_exits_3(chain_file):
    assert main(["analyze", "--input", str(chain_file), "--bogus"]) == 3


def test_unknown_bf_label_exits_3(chain_file, capsys):
    assert main(["analyze", "--input", str(chain_file), "--bf", "A,Z"]) == 3


def test_subnormal_outflow_draws_do_not_fail(tmp_path, capsys):
    # model Z's sampled outflow falls to about 1e-315 in some draws
    path = tmp_path / "chain.txt"
    path.write_text("A\nB\nA\nA\nB\nZ\n", encoding="utf-8")
    report = run_json(capsys, ["analyze", "--input", str(path), "--epsilon", "fixed:0.001",
                               "--seed", "1", "--draws", "200"])
    assert abs(sum(row["mean"] for row in report["models"]) - 1.0) < 1e-12


def test_degenerate_row_exits_2(tmp_path, capsys):
    path = tmp_path / "chain.txt"
    path.write_text("A\nA\nB\n", encoding="utf-8")
    code = main(["analyze", "--input", str(path), "--epsilon", "fixed:0"])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_single_model_chain_report(tmp_path, capsys):
    path = tmp_path / "chain.txt"
    path.write_text("M\nM\nM\nM\n", encoding="utf-8")
    report = run_json(capsys, ["analyze", "--input", str(path), "--seed", "0", "--draws", "50"])
    (row,) = report["models"]
    assert row["mean"] == 1.0
    assert row["sd"] == 0.0
    assert report["ess"]["t_eff"] is None
    assert any(w["code"] == "single_model_chain" for w in report["warnings"])


def _warning_codes(capsys, tmp_path, *chains):
    args = ["analyze", "--seed", "1", "--draws", "200"]
    for i, text in enumerate(chains):
        path = tmp_path / f"chain{i}.txt"
        path.write_text(text, encoding="utf-8")
        args += ["--input", str(path)]
    return [w["code"] for w in run_json(capsys, args)["warnings"]]


def test_warning_table_lists_codes_in_report_order():
    assert list(WARNINGS) == [
        "disconnected_chains",
        "k_top_reduced",
        "unstable_bayes_factor",
        "single_model_chain",
        "negative_ess",
        "ess_exceeds_iterations",
        "dirichlet_fit_not_converged",
        "clamped_draws",
        "never_sampled_model",
    ]


def test_readme_lists_every_warning_code():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Warnings", 1)[1].split("\n## ", 1)[0]
    assert [code for code in WARNINGS if f"- `{code}`:" not in section] == []


def test_warning_messages_fill_their_templates(chain_file, capsys):
    report = run_json(capsys, ["analyze", "--input", str(chain_file), "--seed", "1",
                               "--draws", "50", "--top-k", "5", "--declared", "A,Z"])
    assert report["warnings"] == [
        {"code": "k_top_reduced", "message": "top-k reduced from 5 to the 2 observed models"},
        {
            "code": "ess_exceeds_iterations",
            "message": "t_eff = 85.0522 exceeds 1.5x the 50 chain iterations; "
                       "reported as estimated, never truncated",
        },
        {
            "code": "never_sampled_model",
            "message": "declared model 'Z' was never sampled; reported with probability 0",
        },
    ]


def test_point_estimate_column_is_the_posterior_mean(chain_file):
    chain = chainuq.read_chain_file(chain_file)
    prior = chainuq.PriorSpec.default()
    report = analyze_chains(chain, prior=prior, n_draws=300, seed=6)
    draws = chainuq.draw_posterior(chainuq.merge_counts([chainuq.count_transitions(c) for c in chain]),
                                   prior, n_draws=300, seed=6)
    point = dict(zip(draws.labels, draws.draws.mean(axis=0).tolist()))
    for row in report["models"]:
        assert row["point_estimate"] == row["mean"] == point[row["label"]]


@pytest.mark.parametrize("cls", [errors.ConfigError, errors.LabelError])
def test_config_errors_are_value_errors(cls):
    assert issubclass(cls, ValueError) and issubclass(cls, errors.ChainUQError)


def test_chains_that_never_meet_warn(tmp_path, capsys):
    codes = _warning_codes(capsys, tmp_path, "A\nB\nA\nB\n", "C\nD\nC\nD\n")
    assert "disconnected_chains" in codes


def test_chains_ending_in_fresh_models_do_not_warn(tmp_path, capsys):
    codes = _warning_codes(capsys, tmp_path, "A\nB\nA\nX\n", "A\nB\nA\nY\n")
    assert "disconnected_chains" not in codes


def test_declared_models_reported_with_flag(chain_file, capsys):
    report = run_json(
        capsys,
        ["analyze", "--input", str(chain_file), "--seed", "1", "--draws", "100",
         "--declared", "A,C"],
    )
    by_label = {row["label"]: row for row in report["models"]}
    assert by_label["C"]["never_sampled"] is True
    assert by_label["C"]["mean"] == 0.0
    assert by_label["A"]["never_sampled"] is False
    assert any(w["code"] == "never_sampled_model" for w in report["warnings"])


@pytest.mark.parametrize(
    "flag, message",
    [
        (["--subset", "s=A,A"], "more than once"),
        (["--declared", "Z,Z"], "more than once"),
        (["--subset", "s=A", "--subset", "s=B"], "more than once"),
        (["--subset", "subset_2=A", "--subset", "B"], "more than once"),
        (["--subset", "=A"], "empty name"),
        (["--subset", " =A"], "empty name"),
    ],
    ids=["subset", "declared", "subset-name", "subset-default-name", "subset-empty-name",
         "subset-blank-name"],
)
def test_repeated_label_exits_3(chain_file, capsys, flag, message):
    assert main(["analyze", "--input", str(chain_file)] + flag) == 3
    assert message in capsys.readouterr().err


def test_optional_sections_present(chain_file, capsys):
    report = run_json(
        capsys,
        ["analyze", "--input", str(chain_file), "--seed", "4", "--draws", "200",
         "--top-k", "2", "--bf", "A,B", "--subset", "good=A"],
    )
    assert report["rank_stability"]["k_top"] == 2
    assert report["bayes_factors"][0]["numerator"] == "A"
    assert report["subsets"][0]["name"] == "good"
    assert report["models"][0]["rank"]["point_rank"] in (1, 2)


def test_top_k_clamped_with_warning(chain_file, capsys):
    report = run_json(
        capsys,
        ["analyze", "--input", str(chain_file), "--seed", "4", "--draws", "100",
         "--top-k", "10"],
    )
    assert report["rank_stability"]["k_top"] == 2
    assert any(w["code"] == "k_top_reduced" for w in report["warnings"])


def test_text_and_json_numbers_agree(chain_file, capsys):
    report = run_json(capsys, ["analyze", "--input", str(chain_file), "--seed", "8", "--draws", "250"])
    code = main(["analyze", "--input", str(chain_file), "--seed", "8", "--draws", "250"])
    text = capsys.readouterr().out
    assert code == 0
    for row in report["models"]:
        assert f"{row['mean']:.6g}" in text
        assert f"{row['sd']:.6g}" in text
    assert f"{report['ess']['t_eff']:.6g}" in text


def test_output_file_and_csv_format(chain_file, tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(
        ["analyze", "--input", str(chain_file), "--seed", "1", "--draws", "100",
         "--out", str(out), "--out-format", "csv"]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# chainuq=")
    assert lines[1].startswith("label,mean,sd")
    assert len([l for l in lines if not l.startswith("#")]) == 3  # header + 2 models


def test_csv_output_quotes_labels_with_commas(tmp_path, capsys):
    chain = tmp_path / "chain.txt"
    chain.write_text("a,b\nc\nc\na,b\nc\na,b\n" * 5, encoding="utf-8")
    code = main(["analyze", "--input", str(chain), "--seed", "1", "--draws", "100",
                 "--out-format", "csv"])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    rows = list(csv.reader(lines))
    assert {len(row) for row in rows} == {len(rows[0])}
    assert sorted(row[0] for row in rows[1:]) == ["a,b", "c"]


def test_matrix_epsilon_policy(tmp_path, chain_file, capsys):
    weights = tmp_path / "eps.csv"
    weights.write_text("0.5,0.5\n0.5,0.5\n", encoding="utf-8")
    report = run_json(
        capsys,
        ["analyze", "--input", str(chain_file), "--seed", "1", "--draws", "100",
         "--epsilon", f"matrix:{weights}"],
    )
    assert report["config"]["epsilon_total_mass"] == 2.0


def test_bench_smoke_writes_both_files(tmp_path, capsys):
    prefix = tmp_path / "cov"
    code = main(
        ["bench", "--pi", "0.7,0.3", "--beta-grid", "0,0.5", "--iterations", "80",
         "--replications", "3", "--draws", "60", "--seed", "5", "--out", str(prefix)]
    )
    assert code == 0
    csv_text = (tmp_path / "cov.csv").read_text(encoding="utf-8")
    payload = json.loads((tmp_path / "cov.json").read_text(encoding="utf-8"))
    assert csv_text.startswith("beta,method,component")
    assert payload["replications"] == 3
    assert len(payload["cells"]) == 4


def test_bench_identical_seed_is_byte_identical(tmp_path, capsys):
    args = ["bench", "--pi", "0.7,0.3", "--beta-grid", "0", "--iterations", "60",
            "--replications", "2", "--draws", "40", "--seed", "9"]
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_bench_bad_pi_exits_3(capsys):
    assert main(["bench", "--pi", "0.7,0.7"]) == 3


def test_bench_nan_pi_exits_3(tmp_path, capsys):
    assert main(["bench", "--pi", "nan,0.5,0.5", "--out", str(tmp_path / "cov")]) == 3
    assert "--pi must be a probability vector" in capsys.readouterr().err


def test_bench_negative_seed_exits_3(tmp_path, capsys):
    assert main(["bench", "--seed", "-3", "--out", str(tmp_path / "cov")]) == 3
    assert "--seed must be nonnegative" in capsys.readouterr().err


def test_analyze_negative_seed_exits_3_before_reading(capsys):
    assert main(["analyze", "--input", "/nonexistent.csv", "--seed", "-1"]) == 3
    assert "--seed must be nonnegative" in capsys.readouterr().err


# the CLI's contract, pinned here rather than read from the classes
EXIT_CODES = {
    errors.ChainUQError: (2, "error"),
    errors.EmptyChainError: (1, "input error"),
    errors.InsufficientTransitionsError: (1, "input error"),
    errors.EmptyMergeError: (1, "input error"),
    errors.ChainFileError: (1, "input error"),
    errors.DegenerateRowError: (2, "numerical failure"),
    errors.NonStochasticError: (2, "numerical failure"),
    errors.NoUniqueStationaryError: (2, "numerical failure"),
    errors.DomainError: (2, "numerical failure"),
    errors.DegenerateSamplesError: (2, "numerical failure"),
    errors.LabelError: (3, "config error"),
    errors.ConfigError: (3, "config error"),
    OSError: (1, "input error"),
}


@pytest.mark.parametrize("cls", list(EXIT_CODES), ids=lambda cls: cls.__name__)
def test_every_error_class_has_its_exit_code(monkeypatch, capsys, cls):
    def fail(path, fmt=None):
        raise cls("boom")

    monkeypatch.setattr("chainuq.cli.read_chain_file", fail)
    code, kind = EXIT_CODES[cls]
    assert main(["analyze", "--input", "chain.txt"]) == code
    assert capsys.readouterr().err == f"chainuq: {kind}: {cls('boom')}\n"


def test_exit_code_table_covers_every_error_class():
    in_module = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)}
    assert in_module | set(errors.ChainUQError.__subclasses__()) <= set(EXIT_CODES)


def test_analyze_runs_and_bench_exits_3_without_scipy(chain_file, tmp_path):
    # a None entry in sys.modules makes every scipy import raise ImportError
    env = dict(os.environ, PYTHONPATH=str(Path(chainuq.__file__).parents[1]))
    run = "import sys; sys.modules['scipy'] = None; from chainuq.cli import main; sys.exit(main())"

    def cli(*args):
        return subprocess.run([sys.executable, "-c", run, *args], env=env, cwd=tmp_path,
                              capture_output=True, text=True)

    analyze = cli("analyze", "--input", str(chain_file), "--seed", "1", "--draws", "100")
    assert analyze.returncode == 0, analyze.stderr
    assert "effective sample size" in analyze.stdout
    bench = cli("bench", "--replications", "1", "--out", str(tmp_path / "cov"))
    assert bench.returncode == 3
    assert bench.stderr.startswith("chainuq: config error: ") and "chainuq[bench]" in bench.stderr
    assert "beta=" not in bench.stderr
    assert not (tmp_path / "cov.csv").exists() and not (tmp_path / "cov.json").exists()


def test_cli_import_does_not_load_scipy_stats():
    # scipy is most of the CLI's cold start and nothing on the analyze path needs
    # it; only the i.i.d. baseline of ``chainuq bench`` imports it, on first use.
    # concurrent.futures (which loads logging) is imported only when a pool starts
    env = dict(os.environ, PYTHONPATH=str(Path(chainuq.__file__).parents[1]))
    scipy_modules = (
        "sorted(m for m in sys.modules if m.startswith(('scipy', 'concurrent.futures')))"
    )
    code = (
        f"import sys, chainuq; print({scipy_modules}); "
        f"import chainuq.cli; print({scipy_modules})"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["[]", "[]"]
