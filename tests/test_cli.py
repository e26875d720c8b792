import json
import re
import subprocess
import sys

import numpy as np
import pytest

from btaudit.cli import main
from btaudit.report import parse_report

FIXTURE_CSV = """model_a,model_b,winner,prompt
alpha,beta,model_a,write a poem
alpha,beta,model_a,solve an integral
alpha,beta,model_a,translate a letter
alpha,beta,model_b,compose a haiku
alpha,beta,tie,draw a cat
"""

SCHEMA = {
    "model_a": "model_a",
    "model_b": "model_b",
    "outcome": "winner",
    "a_wins": ["model_a"],
    "b_wins": ["model_b"],
    "ties": ["tie"],
    "format": "csv",
    "meta_columns": "all",
}


@pytest.fixture
def workspace(tmp_path):
    dataset = tmp_path / "games.csv"
    dataset.write_text(FIXTURE_CSV, encoding="utf-8")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(SCHEMA), encoding="utf-8")
    out = tmp_path / "out"
    return {"dataset": str(dataset), "schema": str(schema), "out": str(out), "root": tmp_path}


def _strip_timestamp(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if not line.startswith("generated:"))


def test_fit_writes_closed_form_leaderboard(workspace, capsys):
    code = main(["fit", workspace["dataset"], "--schema", workspace["schema"],
                 "--ridge", "0", "--out", workspace["out"]])
    assert code == 0
    printed = capsys.readouterr().out
    assert "matchups: 4" in printed and "ties_dropped: 1" in printed

    text = (workspace["root"] / "out" / "leaderboard.txt").read_text()
    fields = parse_report(text)
    assert fields["n_models"] == "2" and fields["n_matchups"] == "4"
    rows = [line.split(": ", 1)[1] for line in text.splitlines() if line.startswith("row: ")]
    first = rows[0].split()
    second = rows[1].split()
    assert first[1] == "alpha" and float(first[2]) == 0.0 and float(first[3]) == 1000.0
    assert second[1] == "beta"
    assert float(second[2]) == pytest.approx(-np.log(3.0), abs=1e-8)
    assert float(second[3]) == pytest.approx(1000.0 - 400.0 * np.log(3.0), abs=1e-6)
    # per-model matchup counts sum to 2N
    counts = [int(r.split()[4]) for r in rows]
    assert sum(counts) == 2 * 4


def test_fit_report_deterministic_modulo_timestamp(workspace):
    args = ["fit", workspace["dataset"], "--schema", workspace["schema"], "--out", workspace["out"]]
    assert main(args) == 0
    first = (workspace["root"] / "out" / "leaderboard.txt").read_text()
    assert main(args) == 0
    second = (workspace["root"] / "out" / "leaderboard.txt").read_text()
    assert _strip_timestamp(first) == _strip_timestamp(second)
    assert first.splitlines()[1].startswith("generated:")


def test_check_topk_exit_codes_and_report(workspace):
    code = main(["check-topk", workspace["dataset"], "--schema", workspace["schema"],
                 "--count", "3", "--k", "1", "--always-refit", "--out", workspace["out"]])
    assert code == 2  # non-robust found
    report = (workspace["root"] / "out" / "topk_k1_count3.txt").read_text()
    fields = parse_report(report)
    assert fields["verdict"] == "non-robust"
    assert fields["pairs_checked"] == "1"
    assert fields["offending_pair"] == "alpha vs beta"
    assert fields["dropped_indices"] == "0 1 2"
    assert fields["involvement_both"] == "1"
    assert float(fields["scatter_dropped_fraction"]) == pytest.approx(0.75)
    pairs_csv = (workspace["root"] / "out" / "topk_k1_count3_pairs.csv").read_text()
    assert "alpha,beta" in pairs_csv

    code = main(["check-topk", workspace["dataset"], "--schema", workspace["schema"],
                 "--count", "1", "--k", "1", "--out", workspace["out"]])
    assert code == 0  # robust at budget 1
    robust_report = (workspace["root"] / "out" / "topk_k1_count1.txt").read_text()
    assert parse_report(robust_report)["verdict"] == "robust"
    assert parse_report(robust_report)["pairs_checked"] == "1"


def test_min_drop_reports_table_columns(workspace, capsys):
    code = main(["min-drop", workspace["dataset"], "alpha", "beta",
                 "--schema", workspace["schema"], "--max-budget", "4",
                 "--out", workspace["out"]])
    assert code == 2
    out = capsys.readouterr().out
    assert "3 of 4" in out and "75.00%" in out
    report = (workspace["root"] / "out" / "mindrop_alpha_vs_beta.txt").read_text()
    fields = parse_report(report)
    assert fields["min_drop_count"] == "3"
    assert float(fields["dropped_fraction"]) == pytest.approx(0.75)
    assert fields["head_to_head"] == "3-1"
    assert float(fields["win_percent_leader"]) == pytest.approx(75.0)


def test_min_drop_not_found_and_usage_errors(workspace):
    code = main(["min-drop", workspace["dataset"], "alpha", "beta",
                 "--schema", workspace["schema"], "--max-budget", "1",
                 "--out", workspace["out"]])
    assert code == 0  # completed, no flip within budget
    assert main(["min-drop", workspace["dataset"], "alpha", "alpha",
                 "--schema", workspace["schema"], "--out", workspace["out"]]) == 1
    assert main(["min-drop", workspace["dataset"], "alpha", "gamma",
                 "--schema", workspace["schema"], "--out", workspace["out"]]) == 1


def test_inspect_lists_dropped_matchups_in_order(workspace, capsys):
    main(["min-drop", workspace["dataset"], "alpha", "beta",
          "--schema", workspace["schema"], "--max-budget", "4", "--out", workspace["out"]])
    capsys.readouterr()
    code = main(["inspect", str(workspace["root"] / "out" / "mindrop_alpha_vs_beta.txt"),
                 workspace["dataset"], "--schema", workspace["schema"]])
    assert code == 0
    out = capsys.readouterr().out
    records = re.findall(r"\[(\d)\] matchup (\d)", out)
    assert records == [("1", "0"), ("2", "1"), ("3", "2")]
    assert "write a poem" in out


def test_inspect_of_a_report_that_drops_nothing_says_so(workspace, capsys):
    # A robust top-k report has no dropped_indices line, so the dataset is not read.
    assert main(["check-topk", workspace["dataset"], "--schema", workspace["schema"],
                 "--count", "1", "--k", "1", "--out", workspace["out"]]) == 0
    report = workspace["root"] / "out" / "topk_k1_count1.txt"
    assert "dropped_indices" not in parse_report(report.read_text())
    capsys.readouterr()
    code = main(["inspect", str(report), workspace["dataset"], "--schema", workspace["schema"]])
    assert code == 0
    assert capsys.readouterr().out == "report lists no dropped matchups\n"


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_inspect_prints_only_the_schema_columns(capsys, tmp_path, fmt):
    rows = [line.split(",") + [f"j{n}" if n else "judge"]
            for n, line in enumerate(FIXTURE_CSV.splitlines())]
    dataset = tmp_path / f"games.{fmt}"
    if fmt == "csv":
        dataset.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    else:
        dataset.write_text("".join(json.dumps(dict(zip(rows[0], row))) + "\n" for row in rows[1:]),
                           encoding="utf-8")
    report = tmp_path / "report.txt"
    report.write_text("report: min-drop\npair: alpha vs beta\ndropped_indices: 0\n", encoding="utf-8")
    schema = tmp_path / "schema.json"
    for columns, printed in (("all", ["judge: j1", "prompt: write a poem"]),
                             ([], ["judge: j1", "prompt: write a poem"]),
                             (["prompt"], ["prompt: write a poem"]),
                             (["judge", "nope"], ["judge: j1"])):
        schema.write_text(json.dumps(dict(SCHEMA, format=fmt, meta_columns=columns)),
                          encoding="utf-8")
        assert main(["inspect", str(report), str(dataset), "--schema", str(schema)]) == 0
        assert capsys.readouterr().out.splitlines()[2:] == [
            "[1] matchup 0: alpha vs beta | winner: alpha", *(f"    {line}" for line in printed)]


def test_inspect_truncates_long_metadata(workspace, capsys, tmp_path):
    long_csv = "model_a,model_b,winner,prompt\n"
    long_csv += "alpha,beta,model_a," + "x" * 500 + "\n"
    long_csv += "alpha,beta,model_a,hi\nalpha,beta,model_b,yo\n"
    dataset = tmp_path / "long.csv"
    dataset.write_text(long_csv, encoding="utf-8")
    main(["min-drop", str(dataset), "alpha", "beta", "--schema", workspace["schema"],
          "--max-budget", "3", "--out", workspace["out"]])
    capsys.readouterr()
    code = main(["inspect", str(workspace["root"] / "out" / "mindrop_alpha_vs_beta.txt"),
                 str(dataset), "--schema", workspace["schema"], "--truncate", "40"])
    assert code == 0
    out = capsys.readouterr().out
    assert "x" * 40 + "..." in out
    assert "x" * 60 not in out


def test_inspect_without_metadata_notes_it(workspace, capsys, tmp_path):
    bare = "model_a,model_b,winner\nalpha,beta,model_a\nalpha,beta,model_a\nalpha,beta,model_b\n"
    dataset = tmp_path / "bare.csv"
    dataset.write_text(bare, encoding="utf-8")
    main(["min-drop", str(dataset), "alpha", "beta", "--schema", workspace["schema"],
          "--max-budget", "3", "--out", workspace["out"]])
    capsys.readouterr()
    code = main(["inspect", str(workspace["root"] / "out" / "mindrop_alpha_vs_beta.txt"),
                 str(dataset), "--schema", workspace["schema"]])
    assert code == 0
    assert "(no metadata)" in capsys.readouterr().out


def test_inspect_detects_dataset_mismatch(workspace, capsys, tmp_path):
    main(["min-drop", workspace["dataset"], "alpha", "beta",
          "--schema", workspace["schema"], "--max-budget", "4", "--out", workspace["out"]])
    capsys.readouterr()
    tiny = "model_a,model_b,winner\nalpha,beta,model_a\nalpha,beta,model_b\n"
    dataset = tmp_path / "tiny.csv"
    dataset.write_text(tiny, encoding="utf-8")
    code = main(["inspect", str(workspace["root"] / "out" / "mindrop_alpha_vs_beta.txt"),
                 str(dataset), "--schema", workspace["schema"]])
    assert code == 1
    assert "mismatch" in capsys.readouterr().err


def test_error_exit_codes(workspace):
    assert main(["fit", "missing.csv", "--schema", workspace["schema"]]) == 1
    assert main(["fit", workspace["dataset"], "--schema", "nonexistent-preset"]) == 1
    assert main(["check-topk", workspace["dataset"], "--schema", workspace["schema"],
                 "--k", "1"]) == 1  # no budget given
    assert main(["nonsense"]) == 1


def test_an_unusable_tolerance_exits_1(workspace, capsys):
    # An infinite tolerance would report a fit "converged" after 0 iterations, every score 0.
    assert main(["fit", workspace["dataset"], "--schema", workspace["schema"], "--tol", "inf",
                 "--out", workspace["out"]]) == 1
    assert capsys.readouterr().err == "error: tol must be a finite positive number\n"


def test_alphas_that_print_alike_under_six_digits_write_their_own_reports(workspace):
    code = main(["check-topk", workspace["dataset"], "--schema", workspace["schema"], "--k", "1",
                 "--alpha", "0.3333333", "--alpha", "0.3333333333333333", "--out", workspace["out"]])
    assert code in (0, 2)
    out = workspace["root"] / "out"
    for alpha in ("0.3333333", "0.3333333333333333"):
        report = (out / f"topk_k1_alpha{alpha}.txt").read_text()
        assert parse_report(report)["budget"] == f"alpha={alpha}"


def test_repeated_k_and_budgets_are_audited_once(workspace, capsys):
    args = ["check-topk", workspace["dataset"], "--schema", workspace["schema"], "--out", workspace["out"]]
    code = main(args + ["--k", "1", "--k", "1", "--count", "1", "--count", "1",
                        "--alpha", "0.5", "--alpha", "0.5"])
    assert code in (0, 2)
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in printed] == ["k=1 alpha=0.5", "k=1 count=1"]
    out = workspace["root"] / "out"
    assert sorted(p.name for p in out.iterdir()) == [
        "topk_k1_alpha0.5.txt", "topk_k1_alpha0.5_pairs.csv", "topk_k1_count1.txt", "topk_k1_count1_pairs.csv"]
    # Alphas that differ are distinct budgets, however alike they print.
    code = main(args + ["--k", "1", "--alpha", "0.3333333", "--alpha", "0.3333333333333333"])
    assert code in (0, 2)
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == [
        "k=1 alpha=0.3333333", "k=1 alpha=0.3333333333333333"]


@pytest.mark.parametrize("budget, message", [
    (["--alpha", "0.00000001"], "budget resolves to zero drops (alpha=1e-08, N=4)"),
    (["--count", "4"], "budget 4 would drop all 4 matchups"),
], ids=["zero-drops", "all-drops"])
def test_a_budget_it_cannot_use_is_refused_before_any_report(workspace, capsys, budget, message):
    code = main(["check-topk", workspace["dataset"], "--schema", workspace["schema"], "--k", "1",
                 "--alpha", "0.5", *budget, "--out", workspace["out"]])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert not list((workspace["root"] / "out").glob("topk_*"))


def test_csv_writer_writes_sequence_rows_as_csv_writer_does(tmp_path):
    import csv
    import io

    from btaudit.report import write_csv

    fieldnames = ["name", "note", "value", "flag", "empty"]
    rows = [
        ("plain", "a, b", 0.1, True, None),
        ('say "hi"', "two\nlines", -0.0, False, ""),
        ("floats", 1e300, float("nan"), None, 3),
        ("\r\n, \"", "tail", "", "", ""),
        (),
    ]
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(fieldnames)
    writer.writerows(rows)
    write_csv(tmp_path / "rows.csv", fieldnames, rows)
    assert (tmp_path / "rows.csv").read_bytes() == expected.getvalue().encode("utf-8")
    # A generator of lists writes the same bytes as a list of tuples.
    write_csv(tmp_path / "lists.csv", fieldnames, (list(row) for row in rows))
    assert (tmp_path / "lists.csv").read_bytes() == expected.getvalue().encode("utf-8")


def _reference_topk_pair_rows(tk) -> list[dict]:
    """The dict rows ``report.topk_pair_rows`` built before it built tuples, verbatim."""
    from btaudit.report import _fmt

    return [{"leader": rep.pair_names[0], "challenger": rep.pair_names[1],
             "gap_before": _fmt(rep.gap_before), "verdict": rep.verdict,
             "predicted_flip": _fmt(rep.predicted_flip),
             "refit_performed": _fmt(rep.refit_performed), "dropped_count": len(rep.dropped)}
            for rep in tk.per_pair]


def _reference_leaderboard_rows(bt) -> list[dict]:
    """The dict rows ``report.leaderboard_rows`` built before it built tuples, verbatim."""
    from btaudit.arena import elo_transform
    from btaudit.btmodel import ranking
    from btaudit.report import _fmt

    arena = bt.arena
    display = elo_transform(bt.scores)
    counts = arena.occurrence_counts()
    rows = []
    for rank, idx in enumerate(ranking(bt).order, start=1):
        rows.append({
            "rank": rank,
            "model": arena.models.names[idx],
            "score": _fmt(float(bt.scores[idx])),
            "elo": _fmt(float(display[idx])),
            "matchups": int(counts[idx]),
        })
    return rows


def _dict_writer_bytes(fieldnames, rows) -> bytes:
    import csv
    import io

    buffer = io.StringIO(newline="")
    writer = csv.DictWriter(buffer, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def test_tuple_rows_write_the_bytes_dict_rows_wrote(tmp_path):
    from btaudit import Arena, DropBudget, check_topk, fit, generate, random_spec
    from btaudit.report import (LEADERBOARD_COLUMNS, TOPK_PAIR_COLUMNS, leaderboard_rows,
                                topk_pair_rows, write_csv)

    arenas = [
        # The challenger's only data are two losses to the leader: dropping them
        # leaves it unidentified, so that pair's verdict is degenerate.
        Arena.from_records(["ref", 'lead, "er"', "camper\n"],
                           [(1, 0, 1), (1, 0, 1), (0, 1, 1), (0, 1, 1), (1, 2, 1), (1, 2, 1)]),
        Arena.from_records(["alpha", "beta"], [(0, 1, 1)] * 3 + [(0, 1, 0)]),
        generate(random_spec(77, n_models=4, target_matchups=24)),
        generate(random_spec(5, n_models=5, target_matchups=40)),
    ]
    path = tmp_path / "rows.csv"
    verdicts, outcomes = set(), set()
    for arena in arenas:
        bt = fit(arena)
        write_csv(path, LEADERBOARD_COLUMNS, leaderboard_rows(bt))
        assert path.read_bytes() == _dict_writer_bytes(LEADERBOARD_COLUMNS,
                                                       _reference_leaderboard_rows(bt))
        for method in ("if", "newton"):
            for always_refit in (False, True):
                for k in range(1, min(3, arena.n_models - 1) + 1):
                    for count in (1, 2, 3):
                        tk = check_topk(arena, bt, k, DropBudget(count=count), method=method,
                                        always_refit=always_refit)
                        write_csv(path, TOPK_PAIR_COLUMNS, topk_pair_rows(tk))
                        assert path.read_bytes() == _dict_writer_bytes(
                            TOPK_PAIR_COLUMNS, _reference_topk_pair_rows(tk))
                        verdicts.update(rep.verdict for rep in tk.per_pair)
                        outcomes.add("robust" if tk.robust else "non-robust")
    assert verdicts == {"robust", "non-robust", "degenerate"}
    assert outcomes == {"robust", "non-robust"}


def test_csv_errors_exit_with_an_error_line(workspace, capsys):
    import csv

    long_field = workspace["root"] / "long.csv"
    long_field.write_text(FIXTURE_CSV + "alpha,beta," + "x" * (csv.field_size_limit() + 1) + ",p\n",
                          encoding="utf-8")
    assert main(["fit", str(long_field), "--schema", workspace["schema"],
                 "--out", workspace["out"]]) == 1
    assert capsys.readouterr().err.startswith("error: row 7: field larger than field limit")

    schema = workspace["root"] / "bad_delimiter.json"
    schema.write_text(json.dumps(dict(SCHEMA, delimiter="||")), encoding="utf-8")
    assert main(["fit", workspace["dataset"], "--schema", str(schema),
                 "--out", workspace["out"]]) == 1
    assert capsys.readouterr().err == "error: delimiter must be exactly one character\n"


def test_env_var_default_out_dir(workspace, monkeypatch):
    env_out = workspace["root"] / "env-out"
    monkeypatch.setenv("BTAUDIT_OUT", str(env_out))
    assert main(["fit", workspace["dataset"], "--schema", workspace["schema"]]) == 0
    assert (env_out / "leaderboard.txt").exists()


def test_config_file_provides_defaults(workspace):
    cfg = workspace["root"] / "config.json"
    cfg.write_text(json.dumps({"count": [3], "k": [1], "always_refit": True}), encoding="utf-8")
    code = main(["check-topk", workspace["dataset"], "--schema", workspace["schema"],
                 "--config", str(cfg), "--out", workspace["out"]])
    assert code == 2
    # explicit flags override the config file
    code = main(["check-topk", workspace["dataset"], "--schema", workspace["schema"],
                 "--config", str(cfg), "--count", "1", "--out", workspace["out"]])
    assert code == 0


def test_config_file_may_give_a_repeatable_flag_a_single_value(workspace, capsys):
    # {"count": 3} in a config file means what {"count": [3]} and one --count 3 mean.
    outcomes = []
    for shape in (lambda v: [v], lambda v: v):
        cfg = workspace["root"] / "config.json"
        cfg.write_text(json.dumps({"count": shape(3), "alpha": shape(0.5), "k": shape(1),
                                   "always_refit": True}), encoding="utf-8")
        code = main(["check-topk", workspace["dataset"], "--schema", workspace["schema"],
                     "--config", str(cfg), "--out", workspace["out"]])
        outcomes.append((code, capsys.readouterr()))
    assert outcomes[0][0] == 2 and outcomes[0][1].err == ""
    assert outcomes[1] == outcomes[0]


@pytest.mark.parametrize("command, config, flags, bad_flag", [
    ("check-topk", {"count": "1", "k": "1"}, ["--count", "1", "--k", "1"], None),
    ("check-topk", {"alpha": "0.5"}, ["--alpha", "0.5"], None),
    ("check-topk", {"k": 1.5}, None, "--k"),
    ("check-topk", {"count": 1.7}, None, "--count"),
    ("check-topk", {"always_refit": "false"}, None, "--always-refit"),
    ("check-topk", {"method": "bogus"}, None, "--method"),
    ("check-topk", {"ridge": "x"}, None, "--ridge"),
    ("min-drop", {"max_budget": "x"}, None, "--max-budget"),
    ("check-topk", None, ["--k", "x"], "--k"),
], ids=["count-k-strings", "alpha-string", "k-float", "count-float", "always-refit-string",
        "method-choice", "ridge-string", "max-budget-string", "typed-k-string"])
def test_config_values_pass_the_checks_of_their_flags(workspace, capsys, command, config, flags,
                                                      bad_flag):
    # A config value runs as the same value typed as a flag would, or fails
    # with one error line that names the flag, as a bad typed value does.
    argv = [command, workspace["dataset"], *(["alpha", "beta"] if command == "min-drop" else []),
            "--schema", workspace["schema"], "--out", workspace["out"]]
    if config is None:
        code = main(argv + flags)
    else:
        cfg = workspace["root"] / "config.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        code = main(argv + ["--config", str(cfg)])
    printed = capsys.readouterr()
    if bad_flag is None:
        assert code in (0, 2) and printed.err == ""
        assert (main(argv + flags), capsys.readouterr()) == (code, printed)
    else:
        errors = [line for line in printed.err.splitlines() if line.startswith("error:")]
        assert code == 1 and len(errors) == 1
        assert errors[0].startswith(f"error: argument {bad_flag}: ")


def test_config_values_precede_a_double_dash(workspace):
    cfg = workspace["root"] / "config.json"
    cfg.write_text(json.dumps({"count": [3], "always_refit": True}), encoding="utf-8")
    assert main(["check-topk", "--schema", workspace["schema"], "--config", str(cfg),
                 "--out", workspace["out"], "--", workspace["dataset"]]) == 2


def test_config_and_schema_files_may_start_with_a_byte_order_mark(workspace):
    schema = workspace["root"] / "marked_schema.json"
    schema.write_text(json.dumps(SCHEMA), encoding="utf-8-sig")
    cfg = workspace["root"] / "marked_config.json"
    cfg.write_text(json.dumps({"count": [3], "k": [1], "always_refit": True}), encoding="utf-8-sig")
    assert cfg.read_bytes().startswith(b"\xef\xbb\xbf")
    assert main(["check-topk", workspace["dataset"], "--schema", workspace["schema"],
                 "--config", str(cfg), "--out", workspace["out"]]) == 2
    assert main(["check-topk", workspace["dataset"], "--schema", str(schema),
                 "--count", "3", "--always-refit", "--out", workspace["out"]]) == 2


def test_selftest_passes(capsys):
    code = main(["selftest", "--seed", "3", "--arenas", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "selftest:" in out


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "error: --seed -1 outside [0, 184461906879889] for --arenas 25"),
    (["--arenas", "-3"], "error: --arenas must be non-negative, got -3"),
    (["--seed", "200000000000000"],
     "error: --seed 200000000000000 outside [0, 184461906879889] for --arenas 25"),
])
def test_selftest_refuses_seeds_and_arena_counts_it_cannot_use(flags, message, capsys):
    assert main(["selftest", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and captured.out == ""


def test_selftest_seed_bound_is_the_last_derived_seed(capsys):
    # Arena i draws seed * 100_003 + i and the derivative spot-check seed * 100_003 + arenas.
    top = (2**64 - 1 - 1) // 100_003
    assert top * 100_003 + 1 < 2**64 <= (top + 1) * 100_003 + 1
    assert main(["selftest", "--seed", str(top), "--arenas", "1"]) == 0
    capsys.readouterr()
    assert main(["selftest", "--seed", str(top + 1), "--arenas", "1"]) == 1
    assert capsys.readouterr().err == f"error: --seed {top + 1} outside [0, {top}] for --arenas 1\n"


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "btaudit.cli", "selftest", "--seed", "1", "--arenas", "3"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_import_needs_numpy_only():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, btaudit.cli; assert 'scipy' not in sys.modules"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


GOLDEN_CSV = """model_a,model_b,winner,prompt
alpha,beta,model_a,p0
beta,alpha,model_b,p1
alpha,gamma,model_a,p2
gamma,alpha,model_a,p3
alpha,delta,model_a,p4
beta,gamma,model_a,p5
gamma,beta,model_b,p6
beta,delta,model_a,p7
delta,beta,model_a,p8
gamma,delta,model_a,p9
delta,gamma,model_b,p10
alpha,beta,model_b,p11
gamma,delta,tie,p12
beta,gamma,model_b,p13
delta,alpha,model_b,p14
"""

GOLDEN_TOPK_K1 = """report: topk-robustness
dataset: games.csv
n_models: 4
n_matchups: 14
k: 1
budget: count=1
budget_count: 1
verdict: robust
pairs_checked: 3
pairs_total: 3
degenerate_pairs: -
solver_ridge: 1e-06
solver_tol: 1e-08
fit_converged: true
fit_iterations: 5
fit_gradient_norm: 3.57928594939e-16"""

GOLDEN_TOPK_K1_PAIRS = """leader,challenger,gap_before,verdict,predicted_flip,refit_performed,dropped_count
alpha,gamma,0.514422220535,robust,false,false,1
alpha,beta,0.664370263756,robust,false,false,1
alpha,delta,2.0288564945,robust,false,false,0
"""

GOLDEN_TOPK_K2 = """report: topk-robustness
dataset: games.csv
n_models: 4
n_matchups: 14
k: 2
budget: count=1
budget_count: 1
verdict: non-robust
pairs_checked: 1
pairs_total: 4
offending_pair: gamma vs beta
offending_indices: 2 1
scatter_gap: 0.149948043221
scatter_dropped_fraction: 0.0714285714286
pair: gamma vs beta
pair_indices: 2 1
budget: count=1
budget_count: 1
method: if
influence_mode: derivative
verdict: non-robust
score_before_leader: -0.514422220535
score_before_challenger: -0.664370263756
gap_before: 0.149948043221
predicted_delta: -0.392965259902
predicted_flip: true
refit_performed: true
refit_flip: true
score_after_leader: -0.810701655492
score_after_challenger: -0.460849098789
gap_after: -0.349852556702
dropped_count: 1
dropped_fraction: 0.0714285714286
dropped_indices: 12
involvement_both: 1
involvement_one: 0
involvement_neither: 0
head_to_head: 1-2
win_percent_leader: 33.3333333333
degenerate: false
refit_unidentified: -
refit_converged: true
refit_iterations: 5
degenerate_pairs: -
solver_ridge: 1e-06
solver_tol: 1e-08
fit_converged: true
fit_iterations: 5
fit_gradient_norm: 3.57928594939e-16"""

GOLDEN_TOPK_K2_PAIRS = """leader,challenger,gap_before,verdict,predicted_flip,refit_performed,dropped_count
gamma,beta,0.149948043221,non-robust,true,true,1
"""

GOLDEN_MINDROP = """report: min-drop
dataset: games.csv
n_models: 4
n_matchups: 14
found: true
min_drop_count: 2
budgets_tried: 2
max_budget: 5
pair: alpha vs beta
pair_indices: 0 1
budget: count=2
budget_count: 2
method: if
influence_mode: derivative
verdict: non-robust
score_before_leader: 0
score_before_challenger: -0.664370263756
gap_before: 0.664370263756
predicted_delta: -0.62548342055
predicted_flip: false
refit_performed: true
refit_flip: true
score_after_leader: 0
score_after_challenger: 0.34432224296
gap_after: -0.34432224296
dropped_count: 2
dropped_fraction: 0.142857142857
dropped_indices: 0 1
involvement_both: 1
involvement_one: 0
involvement_neither: 0
head_to_head: 2-1
win_percent_leader: 66.6666666667
degenerate: false
refit_unidentified: -
refit_converged: true
refit_iterations: 4
solver_ridge: 1e-06
solver_tol: 1e-08
fit_converged: true
fit_iterations: 5
fit_gradient_norm: 3.57928594939e-16"""

GOLDEN_LEADERBOARD = """report: leaderboard
dataset: games.csv
n_models: 4
n_matchups: 14
ties_dropped: 1
both_bad_dropped: 0
malformed_skipped: 0
source_rows: 15
solver_ridge: 1e-06
solver_tol: 1e-08
fit_converged: true
fit_iterations: 5
fit_gradient_norm: 3.57928594939e-16
columns: rank model score elo matchups
row: 1 alpha 0 1000 7
row: 2 gamma -0.514422220535 794.231111786 7
row: 3 beta -0.664370263756 734.251894497 8
row: 4 delta -2.0288564945 188.457402201 6"""

GOLDEN_LEADERBOARD_CSV = """rank,model,score,elo,matchups
1,alpha,0,1000,7
2,gamma,-0.514422220535,794.231111786,7
3,beta,-0.664370263756,734.251894497,8
4,delta,-2.0288564945,188.457402201,6
"""

GOLDEN_INSPECT = """pair: alpha vs beta
dropped matchups (2), most influential first:
[1] matchup 0: alpha vs beta | winner: alpha
    prompt: p0
[2] matchup 1: beta vs alpha | winner: alpha
    prompt: p1
"""


def test_reports_match_golden_text(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "games.csv").write_text(GOLDEN_CSV, encoding="utf-8")
    (tmp_path / "schema.json").write_text(json.dumps(SCHEMA), encoding="utf-8")
    common = ["--schema", "schema.json", "--out", "out"]
    assert main(["check-topk", "games.csv", "--k", "1", "--k", "2", "--count", "1", *common]) == 2
    assert main(["min-drop", "games.csv", "alpha", "beta", "--max-budget", "5", *common]) == 2
    assert main(["fit", "games.csv", *common]) == 0
    capsys.readouterr()
    assert main(["inspect", "out/mindrop_alpha_vs_beta.txt", "games.csv", "--schema", "schema.json"]) == 0
    assert capsys.readouterr().out == GOLDEN_INSPECT

    out = tmp_path / "out"
    assert _strip_timestamp((out / "topk_k1_count1.txt").read_text()) == GOLDEN_TOPK_K1
    assert _strip_timestamp((out / "topk_k2_count1.txt").read_text()) == GOLDEN_TOPK_K2
    assert _strip_timestamp((out / "mindrop_alpha_vs_beta.txt").read_text()) == GOLDEN_MINDROP
    assert _strip_timestamp((out / "leaderboard.txt").read_text()) == GOLDEN_LEADERBOARD
    for name, golden in (("topk_k1_count1_pairs.csv", GOLDEN_TOPK_K1_PAIRS),
                         ("topk_k2_count1_pairs.csv", GOLDEN_TOPK_K2_PAIRS),
                         ("leaderboard.csv", GOLDEN_LEADERBOARD_CSV)):
        assert (out / name).read_bytes() == golden.replace("\n", "\r\n").encode()
