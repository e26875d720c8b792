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


def test_selftest_passes(capsys):
    code = main(["selftest", "--seed", "3", "--arenas", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "selftest:" in out


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
