"""Plain-text reports and delimiter-separated sidecars for audit results.

Reports are line-structured ``key: value`` text so auditors can diff them; the
timestamp is isolated on the ``generated:`` line and everything else is
byte-deterministic for identical inputs.
"""

from __future__ import annotations

import csv
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

from .arena import Arena, elo_transform
from .btmodel import BtFit, head_to_head, ranking
from .robustness import MinDropResult, RobustnessReport, TopKReport, involvement_composition

__all__ = [
    "leaderboard_rows",
    "parse_report",
    "render_leaderboard",
    "render_min_drop_report",
    "render_topk_report",
    "write_csv",
]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    if value is None:
        return "-"
    return str(value)


def _fmt_indices(indices: Sequence[int]) -> str:
    return " ".join(str(int(i)) for i in indices) if len(indices) else "-"


def _render(kind: str, fields: Iterable[tuple[str, object]]) -> str:
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    lines = [f"report: {kind}", f"generated: {stamp}"]
    lines.extend(f"{key}: {_fmt(value)}" for key, value in fields)
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> dict[str, str]:
    """Parse a rendered report back into a key/value mapping (last value wins)."""
    out: dict[str, str] = {}
    for line in text.splitlines():
        if ": " in line:
            key, value = line.split(": ", 1)
            out[key] = value
    return out


def _pair_fields(report: RobustnessReport, arena: Arena) -> list[tuple[str, object]]:
    h2h = head_to_head(arena, *report.pair)
    fields: list[tuple[str, object]] = [
        ("pair", f"{report.pair_names[0]} vs {report.pair_names[1]}"),
        ("pair_indices", _fmt_indices(report.pair)),
        ("budget", report.budget.label()),
        ("budget_count", report.budget_count),
        ("method", report.method),
        ("influence_mode", "derivative"),  # the only convention; kept so reports keep their keys
        ("verdict", report.verdict),
        ("score_before_leader", report.scores_before[0]),
        ("score_before_challenger", report.scores_before[1]),
        ("gap_before", report.gap_before),
        ("predicted_delta", report.predicted_delta),
        ("predicted_flip", report.predicted_flip),
        ("refit_performed", report.refit_performed),
        ("refit_flip", report.refit_flip),
    ]
    if report.scores_after is not None:
        fields += [
            ("score_after_leader", report.scores_after[0]),
            ("score_after_challenger", report.scores_after[1]),
            ("gap_after", report.gap_after),
        ]
    fields += [
        ("dropped_count", len(report.dropped)),
        ("dropped_fraction", report.dropped_fraction),
        ("dropped_indices", _fmt_indices(report.dropped)),
    ]
    if report.dropped:
        both, one, neither = involvement_composition(report, arena)
        fields += [
            ("involvement_both", both),
            ("involvement_one", one),
            ("involvement_neither", neither),
        ]
    win_pct = None if h2h.win_percent is None else 100.0 * h2h.win_percent
    fields += [
        ("head_to_head", f"{h2h.wins_a}-{h2h.wins_b}" if h2h.met else "never met"),
        ("win_percent_leader", win_pct),
        ("degenerate", report.degenerate),
        ("refit_unidentified", _fmt_indices(report.refit_unidentified)),
        ("refit_converged", report.refit_converged),
        ("refit_iterations", report.refit_iterations),
    ]
    return fields


def _solver_fields(bt: BtFit) -> list[tuple[str, object]]:
    return [
        ("solver_ridge", bt.options.ridge),
        ("solver_tol", bt.options.tol),
        ("fit_converged", bt.converged),
        ("fit_iterations", bt.iterations),
        ("fit_gradient_norm", bt.gradient_norm),
    ]


def render_topk_report(tk: TopKReport, arena: Arena, bt: BtFit, dataset: str = "-") -> str:
    names = arena.models.names
    fields: list[tuple[str, object]] = [
        ("dataset", dataset),
        ("n_models", arena.n_models),
        ("n_matchups", arena.n_matchups),
        ("k", tk.k),
        ("budget", tk.budget.label()),
        ("budget_count", tk.budget_count),
        ("verdict", "robust" if tk.robust else "non-robust"),
        ("pairs_checked", tk.pairs_checked),
        ("pairs_total", tk.pairs_total),
    ]
    if tk.offending_pair is not None:
        offending = tk.per_pair[-1]
        fields += [
            ("offending_pair", f"{names[tk.offending_pair[0]]} vs {names[tk.offending_pair[1]]}"),
            ("offending_indices", _fmt_indices(tk.offending_pair)),
            ("scatter_gap", offending.gap_before),
            ("scatter_dropped_fraction", offending.dropped_fraction),
        ]
        fields += _pair_fields(offending, arena)
    fields.append(
        ("degenerate_pairs",
         " ".join(f"{i}-{j}" for i, j in tk.degenerate_pairs) if tk.degenerate_pairs else "-")
    )
    fields += _solver_fields(bt)
    return _render("topk-robustness", fields)


def render_min_drop_report(
    result: MinDropResult, arena: Arena, bt: BtFit, dataset: str = "-", max_budget: int | None = None
) -> str:
    fields: list[tuple[str, object]] = [
        ("dataset", dataset),
        ("n_models", arena.n_models),
        ("n_matchups", arena.n_matchups),
        ("found", result.found),
        ("min_drop_count", result.count),
        ("budgets_tried", result.budgets_tried),
        ("max_budget", max_budget),
    ]
    if result.report is not None:
        fields += _pair_fields(result.report, arena)
    fields += _solver_fields(bt)
    return _render("min-drop", fields)


TOPK_PAIR_COLUMNS = ("leader", "challenger", "gap_before", "verdict",
                     "predicted_flip", "refit_performed", "dropped_count")
LEADERBOARD_COLUMNS = ("rank", "model", "score", "elo", "matchups")


def topk_pair_rows(tk: TopKReport) -> list[tuple]:
    """One tuple per pair checked, its fields in ``TOPK_PAIR_COLUMNS`` order."""
    return [(rep.pair_names[0], rep.pair_names[1], _fmt(rep.gap_before), rep.verdict,
             _fmt(rep.predicted_flip), _fmt(rep.refit_performed), len(rep.dropped))
            for rep in tk.per_pair]


def leaderboard_rows(bt: BtFit) -> list[tuple]:
    """One tuple per model, best first, its fields in ``LEADERBOARD_COLUMNS`` order."""
    arena = bt.arena
    display = elo_transform(bt.scores)
    counts = arena.occurrence_counts()
    return [(rank, arena.models.names[idx], _fmt(float(bt.scores[idx])),
             _fmt(float(display[idx])), int(counts[idx]))
            for rank, idx in enumerate(ranking(bt).order, start=1)]


def render_leaderboard(bt: BtFit, dataset: str = "-") -> str:
    arena = bt.arena
    fields: list[tuple[str, object]] = [
        ("dataset", dataset),
        ("n_models", arena.n_models),
        ("n_matchups", arena.n_matchups),
    ]
    if arena.stats is not None:
        fields += [
            ("ties_dropped", arena.stats.ties),
            ("both_bad_dropped", arena.stats.both_bad),
            ("malformed_skipped", arena.stats.malformed_skipped),
            ("source_rows", arena.stats.source_rows),
        ]
    fields += _solver_fields(bt)
    fields.append(("columns", " ".join(LEADERBOARD_COLUMNS)))
    fields += [("row", " ".join(map(str, row))) for row in leaderboard_rows(bt)]
    return _render("leaderboard", fields)


def write_csv(path: str | Path, fieldnames: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and one line per row, each row's fields in ``fieldnames`` order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        writer.writerows(rows)
