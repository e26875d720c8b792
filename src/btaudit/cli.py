"""Command-line audits: fit, check-topk, min-drop, inspect, selftest.

Every command is a thin shell over the library; exit status 0 means completed
and robust, 2 means completed with a verified non-robust finding, 1 means error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

from .arena import SCHEMA_PRESETS, Arena, IngestError, IngestSchema, _records_at, ingest
from .btmodel import FitError, SolverOptions, fit, head_to_head, ranking
from .influence import influence_scores
from .oracle import brute_force_pair, finite_difference_influence, generate, random_spec
from .report import (
    LEADERBOARD_COLUMNS,
    TOPK_PAIR_COLUMNS,
    leaderboard_rows,
    parse_report,
    render_leaderboard,
    render_min_drop_report,
    render_topk_report,
    topk_pair_rows,
    write_csv,
)
from .robustness import DropBudget, check_pair, check_topk, min_drop_search

__all__ = ["main", "run"]

ENV_OUT = "BTAUDIT_OUT"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NON_ROBUST = 2


# Values of the flags left unset on the command line and in the config file.
_DEFAULTS = {"ridge": SolverOptions.ridge, "tol": SolverOptions.tol, "method": "if", "k": (1,),
             "always_refit": False, "max_budget": 100}


class _Parser(argparse.ArgumentParser):
    # Exit code 2 is reserved for "non-robust found"; usage errors exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="btaudit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dataset_flags(p):
        p.add_argument("dataset", help="path to the matchup dataset")
        p.add_argument("--schema", help="schema preset name or path to a JSON schema file")
        p.add_argument("--reference", help="model name pinned to score 0")
        p.add_argument("--ridge", type=float, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--out", default=None, help=f"output directory (default ${ENV_OUT} or ./btaudit-out)")
        p.add_argument("--config", default=None, help="JSON file with defaults for any flag")

    p_fit = sub.add_parser("fit", help="fit the full dataset and write the leaderboard")
    add_dataset_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_topk = sub.add_parser("check-topk", help="audit top-k sets at the given budgets")
    add_dataset_flags(p_topk)
    p_topk.add_argument("--method", choices=("if", "newton"), default=None)
    p_topk.add_argument("--alpha", action="append", type=float, default=None,
                        help="drop-fraction budget; repeatable")
    p_topk.add_argument("--count", action="append", type=int, default=None,
                        help="drop-count budget; repeatable")
    p_topk.add_argument("--k", action="append", type=int, default=None, help="top-k size; repeatable")
    p_topk.add_argument("--always-refit", action="store_true", default=None)
    p_topk.set_defaults(func=cmd_check_topk)

    p_min = sub.add_parser("min-drop", help="smallest verified flipping drop count for a pair")
    add_dataset_flags(p_min)
    p_min.add_argument("model_a")
    p_min.add_argument("model_b")
    p_min.add_argument("--method", choices=("if", "newton"), default=None)
    p_min.add_argument("--max-budget", type=int, default=None)
    p_min.set_defaults(func=cmd_min_drop)

    p_ins = sub.add_parser("inspect", help="dump the dropped matchups named in a report")
    p_ins.add_argument("report", help="path to a report written by check-topk or min-drop")
    p_ins.add_argument("dataset")
    p_ins.add_argument("--schema", required=True)
    p_ins.add_argument("--reference", default=None)
    p_ins.add_argument("--truncate", type=int, default=200, help="max characters per metadata value")
    p_ins.set_defaults(func=cmd_inspect)

    p_self = sub.add_parser("selftest", help="validate predictions against exhaustive refits")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.add_argument("--arenas", type=int, default=25)
    p_self.set_defaults(func=cmd_selftest)

    return parser


def _config_flags(args) -> list[str]:
    """The ``--config`` file's values as flags, for the flags left unset.

    Every flag defaults to None, so a None attribute is a flag of this command
    left unset on the command line. A list becomes repeated flags, ``true`` the
    bare switch; ``false`` and ``null`` add nothing. Other keys are ignored, so
    commands can share a config file.
    """
    path = getattr(args, "config", None)
    if not path:
        return []
    with open(path, encoding="utf-8-sig") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    extra = []
    for key, value in cfg.items():
        if key not in vars(args) or getattr(args, key) is not None:
            continue
        flag = "--" + key.replace("_", "-")
        for item in value if isinstance(value, list) else [value]:
            if item is True:
                extra.append(flag)
            elif item is not False and item is not None:
                extra.append(f"{flag}={item}")  # "=" keeps a leading "-" a value
    return extra


def _resolve_schema(spec: str | None, reference: str | None) -> IngestSchema:
    if not spec:
        raise IngestError("--schema is required (preset name or JSON file)")
    if spec in SCHEMA_PRESETS:
        schema = SCHEMA_PRESETS[spec]
    elif Path(spec).exists():
        schema = IngestSchema.from_file(spec)
    else:
        raise IngestError(f"schema {spec!r} is neither a preset nor an existing file")
    if reference:
        schema = replace(schema, reference=reference)
    return schema


def _out_dir(args) -> Path:
    path = Path(args.out or os.environ.get(ENV_OUT) or "btaudit-out")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_arena(args) -> Arena:
    return ingest(args.dataset, _resolve_schema(args.schema, args.reference))


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", name)


def cmd_fit(args) -> int:
    arena = _load_arena(args)
    bt = fit(arena, options=SolverOptions(ridge=args.ridge, tol=args.tol))
    out = _out_dir(args)
    text = render_leaderboard(bt, dataset=args.dataset)
    (out / "leaderboard.txt").write_text(text, encoding="utf-8")
    write_csv(out / "leaderboard.csv", LEADERBOARD_COLUMNS, leaderboard_rows(bt))
    print(arena.summary())
    print(f"wrote {out / 'leaderboard.txt'}")
    print(f"wrote {out / 'leaderboard.csv'}")
    return EXIT_OK


def cmd_check_topk(args) -> int:
    arena = _load_arena(args)
    # A repeated --k or budget is audited once, in the order first given.
    ks = dict.fromkeys(args.k)
    for k in ks:
        if not 1 <= k < arena.n_models:
            raise ValueError(f"k={k} out of range [1, {arena.n_models})")
    budgets = [DropBudget(alpha=a) for a in args.alpha or ()]
    budgets += [DropBudget(count=c) for c in args.count or ()]
    budgets = dict.fromkeys(budgets)
    if not budgets:
        raise ValueError("at least one --alpha or --count budget is required")
    bt = fit(arena, options=SolverOptions(ridge=args.ridge, tol=args.tol))
    out = _out_dir(args)

    any_non_robust = False
    for k in ks:
        for budget in budgets:
            tk = check_topk(arena, bt, k, budget, method=args.method,
                            always_refit=args.always_refit)
            stem = f"topk_k{k}_{_safe_name(budget.label().replace('=', ''))}"
            (out / f"{stem}.txt").write_text(
                render_topk_report(tk, arena, bt, dataset=args.dataset), encoding="utf-8"
            )
            write_csv(out / f"{stem}_pairs.csv", TOPK_PAIR_COLUMNS, topk_pair_rows(tk))
            verdict = "robust" if tk.robust else "non-robust"
            print(f"k={k} {budget.label()}: {verdict} ({tk.pairs_checked}/{tk.pairs_total} pairs)")
            any_non_robust = any_non_robust or not tk.robust
    return EXIT_NON_ROBUST if any_non_robust else EXIT_OK


def cmd_min_drop(args) -> int:
    if args.model_a == args.model_b:
        print("error: min-drop needs two distinct models", file=sys.stderr)
        return EXIT_ERROR
    arena = _load_arena(args)
    bt = fit(arena, options=SolverOptions(ridge=args.ridge, tol=args.tol))
    a = arena.models.resolve(args.model_a)
    b = arena.models.resolve(args.model_b)
    result = min_drop_search(arena, bt, a, b, max_budget=args.max_budget, method=args.method)
    out = _out_dir(args)
    stem = f"mindrop_{_safe_name(args.model_a)}_vs_{_safe_name(args.model_b)}"
    (out / f"{stem}.txt").write_text(
        render_min_drop_report(result, arena, bt, dataset=args.dataset, max_budget=args.max_budget),
        encoding="utf-8",
    )
    if result.found:
        h2h = head_to_head(arena, a, b)
        pct = "-" if h2h.win_percent is None else f"{100 * h2h.win_percent:.2f}%"
        print(f"non-robust: {result.count} of {arena.n_matchups} matchups "
              f"({result.count / arena.n_matchups:.6f}), leader win percent {pct}")
        print(f"wrote {out / (stem + '.txt')}")
        return EXIT_NON_ROBUST
    print(f"not found within budget {args.max_budget}")
    print(f"wrote {out / (stem + '.txt')}")
    return EXIT_OK


def _truncate(value: str, limit: int) -> str:
    if limit > 0 and len(value) > limit:
        return value[:limit] + "..."
    return value


def cmd_inspect(args) -> int:
    text = Path(args.report).read_text(encoding="utf-8")
    fields = parse_report(text)
    dropped_raw = fields.get("dropped_indices", "-")
    if dropped_raw in ("-", ""):
        print("report lists no dropped matchups")
        return EXIT_OK
    dropped = [int(tok) for tok in dropped_raw.split()]
    records, n_matchups = _records_at(args.dataset, _resolve_schema(args.schema, args.reference),
                                      dropped)
    bad = [n for n in dropped if not 0 <= n < n_matchups]
    if bad:
        print(f"error: dropped index {bad[0]} out of range for this dataset "
              f"(N={n_matchups}); report/dataset mismatch", file=sys.stderr)
        return EXIT_ERROR
    print(f"pair: {fields.get('pair', '-')}")
    print(f"dropped matchups ({len(dropped)}), most influential first:")
    for rank, n in enumerate(dropped, start=1):
        name_a, name_b, a_won, meta = records[n]
        print(f"[{rank}] matchup {n}: {name_a} vs {name_b} | winner: {name_a if a_won else name_b}")
        if meta:
            for key in sorted(meta):
                print(f"    {key}: {_truncate(meta[key], args.truncate)}")
        else:
            print("    (no metadata)")
    return EXIT_OK


def cmd_selftest(args) -> int:
    if args.arenas < 0:
        raise ValueError(f"--arenas must be non-negative, got {args.arenas}")
    sound = True
    non_robust = misses = 0
    for i in range(args.arenas):
        budget = 1 + i % 3
        spec = random_spec(args.seed * 100_003 + i, target_matchups=12 + (i % 9))
        arena = generate(spec)
        bt = fit(arena)
        first, second = ranking(bt).order[:2]
        rep = check_pair(arena, bt, first, second, DropBudget(count=budget), always_refit=True)
        oracle = brute_force_pair(arena, first, second, budget)
        if rep.verdict == "non-robust":
            non_robust += 1
            if not oracle.flip_exists:
                sound = False
                print(f"FAIL arena {i}: verdict non-robust but exhaustive search finds no flip")
        elif oracle.flip_exists:
            misses += 1

    spec = random_spec(args.seed * 100_003 + args.arenas, target_matchups=16)
    arena = generate(spec)
    bt = fit(arena)
    target = int(ranking(bt).order[0]) or 1
    predicted = influence_scores(bt, target)
    max_rel = 0.0
    for n in range(0, arena.n_matchups, max(1, arena.n_matchups // 4)):
        fd = finite_difference_influence(arena, bt, target, n)
        max_rel = max(max_rel, abs(predicted[n] - fd) / max(abs(fd), 1e-9))
    fd_ok = max_rel <= 1e-3
    sound = sound and fd_ok

    print(f"selftest: {args.arenas} arenas, {non_robust} non-robust verdicts all "
          f"{'confirmed' if sound else 'NOT confirmed'} by exhaustive search, "
          f"{misses} prediction misses (one-sided guarantee)")
    print(f"selftest: derivative spot-check max relative error {max_rel:.2e} "
          f"({'ok' if fd_ok else 'FAIL'})")
    return EXIT_OK if sound else EXIT_ERROR


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # Config values pass the same type and choice checks as typed flags.
        # They go right after the command name, ahead of any "--".
        extra = _config_flags(args)
        if extra:
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + extra + argv[at:])
        for name, value in _DEFAULTS.items():
            if getattr(args, name, False) is None:
                setattr(args, name, value)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (IngestError, FitError, ValueError, KeyError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
