"""Seeded workload inputs, generated by the benchmark's own PCG64 code.

The benchmark never asks btaudit to make its inputs, so a change to
``btaudit.oracle`` or to ingest cannot change what is measured. The large
arenas follow the recipe of ``_big_spec`` + ``generate`` in the acceptance
suite (chain backbone, uniform random pairings, normal strengths), so a seed
gives the same matchups as that recipe at the same size.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from pathlib import Path

import numpy as np

SCHEMA = {
    "model_a": "model_a",
    "model_b": "model_b",
    "outcome": "winner",
    "a_wins": ["model_a"],
    "b_wins": ["model_b"],
    "reference": "m0",
}

_PROMPT_WORDS = ("rank", "poem", "integral", "letter", "proof", "story", "sort", "map",
                 "recipe", "haiku", "query", "essay", "riddle", "plan", "review", "code")


def big_arena(seed: int, n_models: int, n_matchups: int, spread: float = 0.7):
    """Return (side_a, side_b, a_won) arrays for one large synthetic arena."""
    rng = np.random.Generator(np.random.PCG64(seed))
    strengths = np.concatenate([[0.0], rng.normal(0.0, spread, n_models - 1)])
    remaining = n_matchups - (n_models - 1)
    a = rng.integers(0, n_models, remaining)
    b = rng.integers(0, n_models - 1, remaining)
    b = np.where(b >= a, b + 1, b)
    counts = Counter(zip(a.tolist(), b.tolist()))
    schedule = [(k, k + 1, 1) for k in range(n_models - 1)]
    schedule += [(int(x), int(y), g) for (x, y), g in sorted(counts.items())]
    games = np.array([g for _, _, g in schedule])
    side_a = np.repeat([x for x, _, _ in schedule], games)
    side_b = np.repeat([y for _, y, _ in schedule], games)
    # Outcomes come from a second stream with the same seed, drawn in schedule order.
    draws = np.random.Generator(np.random.PCG64(seed)).random(n_matchups)
    p_win = 1.0 / (1.0 + np.exp(-(strengths[side_a] - strengths[side_b])))
    return side_a, side_b, (draws < p_win).astype(np.int64)


def tiny_arena(seed: int, index: int):
    """One oracle-sweep arena: N in 12..20 and M in 2..5, cycling with the index."""
    rng = np.random.Generator(np.random.PCG64([seed, index]))
    n_models = 2 + index % 4
    n_matchups = 12 + index % 9
    strengths = np.concatenate([[0.0], rng.uniform(-0.75, 0.75, n_models - 1)])
    pairs = [(k, k + 1) for k in range(n_models - 1)]
    while len(pairs) < n_matchups:
        a, b = (int(x) for x in rng.integers(0, n_models, 2))
        if a != b:
            pairs.append((a, b))
    side_a = np.array([a for a, _ in pairs])
    side_b = np.array([b for _, b in pairs])
    p_win = 1.0 / (1.0 + np.exp(-(strengths[side_a] - strengths[side_b])))
    return side_a, side_b, (rng.random(n_matchups) < p_win).astype(np.int64)


def _rows(side_a, side_b, a_won):
    for x, y, w in zip(side_a.tolist(), side_b.tolist(), a_won.tolist()):
        yield f"m{x}", f"m{y}", "model_a" if w else "model_b"


def write_csv(path: Path, arena) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["model_a", "model_b", "winner"])
        out.writerows(_rows(*arena))


def write_jsonl(path: Path, arena, seed: int) -> None:
    """Rows carry a ``prompt`` metadata column drawn from the seed."""
    words = np.random.Generator(np.random.PCG64([seed, 7])).integers(
        0, len(_PROMPT_WORDS), (len(arena[0]), 3))
    with open(path, "w", encoding="utf-8") as fh:
        for (x, y, w), ws in zip(_rows(*arena), words.tolist()):
            prompt = " ".join(_PROMPT_WORDS[k] for k in ws)
            fh.write(json.dumps({"model_a": x, "model_b": y, "winner": w, "prompt": prompt}) + "\n")


def write_schema(path: Path, fmt: str, meta_columns=()) -> None:
    schema = dict(SCHEMA, format=fmt, meta_columns=list(meta_columns))
    path.write_text(json.dumps(schema, indent=1) + "\n", encoding="utf-8")


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
