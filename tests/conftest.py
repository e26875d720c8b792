import importlib.util
from pathlib import Path

import numpy as np
import pytest

from btaudit import Arena, SolverOptions, SynthSpec, hessian_factor, pair_influence

RIDGELESS = SolverOptions(ridge=0.0)


def two_player_arena(wins_a: int, wins_b: int, names=("alpha", "beta")) -> Arena:
    records = [(0, 1, 1)] * wins_a + [(0, 1, 0)] * wins_b
    return Arena.from_records(names, records)


def round_robin_spec(seed: int, n_models: int, games_per_pair: int = 3,
                     spread: float = 1.25) -> SynthSpec:
    """Balanced schedule: every pair plays in both orientations."""
    rng = np.random.Generator(np.random.PCG64(seed + 771))
    strengths = (0.0, *(float(x) for x in rng.uniform(-spread, spread, n_models - 1)))
    schedule = []
    for a in range(n_models):
        for b in range(a + 1, n_models):
            half = games_per_pair // 2
            if half:
                schedule.append((a, b, half))
            schedule.append((b, a, games_per_pair - half))
    return SynthSpec(strengths=strengths, schedule=tuple(schedule), seed=seed)


def newton_rows(bt, t: int) -> np.ndarray:
    """Model t's one-step Newton scores per matchup: its pair influence against the
    reference, whose own scores are zero."""
    return pair_influence(bt, t, 0, method="newton")[bt.arena.cells.row_class]


def leverage_rows(bt) -> np.ndarray:
    """The factor's per-cell leverages, gathered to matchups."""
    return hessian_factor(bt).leverages[bt.arena.cells.row_class >> 1]


def bench_inputs():
    """The benchmark's seeded arena generator, loaded from ``bench/inputs.py``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def arena_3_1() -> Arena:
    return two_player_arena(3, 1)


@pytest.fixture
def arena_2_2() -> Arena:
    return two_player_arena(2, 2)
