"""Acceptance gate: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and tallies.
"""

import itertools
import json
import os
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from btaudit import (
    SCHEMA_PRESETS,
    DropBudget,
    SolverOptions,
    SynthSpec,
    brute_force_pair,
    check_pair,
    check_topk,
    finite_difference_influence,
    fit,
    generate,
    influence_scores,
    ingest,
    min_drop_search,
    random_spec,
    ranking,
    refit_without,
)
from conftest import RIDGELESS, newton_rows, round_robin_spec, two_player_arena


def _pass(name: str, detail: str = "") -> None:
    print(f"\nACCEPTANCE {name}: PASS {detail}".rstrip())


def _big_spec(seed: int, n_models: int, n_matchups: int, spread: float = 0.7) -> SynthSpec:
    """Large synthetic arena: connectivity backbone plus uniform random pairings."""
    rng = np.random.Generator(np.random.PCG64(seed))
    strengths = (0.0, *(float(x) for x in rng.normal(0.0, spread, n_models - 1)))
    backbone = [(k, k + 1, 1) for k in range(n_models - 1)]
    remaining = n_matchups - len(backbone)
    a = rng.integers(0, n_models, remaining)
    b = rng.integers(0, n_models - 1, remaining)
    b = np.where(b >= a, b + 1, b)
    counts = Counter(zip(a.tolist(), b.tolist()))
    schedule = backbone + [(int(x), int(y), g) for (x, y), g in sorted(counts.items())]
    return SynthSpec(strengths=strengths, schedule=tuple(schedule), seed=seed)


# --------------------------------------------------------------------------
# Criterion: oracle agreement (soundness of the refit gate)
# --------------------------------------------------------------------------

def test_oracle_agreement_soundness():
    n_arenas = 210
    start = time.perf_counter()
    non_robust = confirmed = misses = degenerate = 0
    for s in range(n_arenas):
        budget = 1 + s % 3
        n = {1: 25, 2: 20, 3: 16}[budget]
        m = 2 + s % 4
        spec = random_spec(1000 + s, n_models=m, target_matchups=n)
        arena = generate(spec)
        bt = fit(arena)
        assert bt.converged
        first, second = ranking(bt).order[:2]
        rep = check_pair(arena, bt, first, second, DropBudget(count=budget),
                         always_refit=True)
        oracle = brute_force_pair(arena, first, second, budget)
        if rep.verdict == "non-robust":
            non_robust += 1
            assert oracle.flip_exists, (
                f"arena seed {1000 + s}: non-robust verdict not confirmed by enumeration"
            )
            confirmed += 1
        elif rep.verdict == "degenerate":
            degenerate += 1
        elif oracle.flip_exists:
            misses += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"oracle sweep took {elapsed:.1f}s"
    assert non_robust > 0, "sweep produced no non-robust verdicts to confirm"
    _pass(
        "oracle-agreement",
        f"- {n_arenas} arenas, {non_robust} non-robust verdicts, {confirmed} confirmed "
        f"(100%), {misses} prediction misses (one-sided, reported), "
        f"{degenerate} degenerate, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# Criterion: derivative check (influence vs. finite differences)
# --------------------------------------------------------------------------

def _derivative_arenas():
    for i in range(50):
        m = 3 + i % 3
        games = 2 + (i % 2)
        yield generate(round_robin_spec(2000 + i, n_models=m, games_per_pair=games))


def test_derivative_check():
    worst_rel = 0.0
    smallest_fd = np.inf
    checked = 0
    for arena in _derivative_arenas():
        bt = fit(arena)
        assert bt.converged and arena.n_matchups <= 40
        target = int(ranking(bt).order[0]) or int(ranking(bt).order[1])
        predicted = influence_scores(bt, target)
        for n in range(arena.n_matchups):
            fd = finite_difference_influence(arena, bt, target, n)
            # Floor at 1e-5: the oracle refits at tol 1e-12, which the central
            # difference's 1/(2 eps) amplifies to ~1e-8 absolute resolution.
            rel = abs(predicted[n] - fd) / max(abs(fd), 1e-5)
            worst_rel = max(worst_rel, rel)
            smallest_fd = min(smallest_fd, abs(fd))
            checked += 1
            assert rel <= 1e-3, (
                f"matchup {n}: influence {predicted[n]:.3e} vs finite difference "
                f"{fd:.3e} (rel {rel:.2e})"
            )

    # Hand-derived symmetric fixture: curvature 4 * 0.25 = 1, residuals -+0.5.
    arena22 = two_player_arena(2, 2)
    bt22 = fit(arena22, options=RIDGELESS)
    derivative = influence_scores(bt22, 1)
    assert np.all(np.abs(derivative - np.array([-0.5, -0.5, 0.5, 0.5])) <= 1e-9)
    fd0 = finite_difference_influence(arena22, bt22, 1, 0)
    assert derivative[0] == pytest.approx(fd0, rel=1e-3)
    _pass(
        "derivative-check",
        f"- {checked} matchups over 50 arenas, worst rel err {worst_rel:.2e}, "
        f"smallest |fd| {smallest_fd:.2e}; 0.5 fixture exact to 1e-9",
    )


# --------------------------------------------------------------------------
# Criterion: one-step Newton dominance against exact leave-one-out refits
# --------------------------------------------------------------------------

def test_one_step_newton_dominance():
    err_if = []
    err_newton = []
    for arena in _derivative_arenas():
        bt = fit(arena)
        m = arena.n_models
        pred_if = np.stack([influence_scores(bt, t) for t in range(1, m)])
        pred_1sn = np.stack([newton_rows(bt, t) for t in range(1, m)])
        for n in range(arena.n_matchups):
            exact = refit_without(arena, bt.options, [n]).scores[1:] - bt.scores[1:]
            err_if.extend(np.abs(exact - (-pred_if[:, n])))
            err_newton.extend(np.abs(exact - (-pred_1sn[:, n])))
    mean_if = float(np.mean(err_if))
    mean_newton = float(np.mean(err_newton))
    assert mean_newton <= mean_if, (
        f"one-step Newton mean error {mean_newton:.3e} exceeds influence {mean_if:.3e}"
    )
    _pass(
        "newton-dominance",
        f"- mean |exact - 1sN| {mean_newton:.3e} <= mean |exact - IF| {mean_if:.3e} "
        f"over {len(err_if)} deletions",
    )


# --------------------------------------------------------------------------
# Criterion: top-k set equals the all-pairs dominance characterization
# --------------------------------------------------------------------------

def test_topk_dominance_characterization_suite():
    rng = np.random.Generator(np.random.PCG64(424242))
    for trial in range(1000):
        m = int(rng.integers(2, 9))
        scores = rng.standard_normal(m)
        k = int(rng.integers(1, m))
        chosen = set(ranking(scores).order[:k])
        dominant = None
        for subset in itertools.combinations(range(m), k):
            inside = set(subset)
            outside = set(range(m)) - inside
            if all(scores[i] > scores[j] for i in inside for j in outside):
                dominant = inside
                break
        assert dominant is not None, f"trial {trial}: no dominant subset (unexpected tie)"
        assert chosen == dominant, f"trial {trial}: {chosen} != {dominant}"
    _pass("topk-dominance", "- 1000 random score vectors, exact set equality")


# --------------------------------------------------------------------------
# Criterion: closed-form two-player fixtures
# --------------------------------------------------------------------------

def test_closed_form_fixtures():
    arena31 = two_player_arena(3, 1)
    bt31 = fit(arena31, options=RIDGELESS)
    assert abs(bt31.scores[0] - bt31.scores[1] - np.log(3.0)) <= 1e-8

    arena22 = two_player_arena(2, 2)
    bt22 = fit(arena22, options=RIDGELESS)
    assert abs(bt22.scores[0] - bt22.scores[1]) <= 1e-8

    bt_default = fit(arena31)
    result = min_drop_search(arena31, bt_default, 0, 1, max_budget=4)
    assert result.found and result.count == 3
    oracle = brute_force_pair(arena31, 0, 1, 3, options=bt_default.options)
    assert oracle.flip_exists and len(oracle.minimal_subset) == 3

    # Strictness: a refit landing on an exact tie is not a flip.
    refit = refit_without(arena22, bt22.options, [0, 2])
    assert refit.scores[0] == refit.scores[1]
    assert not (refit.scores[0] < refit.scores[1])
    _pass("closed-form-fixtures", "- log 3 gap, zero gap, min-drop 3, strict tie handling")


# --------------------------------------------------------------------------
# Criterion: 50k-matchup, 60-model audit wall clock
# --------------------------------------------------------------------------

def test_performance_topk_on_50k_arena():
    spec = _big_spec(9001, n_models=60, n_matchups=50_000)
    arena = generate(spec)
    assert arena.n_matchups == 50_000 and arena.n_models == 60

    start = time.perf_counter()
    bt = fit(arena)
    assert bt.converged
    budget = DropBudget(count=10)
    tk1 = check_topk(arena, bt, 1, budget)
    tk5 = check_topk(arena, bt, 5, budget)
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0, f"top-1 and top-5 audits took {elapsed:.1f}s"
    _pass(
        "performance-50k",
        f"- fit + top-1 + top-5 in {elapsed:.1f}s "
        f"(top-1 {'robust' if tk1.robust else 'non-robust'} after {tk1.pairs_checked} pairs, "
        f"top-5 {'robust' if tk5.robust else 'non-robust'} after {tk5.pairs_checked} pairs)",
    )


# --------------------------------------------------------------------------
# Criterion: near-linear audit cost in N (refits excluded)
# --------------------------------------------------------------------------

def _one_audit_seconds(arena, bt, pair) -> float:
    budget = DropBudget(count=5)
    t0 = time.perf_counter()
    rep = check_pair(arena, bt, pair[0], pair[1], budget, always_refit=False)
    elapsed = time.perf_counter() - t0
    assert not rep.refit_performed  # timing excludes refits by construction
    return elapsed


def test_complexity_linear_in_n():
    m = 20
    sizes = (10_000, 80_000)
    setups = []
    for n in sizes:
        arena = generate(_big_spec(7000 + n, n_models=m, n_matchups=n, spread=2.5))
        bt = fit(arena)
        order = ranking(bt).order
        pair = (order[0], order[-1])  # widest gap: never predicts a flip at count 5
        _one_audit_seconds(arena, bt, pair)  # warm-up; builds the cached factorization
        setups.append((arena, bt, pair))
    # Interleave the sizes and keep each size's minimum: scheduler bursts then
    # hit both measurements alike, leaving the deterministic per-audit cost.
    costs = [np.inf, np.inf]
    for _ in range(40):
        for idx, (arena, bt, pair) in enumerate(setups):
            costs[idx] = min(costs[idx], _one_audit_seconds(arena, bt, pair))
    factor = costs[1] / costs[0]
    assert factor <= 10.0, f"8x data grew audit time {factor:.1f}x (costs {costs})"
    _pass(
        "complexity-linear",
        f"- one audit: {costs[0] * 1e3:.2f} ms at N=10k, {costs[1] * 1e3:.2f} ms at N=80k "
        f"(factor {factor:.2f} <= 10 for 8x data)",
    )


# --------------------------------------------------------------------------
# Criterion (best-effort, data-dependent, non-gating): published-table reproduction
# --------------------------------------------------------------------------

def test_table1_reproduction_when_datasets_present():
    data_dir = os.environ.get("BTAUDIT_DATA_DIR")
    manifest_path = Path(data_dir or ".") / "table1.json"
    if not data_dir or not manifest_path.exists():
        pytest.skip(
            "BTAUDIT_DATA_DIR with table1.json not provided; "
            "data-dependent criterion, not gating"
        )
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    for row in manifest:
        arena = ingest(Path(data_dir) / row["file"], SCHEMA_PRESETS[row["schema"]])
        bt = fit(arena, options=RIDGELESS)
        if not bt.converged:
            bt = fit(arena)  # separation without ridge; fall back to the default
        first, second = ranking(bt).order[:2]
        expected = int(row["num_dropped"])
        result = min_drop_search(arena, bt, first, second, max_budget=expected)
        assert result.found and result.count <= expected, (
            f"{row['file']}: found {result.count}, published {expected}"
        )
        from btaudit import head_to_head

        h2h = head_to_head(arena, first, second)
        assert abs(100.0 * h2h.win_percent - float(row["win_percent"])) <= 0.1
        print(f"{row['file']}: {result.count} of {arena.n_matchups} "
              f"(published {expected} of {row['total']})")
    _pass("table1-reproduction")
