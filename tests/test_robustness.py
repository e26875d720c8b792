import numpy as np
import pytest

from btaudit import (
    Arena,
    DropBudget,
    PairInfluence,
    SolverOptions,
    brute_force_pair,
    check_pair,
    check_topk,
    fit,
    generate,
    involvement_composition,
    min_drop_search,
    pair_influence,
    random_spec,
    ranking,
    refit_without,
    select_drop_set,
    top_k_set,
)
from btaudit import robustness as robustness_mod
from btaudit.robustness import reverses
from conftest import round_robin_spec, two_player_arena


def test_drop_budget_resolution():
    assert DropBudget(alpha=0.25).resolve(16) == 4
    assert DropBudget(count=3).resolve(100) == 3
    assert DropBudget(alpha=0.0001).label() == "alpha=0.0001"
    with pytest.raises(ValueError, match="zero drops"):
        DropBudget(alpha=0.001).resolve(10)
    with pytest.raises(ValueError, match="all"):
        DropBudget(count=10).resolve(10)
    with pytest.raises(ValueError):
        DropBudget()
    with pytest.raises(ValueError):
        DropBudget(alpha=0.1, count=2)
    with pytest.raises(ValueError):
        DropBudget(alpha=1.5)


def test_select_drop_set_empty_when_nothing_helps():
    pi = PairInfluence(pair=(0, 1), scores=np.array([-1.0, -2.0, -0.5]),
                       method="if", mode="derivative")
    assert select_drop_set(pi, 2).size == 0


def test_select_drop_set_orders_most_helpful_first():
    pi = PairInfluence(pair=(0, 1), scores=np.array([0.1, 3.0, -1.0, 2.0]),
                       method="if", mode="derivative")
    chosen = select_drop_set(pi, 3)
    assert list(chosen) == [1, 3, 0]


def test_select_drop_set_breaks_ties_by_lower_index():
    scores = np.array([1.0, 2.0, 2.0, 2.0, 0.5])
    pi = PairInfluence(pair=(0, 1), scores=scores, method="if", mode="derivative")
    assert list(select_drop_set(pi, 2)) == [1, 2]
    assert list(select_drop_set(pi, 3)) == [1, 2, 3]


def test_select_single_drop_on_lopsided_arena(arena_3_1):
    bt = fit(arena_3_1)
    pi = pair_influence(bt, 0, 1)
    chosen = select_drop_set(pi, 1)
    assert chosen.size == 1
    assert chosen[0] in (0, 1, 2)  # only dropping a leader win shrinks the gap


def test_check_pair_robust_at_budget_one(arena_3_1):
    from conftest import RIDGELESS

    bt = fit(arena_3_1, options=RIDGELESS)
    rep = check_pair(arena_3_1, bt, 0, 1, DropBudget(count=1), always_refit=True)
    assert rep.verdict == "robust"
    assert rep.refit_performed and not rep.refit_flip
    assert rep.gap_after == pytest.approx(np.log(2.0), abs=1e-8)
    assert len(rep.dropped) <= 1


def test_check_pair_flips_at_budget_three(arena_3_1):
    bt = fit(arena_3_1)
    # The first-order prediction understates this flip; the forced refit settles it.
    rep = check_pair(arena_3_1, bt, 0, 1, DropBudget(count=3), always_refit=True)
    assert rep.verdict == "non-robust"
    assert sorted(rep.dropped) == [0, 1, 2]
    assert rep.refit_flip and rep.gap_after < 0
    assert rep.scores_after is not None


def test_newton_method_predicts_the_budget_three_flip(arena_3_1):
    bt = fit(arena_3_1)
    rep = check_pair(arena_3_1, bt, 0, 1, DropBudget(count=3), method="newton")
    assert rep.predicted_flip  # leverage correction is enough to trigger the refit
    assert rep.verdict == "non-robust"


def test_equality_after_drop_is_not_a_flip(arena_2_2):
    bt = fit(arena_2_2)
    refit = refit_without(arena_2_2, bt.options, [0, 2])  # one win each side removed
    assert refit.scores[0] == refit.scores[1]
    assert not (refit.scores[0] < refit.scores[1])  # strict reversal required


def test_orientation_normalization(arena_3_1):
    bt = fit(arena_3_1)
    budget = DropBudget(count=2)
    fwd = check_pair(arena_3_1, bt, 0, 1, budget, always_refit=True)
    rev = check_pair(arena_3_1, bt, 1, 0, budget, always_refit=True)
    assert fwd.pair == rev.pair == (0, 1)
    assert fwd.dropped == rev.dropped
    assert fwd.verdict == rev.verdict
    assert fwd.scores_before[0] >= fwd.scores_before[1]


def test_check_pair_skips_refit_when_selection_empty(arena_3_1, monkeypatch):
    bt = fit(arena_3_1)
    monkeypatch.setattr(robustness_mod, "select_drop_set",
                        lambda pi, budget: np.array([], dtype=np.int64))
    rep = check_pair(arena_3_1, bt, 0, 1, DropBudget(count=2), always_refit=True)
    assert not rep.refit_performed
    assert not rep.predicted_flip
    assert rep.verdict == "robust"
    assert rep.predicted_delta == 0.0


def test_no_false_positive_reproduces_bitwise(arena_3_1):
    bt = fit(arena_3_1)
    rep = check_pair(arena_3_1, bt, 0, 1, DropBudget(count=3), always_refit=True)
    assert rep.verdict == "non-robust"
    rerun = refit_without(arena_3_1, bt.options, rep.dropped)
    assert (float(rerun.scores[rep.pair[0]]), float(rerun.scores[rep.pair[1]])) == rep.scores_after
    assert rerun.scores[rep.pair[0]] < rerun.scores[rep.pair[1]]


def test_degenerate_refit_withholds_verdict():
    # The challenger's only data are two losses to the leader; dropping them
    # leaves it unidentified, so the verdict is withheld.
    arena = Arena.from_records(
        ["ref", "leader", "camper"],
        [(1, 0, 1), (1, 0, 1), (0, 1, 1), (0, 1, 1), (1, 2, 1), (1, 2, 1)],
    )
    bt = fit(arena)
    rep = check_pair(arena, bt, 1, 2, DropBudget(count=2), always_refit=True)
    assert rep.dropped == (4, 5)
    assert rep.degenerate
    assert rep.verdict == "degenerate"
    assert 2 in rep.refit_unidentified


def test_budget_cap_respected():
    spec = random_spec(77, n_models=4, target_matchups=24)
    arena = generate(spec)
    bt = fit(arena)
    for count in (1, 2, 5):
        rep = check_pair(arena, bt, 0, 1, DropBudget(count=count), always_refit=True)
        assert len(rep.dropped) <= count


def test_check_topk_all_robust_checks_every_pair():
    arena = Arena.from_records(
        ["mid", "strong", "weak"],
        [(1, 0, 1)] * 8 + [(0, 2, 1)] * 8 + [(1, 2, 1)] * 8
        + [(0, 1, 1), (2, 0, 1), (2, 1, 1)],
    )
    bt = fit(arena)
    tk = check_topk(arena, bt, 1, DropBudget(count=1))
    assert tk.robust
    assert tk.pairs_checked == tk.pairs_total == 2  # k(M-k)
    assert tk.offending_pair is None and tk.dropped == ()
    # the first pair checked is the closest-ranked one across the boundary
    order = ranking(bt).order
    assert tk.per_pair[0].pair == (order[0], order[1])


def test_check_topk_early_termination_and_offender():
    # ranks 1-2 nearly tied, third far behind
    arena = Arena.from_records(
        ["a", "b", "c"],
        [(0, 1, 1)] * 5 + [(0, 1, 0)] * 4 + [(0, 2, 1)] * 8 + [(1, 2, 1)] * 8,
    )
    bt = fit(arena)
    tk = check_topk(arena, bt, 1, DropBudget(count=3), always_refit=True)
    assert not tk.robust
    assert tk.pairs_checked == 1  # stops on the first verified flip
    assert tk.offending_pair[0] in top_k_set(bt, 1)
    assert tk.offending_pair[1] not in top_k_set(bt, 1)
    assert 0 < len(tk.dropped) <= 3
    # the refit behind the verdict really changes the top-k set
    refit = refit_without(arena, bt.options, tk.dropped)
    assert top_k_set(refit, 1) != top_k_set(bt, 1)


def test_min_drop_search_finds_three(arena_3_1):
    bt = fit(arena_3_1)
    result = min_drop_search(arena_3_1, bt, "alpha", "beta", max_budget=4)
    assert result.found and result.count == 3
    assert result.report.verdict == "non-robust"
    assert result.budgets_tried == 3
    oracle = brute_force_pair(arena_3_1, 0, 1, 3, options=bt.options)
    assert oracle.flip_exists and len(oracle.minimal_subset) == 3


def test_min_drop_not_found_marker():
    arena = two_player_arena(9, 1)
    bt = fit(arena)
    result = min_drop_search(arena, bt, 0, 1, max_budget=1)
    assert not result.found
    assert result.count is None
    assert result.report is not None and result.report.verdict == "robust"
    with pytest.raises(ValueError, match="strategy"):
        min_drop_search(arena, bt, 0, 1, max_budget=1, strategy="bisect")


def test_min_drop_monotone_against_verified_flips():
    for seed in range(40, 52):
        spec = random_spec(seed, target_matchups=18)
        arena = generate(spec)
        bt = fit(arena)
        first, second = ranking(bt).order[:2]
        rep = check_pair(arena, bt, first, second, DropBudget(count=3), always_refit=True)
        if rep.verdict != "non-robust":
            continue
        result = min_drop_search(arena, bt, first, second, max_budget=3)
        assert result.found and result.count <= 3


def test_oracle_containment_on_small_arenas():
    # One-sided guarantee: the oracle finding no flip forces a robust verdict.
    misses = 0
    checked = 0
    for seed in range(60, 90):
        budget = 1 + seed % 2
        spec = random_spec(seed, target_matchups=14)
        arena = generate(spec)
        bt = fit(arena)
        first, second = ranking(bt).order[:2]
        rep = check_pair(arena, bt, first, second, DropBudget(count=budget), always_refit=True)
        oracle = brute_force_pair(arena, first, second, budget)
        checked += 1
        if not oracle.flip_exists:
            assert rep.verdict != "non-robust"
        elif rep.verdict != "non-robust":
            misses += 1
    assert checked == 30
    print(f"\noracle containment: {checked} arenas, {misses} prediction misses (reported, allowed)")


def test_involvement_composition_cases(arena_3_1):
    bt = fit(arena_3_1)
    rep = check_pair(arena_3_1, bt, 0, 1, DropBudget(count=3), always_refit=True)
    assert involvement_composition(rep, arena_3_1) == (1.0, 0.0, 0.0)

    arena = Arena.from_records(
        ["ref", "i", "j", "x"],
        [(1, 0, 1), (1, 0, 1), (2, 0, 1), (1, 3, 0), (3, 0, 1), (0, 3, 1)],
    )
    bt2 = fit(arena)
    from dataclasses import replace

    base = check_pair(arena, bt2, 1, 2, DropBudget(count=2), always_refit=True)
    one_sided = replace(base, dropped=(0, 3))  # i-vs-ref and i-vs-x games
    assert involvement_composition(one_sided, arena) == (0.0, 1.0, 0.0)
    neither = replace(base, dropped=(4, 5))  # x-vs-ref games
    assert involvement_composition(neither, arena) == (0.0, 0.0, 1.0)
    mixed = replace(base, dropped=(0, 4))
    both, one, none = involvement_composition(mixed, arena)
    assert both + one + none == pytest.approx(1.0)
    with pytest.raises(ValueError, match="no dropped"):
        involvement_composition(replace(base, dropped=()), arena)


def test_reports_carry_head_counts_and_fraction(arena_3_1):
    bt = fit(arena_3_1)
    rep = check_pair(arena_3_1, bt, 0, 1, DropBudget(count=3), always_refit=True)
    assert rep.n_matchups == 4
    assert rep.dropped_fraction == pytest.approx(0.75)
    assert rep.pair_names == ("alpha", "beta")


def test_check_pair_rejects_same_model(arena_3_1):
    bt = fit(arena_3_1)
    with pytest.raises(ValueError, match="distinct"):
        check_pair(arena_3_1, bt, 1, 1, DropBudget(count=1))


def test_topk_first_pair_is_boundary_pair():
    spec = round_robin_spec(91, n_models=5, games_per_pair=4)
    arena = generate(spec)
    bt = fit(arena)
    for k in (1, 2, 3):
        tk = check_topk(arena, bt, k, DropBudget(count=1))
        order = ranking(bt).order
        assert tk.per_pair[0].pair == (order[k - 1], order[k])


def test_refit_gap_within_rounding_is_a_tie():
    # Oracle-sweep arena (seed 612, index 203). Dropping matchup 2 leaves m3 and
    # m2 symmetric; the refit gap is a few 1e-17 of either sign, depending on
    # rounding. Both the check and the oracle must read it as a tie.
    records = [(0, 1, 1), (1, 2, 0), (2, 3, 0), (3, 4, 1), (3, 2, 0), (2, 0, 0),
               (0, 4, 0), (4, 3, 0), (2, 1, 0), (4, 3, 1), (1, 4, 1), (4, 1, 1),
               (1, 4, 1), (2, 1, 1), (3, 2, 0), (2, 3, 0), (0, 3, 0)]
    arena = Arena.from_records(["m0", "m1", "m2", "m3", "m4"], records)
    bt = fit(arena)
    first, second = ranking(bt).order[:2]
    assert (first, second) == (3, 2)
    rep = check_pair(arena, bt, first, second, DropBudget(count=1), always_refit=True)
    assert rep.dropped == (2,)
    assert abs(rep.gap_after) < 1e-15
    assert rep.verdict == "robust"
    assert not brute_force_pair(arena, first, second, 1).flip_exists


def test_reverses_needs_more_than_rounding():
    eps = np.finfo(float).eps
    assert not reverses(0.3, 0.3)
    assert not reverses(0.3, 0.3 + 4 * eps)
    assert reverses(0.3, 0.3 + 1e-12)
    assert not reverses(1e3, 1e3 + 4 * eps * 1e3)  # the tolerance scales with the scores
    assert reverses(-1.0, 1.0)
