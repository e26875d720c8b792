import dataclasses
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, strategies as st

from btaudit import (
    Arena,
    DropBudget,
    FitError,
    ModelRegistry,
    SolverOptions,
    brute_force_pair,
    check_pair,
    check_topk,
    fit,
    generate,
    influence_scores,
    involvement_composition,
    min_drop_search,
    pair_influence,
    random_spec,
    ranking,
    refit_without,
    select_drop_set,
)
from btaudit import robustness as robustness_mod
from btaudit.influence import _drop_effect_bound, hessian_factor
from btaudit.robustness import reverses
from conftest import bench_inputs, leverage_rows, round_robin_spec, two_player_arena


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
    for bad in (1.7, True, "1", 2.0):
        with pytest.raises(ValueError, match="count must be an integer"):
            DropBudget(count=bad)
    for bad in ("0.5", 0.5j, [0.5]):
        with pytest.raises(ValueError, match="alpha must be a number"):
            DropBudget(alpha=bad)
    assert DropBudget(count=np.int64(3)).resolve(100) == 3
    # alpha is read as the decimal it prints as: these float products fall
    # just below the whole number and must not lose a drop.
    assert 0.0003 * 10_000 < 3 and DropBudget(alpha=0.0003).resolve(10_000) == 3
    assert DropBudget(alpha=0.29).resolve(100) == 29
    assert DropBudget(alpha=0.57).resolve(100) == 57
    assert DropBudget(alpha=1e-4).resolve(20_000) == 2
    assert DropBudget(alpha=np.float64(0.29)).resolve(100) == 29
    assert DropBudget(alpha=0.0299).resolve(100) == 2


def test_cached_alpha_counts_equal_the_decimal_formula():
    # Each (alpha, N) is resolved once and served from a cache after that; every
    # resolution, first or repeated, must be floor(alpha * N) with alpha read as
    # the decimal it prints as.
    from fractions import Fraction

    alphas = [0.0003, 1e-4, 2e-4, 0.0299, 0.25, 0.29, 0.57, 0.1 + 0.2, 0.999]
    sizes = [1_000, 7_001, 10_000, 20_000, 333_333, 2_000_000]
    for _ in range(2):
        for alpha in alphas:
            for n in sizes:
                want = int(Fraction(repr(alpha)) * n)
                if not 1 <= want <= n - 1:
                    continue
                assert DropBudget(alpha=alpha).resolve(n) == want
                assert DropBudget(alpha=np.float64(alpha)).resolve(np.int64(n)) == want
    assert DropBudget(alpha=0.0003).resolve(10_000) == 3
    with pytest.raises(ValueError, match="zero drops"):
        DropBudget(alpha=0.0003).resolve(3_000)


def _classwise(arena, row_scores, empty=10.0):
    """Class scores that gather to ``row_scores``; empty classes get ``empty``."""
    cells = arena.cells
    class_scores = np.full(2 * cells.n_cells, empty)
    class_scores[cells.row_class] = row_scores
    assert np.array_equal(class_scores[cells.row_class], row_scores)  # one score per class
    return class_scores


def test_select_drop_set_empty_when_nothing_helps():
    arena = Arena.from_records(["a", "b", "c"], [(0, 1, 1), (1, 2, 1), (0, 2, 0)])
    pi = _classwise(arena, [-1.0, -2.0, -0.5])
    assert select_drop_set(pi, arena.cells, 2).size == 0


def test_select_drop_set_refuses_a_count_that_is_not_a_positive_integer():
    # numpy's partition would raise its own error for 0 and -1, read True as 1,
    # and refuse 1.5 with a TypeError.
    arena = Arena.from_records(["a", "b", "c"], [(0, 1, 1), (1, 2, 1), (0, 2, 0)])
    pi = _classwise(arena, [1.0, 2.0, 0.5])
    for count in (0, -1):
        with pytest.raises(ValueError, match="^count must be at least 1$"):
            select_drop_set(pi, arena.cells, count)
    for count in (True, 1.5, "1", None):
        with pytest.raises(ValueError, match="^count must be an integer"):
            select_drop_set(pi, arena.cells, count)
    assert list(select_drop_set(pi, arena.cells, np.int64(1))) == [1]


def test_select_drop_set_orders_most_helpful_first():
    # Four matchups in four classes; the two empty classes score highest and
    # must still never be chosen.
    arena = Arena.from_records(["a", "b", "c"], [(0, 1, 1), (0, 2, 1), (1, 2, 1), (0, 1, 0)])
    pi = _classwise(arena, [0.1, 3.0, -1.0, 2.0])
    assert list(select_drop_set(pi, arena.cells, 3)) == [1, 3, 0]


def test_select_drop_set_breaks_ties_by_lower_index():
    # Matchups 1 and 3 share a class ("a beats c" in both seat orders);
    # matchup 2 is another class with the same score.
    arena = Arena.from_records(
        ["a", "b", "c"], [(0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 0, 0), (1, 0, 1)]
    )
    pi = _classwise(arena, [1.0, 2.0, 2.0, 2.0, 0.5])
    assert list(select_drop_set(pi, arena.cells, 1)) == [1]
    assert list(select_drop_set(pi, arena.cells, 2)) == [1, 2]
    assert list(select_drop_set(pi, arena.cells, 3)) == [1, 2, 3]
    assert list(select_drop_set(pi, arena.cells, 4)) == [1, 2, 3, 0]


def test_select_drop_set_interleaves_tied_classes_by_index():
    # 15 cells of 6 models, each class holding 4 rows spread over the arena;
    # most classes tie, so the tied rows must be merged by index, not listed
    # class after class.
    pairs = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    records = [(a, b, 1) for a, b in pairs] * 3 + [(b, a, 0) for a, b in pairs]
    arena = Arena.from_records([f"m{k}" for k in range(6)], records)
    row_scores = np.array([2.0 if n % 15 in (3, 11) else 1.0 for n in range(len(records))])
    pi = _classwise(arena, row_scores)
    positive = sorted((-row_scores[n], n) for n in range(len(records)))
    for count in range(1, len(records)):
        assert list(select_drop_set(pi, arena.cells, count)) == [n for _, n in positive[:count]]


@given(data=st.data())
def test_select_drop_set_matches_sorted_reference(data):
    # Random rows over 3-5 models, so classes hold several rows, and class
    # scores from a few values, so scores tie across classes. Reference: every
    # positive row score, largest first, ties to the lower index.
    m = data.draw(st.integers(3, 5))
    model = st.integers(0, m - 1)
    records = data.draw(
        st.lists(st.tuples(model, model, st.integers(0, 1)).filter(lambda r: r[0] != r[1]),
                 min_size=1, max_size=30)
    )
    arena = Arena.from_records([f"m{k}" for k in range(m)], records)
    cells = arena.cells
    value = st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.5, 2.0]) | st.floats(-3, 3)
    class_scores = np.array(
        data.draw(st.lists(value, min_size=2 * cells.n_cells, max_size=2 * cells.n_cells))
    )
    s = class_scores[cells.row_class]
    positive = sorted((-s[n], n) for n in range(arena.n_matchups) if s[n] > 0.0)
    for count in range(1, arena.n_matchups + 1):
        assert list(select_drop_set(class_scores, cells, count)) == [n for _, n in positive[:count]]


def test_select_single_drop_on_lopsided_arena(arena_3_1):
    bt = fit(arena_3_1)
    pi = pair_influence(bt, 0, 1)
    chosen = select_drop_set(pi, arena_3_1.cells, 1)
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
                        lambda scores, cells, count: np.array([], dtype=np.int64))
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


def test_unconverged_refit_withholds_verdict(arena_3_1, monkeypatch):
    # The same refits, reported as stopped short of their tolerance: their
    # scores still flip the pair, but no verdict may rest on them.
    bt = fit(arena_3_1)
    assert check_pair(arena_3_1, bt, 0, 1, DropBudget(count=3),
                      always_refit=True).verdict == "non-robust"

    def unconverged(arena, options, drop_indices):
        return dataclasses.replace(refit_without(arena, options, drop_indices), converged=False)

    monkeypatch.setattr(robustness_mod, "refit_without", unconverged)
    rep = check_pair(arena_3_1, bt, 0, 1, DropBudget(count=3), always_refit=True)
    assert rep.refit_performed and rep.refit_flip and rep.refit_converged is False
    assert rep.degenerate and rep.verdict == "degenerate"

    tk = check_topk(arena_3_1, bt, 1, DropBudget(count=3), always_refit=True)
    assert tk.robust and tk.offending_pair is None and tk.dropped == ()
    assert tk.degenerate_pairs == ((0, 1),)

    result = min_drop_search(arena_3_1, bt, 0, 1, max_budget=3)
    assert not result.found and result.count is None
    assert result.budgets_tried == 3
    assert result.report.verdict == "degenerate"


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
    top_1 = set(ranking(bt).order[:1])
    assert tk.offending_pair[0] in top_1
    assert tk.offending_pair[1] not in top_1
    assert 0 < len(tk.dropped) <= 3
    # the refit behind the verdict really changes the top-k set
    refit = refit_without(arena, bt.options, tk.dropped)
    assert set(ranking(refit).order[:1]) != top_1
    for k in (0, 3):  # k must leave a model on each side: 1 <= k < M
        with pytest.raises(ValueError, match="k must satisfy"):
            check_topk(arena, bt, k, DropBudget(count=3))


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


def _assert_stored_formulas(rep, always_refit):
    """The derived report fields equal the formulas that filled them in when they were stored."""
    ia, ib = rep.pair
    predicted_flip = bool(rep.scores_before[0] - rep.scores_before[1] + rep.predicted_delta < 0.0)
    refit_performed = bool(rep.dropped) and (predicted_flip or always_refit)
    refit_flip = refit_performed and reverses(*rep.scores_after)
    degenerate = refit_performed and (
        ia in rep.refit_unidentified or ib in rep.refit_unidentified or not rep.refit_converged
    )
    assert rep.budget_count == rep.budget.resolve(rep.n_matchups)
    assert rep.predicted_flip is predicted_flip
    assert rep.refit_performed is refit_performed
    assert rep.refit_flip is refit_flip
    assert rep.degenerate is degenerate
    if not refit_performed:
        assert rep.scores_after is None and rep.refit_unidentified == ()
        assert rep.refit_converged is None and rep.refit_iterations is None
    if degenerate:
        assert rep.verdict == "degenerate"
    else:
        assert rep.verdict == ("non-robust" if refit_performed and refit_flip else "robust")


def test_min_drop_monotone_against_verified_flips():
    # Also checks the invariants that the derived top-k and min-drop outcomes rest on. In
    # the last arena the closest top-1 pair (a, b) is robust and the next one, (a, c), flips.
    arenas = [generate(random_spec(seed, target_matchups=18)) for seed in range(40, 52)]
    arenas.append(Arena.from_records(
        ["a", "b", "c"], [(0, 1, 1)] * 60 + [(0, 1, 0)] * 40 + [(2, 1, 1)] + [(2, 1, 0)] * 2
    ))
    verdicts = set()
    late_offenders = 0
    for arena in arenas:
        bt = fit(arena)
        first, second = ranking(bt).order[:2]
        for method in ("if", "newton"):
            for always_refit in (False, True):
                for k in range(1, arena.n_models):
                    tk = check_topk(arena, bt, k, DropBudget(count=3), method=method,
                                    always_refit=always_refit)
                    for rep in tk.per_pair:
                        _assert_stored_formulas(rep, always_refit)
                        verdicts.add(rep.verdict)
                    # the audit stops at the first non-robust pair
                    assert all(r.verdict != "non-robust" for r in tk.per_pair[:-1])
                    offending = tk.per_pair[-1] if tk.per_pair[-1].verdict == "non-robust" else None
                    assert tk.robust is (offending is None)
                    assert tk.offending_pair == (offending.pair if offending else None)
                    assert tk.dropped == (offending.dropped if offending else ())
                    assert tk.pairs_checked == len(tk.per_pair)
                    assert tk.pairs_total == k * (arena.n_models - k)
                    assert tk.degenerate_pairs == tuple(r.pair for r in tk.per_pair if r.degenerate)
                    assert tk.budget_count == DropBudget(count=3).resolve(arena.n_matchups)
                    late_offenders += offending is not None and tk.pairs_checked > 1
            result = min_drop_search(arena, bt, first, second, max_budget=3, method=method)
            _assert_stored_formulas(result.report, True)
            assert result.found is (result.report.verdict == "non-robust")
            assert (result.count == result.report.budget_count) is result.found
            assert result.count == (result.budgets_tried if result.found else None)
            rep = check_pair(arena, bt, first, second, DropBudget(count=3), method=method,
                             always_refit=True)
            if rep.verdict == "non-robust":
                assert result.found and result.count <= 3
    assert verdicts == {"robust", "non-robust"} and late_offenders


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


def test_audits_reject_a_fit_of_another_arena():
    # A fit's drop sets are row numbers of its own arena; refitting another
    # arena without them would report drops of rows it never selected.
    a1 = generate(random_spec(3, n_models=4, target_matchups=40))
    a2 = generate(random_spec(4, n_models=4, target_matchups=25))
    bt1 = fit(a1)
    top1, top2 = ranking(bt1).order[:2]
    twin = generate(random_spec(3, n_models=4, target_matchups=40))  # equal, not the same
    for other in (a2, twin):
        with pytest.raises(ValueError, match="another arena"):
            check_pair(other, bt1, top1, top2, DropBudget(count=2), always_refit=True)
        with pytest.raises(ValueError, match="another arena"):
            check_topk(other, bt1, 1, DropBudget(count=2))
        with pytest.raises(ValueError, match="another arena"):
            min_drop_search(other, bt1, top1, top2, max_budget=5)
    assert bt1._cache == {}  # rejected before any work
    rep = check_pair(a1, bt1, top1, top2, DropBudget(count=2), always_refit=True)
    assert rep.n_matchups == a1.n_matchups


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
    assert type(reverses(1.0, 2.0)) is bool
    assert not reverses(0.3, 0.3)
    assert not reverses(0.3, 0.3 + 4 * eps)
    assert reverses(0.3, 0.3 + 1e-12)
    assert not reverses(1e3, 1e3 + 4 * eps * 1e3)  # the tolerance scales with the scores
    assert reverses(-1.0, 1.0)


def test_array_tie_rule_matches_reverses_element_by_element():
    eps = np.finfo(float).eps
    values = [0.0, -0.0, 1e-300, -1e-300, 0.3, -0.3, 0.3 + 4 * eps, 0.3 + 1e-12, 0.999, 1.0,
              -1.0, 1.0 + 8 * eps, 1.0 + 16 * eps, 5.0, 5.0 + 8 * 5 * eps, 5.0 + 64 * 5 * eps, -7.5,
              20.0, 20.0 + 1e-13]
    lead, chase = (a.ravel() for a in np.meshgrid(values, values))
    got = robustness_mod._reversed(lead, chase)
    assert got.dtype == bool
    want = [reverses(float(x), float(y)) for x, y in zip(lead, chase)]
    assert got.tolist() == want
    # The rule as it was stated on scalars.
    tol = robustness_mod._TIE_TOLERANCE
    assert want == [x - y < -tol * max(1.0, abs(x), abs(y)) for x, y in zip(lead.tolist(), chase.tolist())]
    assert any(want) and not all(want)
    assert not robustness_mod._reversed(np.array([0.0, -0.0, 0.3]), np.array([-0.0, 0.0, 0.3])).any()


def test_budget_labels_tell_apart_alphas_that_resolve_apart():
    # 1/3 and 0.3333333 print alike under six significant digits, but drop
    # different counts at large N; the label is the decimal that resolves.
    third, near = DropBudget(alpha=1 / 3), DropBudget(alpha=0.3333333)
    assert third.resolve(300_000_000) != near.resolve(300_000_000)
    assert third.label() == "alpha=0.3333333333333333"
    assert near.label() == "alpha=0.3333333"
    assert DropBudget(alpha=np.float64(0.25)).label() == "alpha=0.25"
    for alpha in (0.001, 0.0002, 1e-05, 2.5e-07, 0.05, 0.123456, 0.5):
        assert DropBudget(alpha=alpha).label() == f"alpha={alpha:g}"


def test_select_drop_set_matches_sorted_reference_at_scale():
    # 20k rows over 60 models: thousands of classes, many holding several rows.
    # Counts 1 and 2 keep a few classes, 30 and 1,000 keep many; each drop set
    # is checked against a per-matchup sort.
    side_a, side_b, a_won = bench_inputs().big_arena(651, 60, 20_000)
    arena = Arena(ModelRegistry([f"m{k}" for k in range(60)]), side_a, side_b, a_won)
    bt = fit(arena)
    order = ranking(bt).order
    pairs = [(order[0], order[1]), (order[9], order[10]), (order[0], order[59]), (order[45], order[3])]
    for method in ("if", "newton"):
        for a, b in pairs:
            pi = pair_influence(bt, a, b, method=method)
            s = pi[arena.cells.row_class].tolist()
            positive = sorted((-s[n], n) for n in range(len(s)) if s[n] > 0.0)
            for count in (1, 2, 30, 1_000):
                expected = [n for _, n in positive[:count]]
                assert select_drop_set(pi, arena.cells, count).tolist() == expected


def test_concurrent_topk_audits_on_one_fit_match_serial():
    arena = generate(random_spec(67, n_models=6, target_matchups=120))
    jobs = [(k, DropBudget(count=c), method)
            for k in (1, 2, 3) for c in (1, 4) for method in ("if", "newton")]
    serial_fit = fit(arena)
    serial = [check_topk(arena, serial_fit, k, b, method=m, always_refit=True) for k, b, m in jobs]
    shared = fit(arena)  # no factor yet: the threads race to build it
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the memo's fill too
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(
                lambda job: check_topk(arena, shared, job[0], job[1], method=job[2],
                                       always_refit=True),
                jobs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial
    # The racing threads filled the fit's class-influence memo with exactly
    # the vectors a fresh fit computes.
    memo = shared._cache["class_influence"]
    lone = fit(arena)
    assert sorted(memo) == list(range(arena.n_models))
    for t, scores in memo.items():
        influence_scores(lone, t)
        assert scores.tobytes() == lone._cache["class_influence"][t].tobytes()


def test_saturated_warning_once_per_newton_pair_influence_in_an_audit(monkeypatch):
    # As in the influence tests: a raised threshold makes ordinary matchups
    # count as saturated, so every Newton pair influence warns, memo or not.
    import btaudit.influence as influence_mod

    arena = generate(random_spec(5, n_models=4, target_matchups=30))
    room = 1.0 - leverage_rows(fit(arena))
    monkeypatch.setattr(influence_mod, "_SATURATION", float(np.median(room)))
    bt = fit(arena)
    calls = []
    real = robustness_mod.pair_influence

    def counted(bt, a, b, method="if"):
        calls.append(method)
        return real(bt, a, b, method=method)

    monkeypatch.setattr(robustness_mod, "pair_influence", counted)
    order = ranking(bt).order
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        check_topk(arena, bt, 2, DropBudget(count=1), method="newton")
        min_drop_search(arena, bt, order[0], order[1], max_budget=3, method="newton")
    saturated = [w for w in caught if "saturated leverage" in str(w.message)]
    assert len(calls) > 1 and set(calls) == {"newton"}
    assert len(saturated) == len(calls)


def test_audits_call_each_stage_through_the_module_attributes(monkeypatch):
    # Callers that trace or count the stages of a pair check (the benchmark's
    # spans, its refit ledger) replace these attributes; every pair check of
    # an audit must go through each of them once.
    arena = generate(round_robin_spec(61, n_models=5, games_per_pair=12))
    bt = fit(arena)
    calls = {name: 0 for name in ("check_pair", "pair_influence", "select_drop_set", "refit_without")}

    def counting(name):
        real = getattr(robustness_mod, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(robustness_mod, name, counting(name))
    tk = check_topk(arena, bt, 2, DropBudget(count=2), always_refit=True)
    assert set(calls.values()) == {tk.pairs_checked}
    for name in calls:
        calls[name] = 0
    order = ranking(bt).order
    result = min_drop_search(arena, bt, order[0], order[1], max_budget=4)
    assert set(calls.values()) == {result.budgets_tried}


def _report_bytes(tk):
    """A top-k report with every float as its hex string, so -0.0 and 0.0 differ."""
    return tk, [(r.predicted_delta.hex(), [x.hex() for x in r.scores_before + (r.scores_after or ())])
                for r in tk.per_pair]


def test_warm_audits_on_one_fit_equal_cold_audits():
    # One fit serves every audit, in a shuffled order, so its cached factor,
    # class influence and stored reports serve counts in any order; each
    # report must equal the one from a fresh fit.
    budgets = [DropBudget(count=c) for c in (1, 2, 3, 5, 12)]
    budgets += [DropBudget(alpha=a) for a in (0.02, 0.25)]
    rng = np.random.default_rng(29)
    for seed in range(70, 78):
        arena = generate(random_spec(seed, n_models=4 + seed % 3, target_matchups=60 + 10 * (seed % 4)))
        jobs = [(k, b, m, refit) for k in range(1, arena.n_models) for b in budgets
                for m in ("if", "newton") for refit in (False, True)]
        warm = fit(arena)
        for i in rng.permutation(len(jobs)):
            k, b, m, refit = jobs[i]
            cold = check_topk(arena, fit(arena), k, b, method=m, always_refit=refit)
            hot = check_topk(arena, warm, k, b, method=m, always_refit=refit)
            assert _report_bytes(hot) == _report_bytes(cold)


def test_checks_on_one_fit_agree_in_either_pair_order_and_refuse_bad_inputs():
    arena = generate(random_spec(71, n_models=5, target_matchups=80))
    bt = fit(arena)
    a, b = ranking(bt).order[1:3]  # a pair the first-order screen leaves to selection
    forward = check_pair(arena, bt, a, b, DropBudget(count=3))
    assert len(forward.dropped) == 3
    assert check_pair(arena, bt, b, a, DropBudget(count=3)) == forward
    assert check_pair(arena, bt, b, a, DropBudget(count=2)).dropped == forward.dropped[:2]
    assert check_pair(arena, bt, a, b, DropBudget(count=3), method="newton").method == "newton"
    # A warm fit still rejects a bad method, and a fit that is not converged
    # (here one sharing the warm fit's cache) still refuses influence.
    with pytest.raises(ValueError, match="method must be"):
        check_pair(arena, bt, a, b, DropBudget(count=1), method="bogus")
    with pytest.raises(ValueError, match="method must be"):
        check_topk(arena, bt, 1, DropBudget(count=1), method="bogus")
    for unconverged in (dataclasses.replace(bt, converged=False),
                        fit(arena, options=SolverOptions(max_iter=1))):
        assert not unconverged.converged
        with pytest.raises(FitError, match="converged"):
            check_pair(arena, unconverged, a, b, DropBudget(count=1))
        with pytest.raises(FitError, match="converged"):
            check_topk(arena, unconverged, 1, DropBudget(count=1))


def _assert_prefixes(scores, cells, largest):
    """Each smaller count's drop set and predicted change are a prefix of the largest's."""
    full = select_drop_set(scores, cells, largest)
    gathered = scores[cells.row_class[full]]
    for count in range(1, largest + 1):
        alone = select_drop_set(scores, cells, count)
        assert full[:count].tolist() == alone.tolist()
        assert float(-gathered[:count].sum()).hex() == float(-scores[cells.row_class[alone]].sum()).hex()
    return full.size


def test_smaller_counts_select_prefixes_of_larger_ones():
    # A tie at the cut: matchups 1 and 3 share a class, and matchup 2 is
    # another class with the same score, so count 2 cuts through the tie.
    arena = Arena.from_records(["a", "b", "c"], [(0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 0, 0), (1, 0, 1)])
    assert _assert_prefixes(_classwise(arena, [1.0, 2.0, 2.0, 2.0, 0.5]), arena.cells, 4) == 4
    # Counts past the eligible set: one helping matchup of three.
    arena = Arena.from_records(["a", "b", "c"], [(0, 1, 1), (1, 2, 1), (0, 2, 0)])
    assert _assert_prefixes(_classwise(arena, [-1.0, 0.5, -0.5]), arena.cells, 2) == 1
    for seed in (81, 82, 83):
        arena = generate(random_spec(seed, n_models=5, target_matchups=90))
        bt = fit(arena)
        for method in ("if", "newton"):
            for a, b in ((0, 1), (1, 0), (2, 4)):
                eligible = _assert_prefixes(pair_influence(bt, a, b, method=method), arena.cells,
                                            arena.n_matchups - 1)
                assert eligible < arena.n_matchups - 1


def test_threads_auditing_one_fit_match_serial():
    # Threads on one fit race to fill and read the same cache entries (the
    # factor, class influence and stored reports) with counts in any order.
    arena = generate(random_spec(73, n_models=6, target_matchups=150))
    budgets = [DropBudget(count=c) for c in (4, 1, 3, 2)] + [DropBudget(alpha=0.03)]
    jobs = [(k, b, m) for b in budgets for k in (1, 2, 3, 4) for m in ("if", "newton")]
    serial = [_report_bytes(check_topk(arena, fit(arena), k, b, method=m)) for k, b, m in jobs]
    shared = fit(arena)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(
                lambda job: _report_bytes(check_topk(arena, shared, job[0], job[1], method=job[2])),
                jobs + jobs[::-1], timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial + serial[::-1]
    assert [_report_bytes(check_topk(arena, shared, k, b, method=m)) for k, b, m in jobs] == serial


def test_audits_refuse_counts_that_are_not_integers():
    # A float count used to fail deep inside with a bare TypeError, and a bool ran as 1.
    arena = generate(random_spec(3, n_models=4, target_matchups=16))
    bt = fit(arena)
    a, b = ranking(bt).order[:2]
    for value in (1.5, 2.0, True, "1", None):
        with pytest.raises(ValueError, match="k must be an integer"):
            check_topk(arena, bt, value, DropBudget(count=1))
        with pytest.raises(ValueError, match="max_budget must be an integer"):
            min_drop_search(arena, bt, a, b, max_budget=value)
        with pytest.raises(ValueError, match="budget must be an integer"):
            brute_force_pair(arena, a, b, value)
        if value is not None:  # a count of None leaves the budget unset
            with pytest.raises(ValueError, match="count must be an integer"):
                DropBudget(count=value)
    # numpy integers stay accepted, and give the same answers as Python ints.
    assert check_topk(arena, bt, np.int64(1), DropBudget(count=1)) == check_topk(
        arena, bt, 1, DropBudget(count=1))
    assert min_drop_search(arena, bt, a, b, max_budget=np.int32(2)) == min_drop_search(
        arena, bt, a, b, max_budget=2)
    assert brute_force_pair(arena, a, b, np.int64(1)) == brute_force_pair(arena, a, b, 1)


def _hex(rep):
    """A pair report with every float as its hex string, so -0.0 and 0.0 differ."""
    return rep, rep.predicted_delta.hex(), [x.hex() for x in rep.scores_before + (rep.scores_after or ())]


def _count_stages(monkeypatch, names=("pair_influence", "select_drop_set", "refit_without")):
    """Replace the pair check's stages with counting wrappers; returns the counts."""
    calls = dict.fromkeys(names, 0)

    def counting(name):
        real = getattr(robustness_mod, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return counted

    for name in names:
        monkeypatch.setattr(robustness_mod, name, counting(name))
    return calls


def test_a_repeat_check_returns_the_stored_report_without_work(monkeypatch):
    # At count 3 the top pair is past the first-order screen but predicts no flip.
    arena = generate(random_spec(75, n_models=5, target_matchups=120))
    bt = fit(arena)
    a, b = ranking(bt).order[:2]
    budget = DropBudget(count=3)
    calls = _count_stages(monkeypatch)
    first = check_pair(arena, bt, a, b, budget)
    assert first.dropped and not first.refit_performed
    assert calls == {"pair_influence": 1, "select_drop_set": 1, "refit_without": 0}
    assert bt._cache["reports"] == {(a, b, budget, "if"): first}
    for _ in range(3):
        assert check_pair(arena, bt, a, b, DropBudget(count=3)) is first
    assert calls == {"pair_influence": 1, "select_drop_set": 1, "refit_without": 0}
    assert _hex(first) == _hex(check_pair(arena, fit(arena), a, b, budget))


def test_a_screened_check_is_stored_without_influence_or_selection(monkeypatch):
    # At count 1 the top pair's gap exceeds the first-order bound: the check
    # reads two rows of the inverse curvature and no class influence.
    arena = generate(random_spec(75, n_models=5, target_matchups=120))
    bt = fit(arena)
    a, b = ranking(bt).order[:2]
    budget = DropBudget(count=1)
    calls = _count_stages(monkeypatch)
    first = check_pair(arena, bt, a, b, budget)
    assert first.dropped == () and first.predicted_flip is False and first.verdict == "robust"
    assert type(first.predicted_delta) is float and -first.predicted_delta == _drop_effect_bound(
        bt, a, b, 1, "if")
    assert calls == {"pair_influence": 0, "select_drop_set": 0, "refit_without": 0}
    assert "class_influence" not in bt._cache
    assert bt._cache["reports"] == {(a, b, budget, "if"): first}
    for _ in range(3):
        assert check_pair(arena, bt, b, a, DropBudget(count=1)) is first
    assert calls == {"pair_influence": 0, "select_drop_set": 0, "refit_without": 0}
    assert _hex(first) == _hex(check_pair(arena, fit(arena), a, b, budget))
    rows, delta, flip = _first_order_reference(arena, bt, first.pair, 1, "if")
    assert rows.size and not flip and first.predicted_delta <= delta


def test_a_check_that_refits_is_never_stored(monkeypatch):
    arena = generate(random_spec(75, n_models=5, target_matchups=120))
    bt = fit(arena)
    a, b = ranking(bt).order[:2]
    budget = next(DropBudget(count=c) for c in range(1, 40)
                  if check_pair(arena, fit(arena), a, b, DropBudget(count=c)).refit_performed)
    calls = _count_stages(monkeypatch, ("refit_without",))
    reports = [check_pair(arena, bt, a, b, budget) for _ in range(3)]
    assert calls["refit_without"] == 3
    assert reports[0] == reports[1] == reports[2] and reports[0].predicted_flip
    assert (a, b, budget, "if") not in bt._cache["reports"]


def test_always_refit_neither_reads_nor_fills_the_report_memo(monkeypatch):
    arena = generate(random_spec(75, n_models=5, target_matchups=120))
    bt = fit(arena)
    a, b = ranking(bt).order[:2]
    calls = _count_stages(monkeypatch, ("refit_without",))
    refit = check_pair(arena, bt, a, b, DropBudget(count=1), always_refit=True)
    check_topk(arena, bt, 2, DropBudget(count=2), always_refit=True)
    assert "reports" not in bt._cache
    # A stored report does not stand in for a refit either.
    stored = check_pair(arena, bt, a, b, DropBudget(count=1))
    assert not stored.refit_performed and refit.refit_performed
    before = calls["refit_without"]
    assert check_pair(arena, bt, a, b, DropBudget(count=1), always_refit=True) == refit
    assert calls["refit_without"] == before + 1


def test_a_count_and_an_alpha_that_resolve_alike_keep_their_own_reports():
    arena = generate(random_spec(75, n_models=5, target_matchups=120))
    bt = fit(arena)
    a, b = ranking(bt).order[:2]
    alpha = DropBudget(alpha=0.025)  # 3 drops, which the first-order screen leaves to selection
    assert alpha.resolve(arena.n_matchups) == 3
    by_alpha = check_pair(arena, bt, a, b, alpha)
    by_count = check_pair(arena, bt, a, b, DropBudget(count=3))
    assert by_count.budget.label() == "count=3" and by_alpha.budget.label() == alpha.label()
    assert by_count.dropped == by_alpha.dropped and by_count.dropped and by_count != by_alpha
    assert check_pair(arena, bt, a, b, alpha) is by_alpha
    assert check_pair(arena, bt, a, b, DropBudget(count=3)) is by_count


def test_report_memo_is_keyed_by_canonical_pair_and_method():
    arena = generate(random_spec(71, n_models=5, target_matchups=80))
    bt = fit(arena)
    a, b = ranking(bt).order[:2]
    budget = DropBudget(count=1)
    forward = check_pair(arena, bt, a, b, budget)
    assert check_pair(arena, bt, b, a, budget) is forward
    assert check_pair(arena, bt, arena.models.names[b], arena.models.names[a], budget) is forward
    newton = check_pair(arena, bt, a, b, budget, method="newton")
    assert newton.method == "newton" and newton is not forward
    assert _hex(newton) == _hex(check_pair(arena, fit(arena), a, b, budget, method="newton"))
    assert sorted(bt._cache["reports"], key=lambda key: key[3]) == [(a, b, budget, "if"),
                                                                  (a, b, budget, "newton")]


def test_a_stored_report_still_passes_the_checks_a_miss_makes():
    arena = generate(random_spec(71, n_models=5, target_matchups=80))
    bt = fit(arena)
    a, b = ranking(bt).order[:2]
    budget = DropBudget(count=1)
    check_pair(arena, bt, a, b, budget)
    unconverged = dataclasses.replace(bt, converged=False)
    assert unconverged._cache is bt._cache and (a, b, budget, "if") in bt._cache["reports"]
    with pytest.raises(FitError, match="converged"):
        check_pair(arena, unconverged, a, b, budget)
    with pytest.raises(FitError, match="converged"):
        check_topk(arena, unconverged, 1, budget)
    twin = generate(random_spec(71, n_models=5, target_matchups=80))  # equal, not the same
    with pytest.raises(ValueError, match="another arena"):
        check_pair(twin, bt, a, b, budget)
    with pytest.raises(ValueError, match="distinct"):
        check_pair(arena, bt, a, a, budget)
    with pytest.raises(KeyError, match="unknown model"):
        check_pair(arena, bt, a, "nobody", budget)


def test_threads_sharing_one_report_memo_match_serial_audits():
    arena = generate(random_spec(77, n_models=6, target_matchups=150))
    budgets = [DropBudget(count=c) for c in (3, 1, 2)] + [DropBudget(alpha=0.02)]
    jobs = [(k, b, m) for b in budgets for k in (1, 2, 3, 4, 5) for m in ("if", "newton")]
    serial = [_report_bytes(check_topk(arena, fit(arena), k, b, method=m)) for k, b, m in jobs]
    shared = fit(arena)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(
                lambda job: _report_bytes(check_topk(arena, shared, job[0], job[1], method=job[2])),
                jobs + jobs[::-1], timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial + serial[::-1]
    memo = shared._cache["reports"]
    assert memo and not any(rep.refit_performed for rep in memo.values())
    for (ia, ib, budget, method), rep in memo.items():
        assert _hex(rep) == _hex(check_pair(arena, fit(arena), ia, ib, budget, method=method))
        assert check_pair(arena, shared, ib, ia, budget, method=method) is rep


def _first_order_reference(arena, bt, pair, count, method):
    """A check's path with no screen: its drop set, predicted change and predicted flip."""
    ia, ib = pair
    scores = pair_influence(bt, ia, ib, method=method)
    rows = select_drop_set(scores, arena.cells, count)
    delta = float(-scores[arena.cells.row_class[rows]].sum()) if rows.size else 0.0
    return rows, delta, float(bt.scores[ia]) - float(bt.scores[ib]) + delta < 0.0


def _assert_screen_sound(arena, bt, count, method):
    """Every pair's check and every top-k audit against the unscreened path.

    Returns (screened checks, checks). The bound holds on every pair, screened or
    not; a screened report predicts no flip, and neither does its reference. A
    top-k audit on a fresh fit gives each pair the verdict, refit and predicted
    flip of that pair's checked report.
    """
    checked, screened = {}, 0
    budget = DropBudget(count=count)
    for a in range(arena.n_models):
        for b in range(a + 1, arena.n_models):
            rep = check_pair(arena, bt, a, b, budget, method=method)
            rows, delta, flip = _first_order_reference(arena, bt, rep.pair, count, method)
            bound = _drop_effect_bound(bt, *rep.pair, count, method)
            assert -delta <= bound
            assert type(rep.predicted_flip) is bool
            if rep.gap_before > bound:
                screened += 1
                assert not flip, (rep.pair, count, method)
                assert rep.dropped == () and rep.predicted_delta == -bound
                assert not rep.predicted_flip and not rep.refit_performed
                assert rep.verdict == "robust"
            else:
                assert rep.dropped == tuple(rows.tolist())
                assert rep.predicted_delta.hex() == delta.hex() and rep.predicted_flip is flip
                assert rep.refit_performed is (flip and rows.size > 0)
            checked[rep.pair] = rep
    cold = fit(arena)
    for k in range(1, arena.n_models):
        for rep in check_topk(arena, cold, k, budget, method=method).per_pair:
            ref = checked[rep.pair]
            assert (rep.verdict, rep.refit_performed, rep.predicted_flip) == (
                ref.verdict, ref.refit_performed, ref.predicted_flip)
    return screened, len(checked)


@pytest.mark.parametrize("method", ["if", "newton"])
def test_the_first_order_screen_settles_no_check_the_full_path_would_flip(method):
    # Bench oracle-sweep arenas (M 2-5, N 12-20) at the counts that fit them, and
    # 3,000-row 20-model bench arenas, where count 20 fits.
    inputs = bench_inputs()
    arenas = [inputs.tiny_arena(seed, index) for seed in (1, 2) for index in range(0, 252, 4)]
    arenas += [inputs.big_arena(seed, 20, 3000) for seed in (3, 4)]
    screened = checks = 0
    for side_a, side_b, a_won in arenas:
        n_models = int(max(side_a.max(), side_b.max())) + 1
        arena = Arena.from_records([f"m{k}" for k in range(n_models)], zip(side_a, side_b, a_won))
        bt = fit(arena)
        for count in (1, 2, 5, 20):
            if count < arena.n_matchups:
                s, c = _assert_screen_sound(arena, bt, count, method)
                screened, checks = screened + s, checks + c
    assert 0 < screened < checks


def test_a_gap_within_ulps_of_the_bound_is_screened_only_above_it():
    # The fit's scores are replaced so the pair's gap steps across its bound one
    # ulp at a time; the factor, and so the bound, stay those of the real fit.
    arena = Arena.from_records(["a", "b", "c"], [(0, 1, 1)] * 30 + [(0, 1, 0)] + [(1, 2, 1)] * 5
                               + [(2, 1, 1), (0, 2, 1), (2, 0, 1)])
    bt = fit(arena)
    factor = hessian_factor(bt)
    for method in ("if", "newton"):
        for count in (1, 2, 5, 20):
            for a, b in ((0, 1), (1, 2), (0, 2)):
                bound = _drop_effect_bound(bt, a, b, count, method)
                gap = bound
                for _ in range(3):
                    gap = np.nextafter(gap, 0.0)
                for step in range(-3, 4):
                    scores = np.zeros(arena.n_models)
                    scores[a] = gap
                    twin = dataclasses.replace(bt, scores=scores, _cache={"hessian_factor": factor})
                    rep = check_pair(arena, twin, a, b, DropBudget(count=count), method=method)
                    rows, delta, flip = _first_order_reference(arena, twin, (a, b), count, method)
                    assert rep.pair == (a, b) and rep.gap_before == gap
                    assert rep.predicted_flip is flip
                    if step > 0:
                        assert not flip and rep.dropped == () and rep.predicted_delta == -bound
                    else:
                        assert rep.dropped == tuple(rows.tolist()) and rep.predicted_delta == delta
                    gap = np.nextafter(gap, np.inf)
