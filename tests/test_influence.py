from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from btaudit import (
    Arena,
    DropBudget,
    FitError,
    SingularHessianError,
    SolverOptions,
    check_topk,
    finite_difference_influence,
    fit,
    generate,
    hessian_factor,
    influence_scores,
    pair_influence,
    random_spec,
    ranking,
    refit_without,
    select_drop_set,
)
from btaudit.btmodel import sigmoid
from conftest import RIDGELESS, leverage_rows, newton_rows, round_robin_spec, two_player_arena


@pytest.fixture
def fit_2_2(arena_2_2):
    return fit(arena_2_2, options=RIDGELESS)


def test_hand_derived_symmetric_fixture(fit_2_2):
    # Curvature is 4 * 0.25 = 1; residuals are +-0.5.
    derivative = influence_scores(fit_2_2, 1)
    assert np.allclose(derivative, [-0.5, -0.5, 0.5, 0.5], atol=1e-12)


def test_derivative_mode_matches_finite_difference(fit_2_2, arena_2_2):
    predicted = influence_scores(fit_2_2, 1)
    for n in range(arena_2_2.n_matchups):
        fd = finite_difference_influence(arena_2_2, fit_2_2, 1, n)
        assert predicted[n] == pytest.approx(fd, rel=1e-3)


def test_reference_target_is_identically_zero(fit_2_2, arena_2_2):
    assert np.array_equal(influence_scores(fit_2_2, 0), np.zeros(4))
    fd = finite_difference_influence(arena_2_2, fit_2_2, 0, 1)
    assert abs(fd) < 1e-10


def test_zero_residual_means_zero_score():
    # A matchup with fitted probability equal to its outcome... is impossible at
    # an interior optimum, so check the factor directly: residual 0 kills the score.
    arena = two_player_arena(2, 2)
    bt = fit(arena, options=RIDGELESS)
    scores = influence_scores(bt, 1)
    resid = arena.a_won - sigmoid(bt.scores[arena.side_a] - bt.scores[arena.side_b])
    assert np.all((resid == 0) <= (scores == 0))


def test_unconverged_fit_rejected():
    arena = two_player_arena(4, 0)
    bt = fit(arena, options=RIDGELESS)  # diverged
    with pytest.raises(FitError, match="converged"):
        influence_scores(bt, 1)


def test_singular_hessian_without_ridge():
    # Disconnected comparison graph: {a, b} vs {c, d} never meet.
    arena = Arena.from_records(
        ["a", "b", "c", "d"],
        [(0, 1, 1), (0, 1, 0), (2, 3, 1), (2, 3, 0)],
    )
    bt = fit(arena, options=RIDGELESS)
    assert bt.converged
    with pytest.raises(SingularHessianError):
        influence_scores(bt, 2)


def test_pair_influence_linearity_and_antisymmetry():
    arena = generate(round_robin_spec(23, n_models=4))
    bt = fit(arena)
    for method in ("if", "newton"):
        pi = pair_influence(bt, 1, 2, method=method)
        row_class = arena.cells.row_class
        denom = 1.0 if method == "if" else hessian_factor(bt).newton_denominators[row_class]
        expected = influence_scores(bt, 1) / denom - influence_scores(bt, 2) / denom
        assert np.array_equal(pi[row_class], expected)  # linearity, exact
        swapped = pair_influence(bt, 2, 1, method=method)
        assert np.array_equal(swapped, -pi)  # antisymmetry, exact


def test_pair_influence_with_reference_endpoint(fit_2_2):
    pi = pair_influence(fit_2_2, 0, 1)
    scores = pi[fit_2_2.arena.cells.row_class]
    assert np.allclose(scores, [0.5, 0.5, -0.5, -0.5], atol=1e-12)
    with pytest.raises(ValueError, match="distinct"):
        pair_influence(fit_2_2, 1, 1)


def test_newton_scores_apply_leverage_correction(fit_2_2):
    h = leverage_rows(fit_2_2)
    assert np.allclose(h, 0.25, atol=1e-12)
    base = influence_scores(fit_2_2, 1)
    corrected = newton_rows(fit_2_2, 1)
    assert np.allclose(corrected, base / 0.75, atol=1e-12)


def test_newton_beats_if_against_exact_loo(fit_2_2, arena_2_2):
    # Exact leave-one-out on the symmetric arena: drop one first-side win.
    exact = refit_without(arena_2_2, RIDGELESS, [0]).scores[1] - fit_2_2.scores[1]
    pred_if = -influence_scores(fit_2_2, 1)[0]
    pred_newton = -newton_rows(fit_2_2, 1)[0]
    assert abs(exact - pred_newton) < abs(exact - pred_if)
    assert exact == pytest.approx(np.log(2.0), abs=1e-8)


def test_leverage_trace_identity_ridgeless():
    arena = generate(round_robin_spec(29, n_models=5, games_per_pair=4))
    bt = fit(arena, options=RIDGELESS)
    h = leverage_rows(bt)
    assert np.all(h >= 0)
    assert h.sum() == pytest.approx(arena.n_models - 1, abs=1e-8)


def test_duplicate_matchups_share_leverage():
    arena = Arena.from_records(["a", "b", "c"],
                               [(0, 1, 1), (0, 1, 1), (1, 2, 0), (0, 2, 1)])
    bt = fit(arena)
    h = leverage_rows(bt)
    assert h[0] == h[1]


def test_large_ridge_shrinks_leverage():
    arena = two_player_arena(2, 2)
    small = leverage_rows(fit(arena, options=SolverOptions(ridge=1e-8)))
    big = leverage_rows(fit(arena, options=SolverOptions(ridge=1e3)))
    assert np.all(big < 1e-3)
    assert np.all(big < small)


def test_one_factorization_per_fit():
    arena = generate(round_robin_spec(31, n_models=4))
    bt = fit(arena)
    fac = hessian_factor(bt)
    assert hessian_factor(bt) is fac
    influence_scores(bt, 1)
    influence_scores(bt, 2)
    pair_influence(bt, 1, 3)
    assert hessian_factor(bt) is fac  # reused across targets and pairs


def test_factor_solve_residual():
    arena = generate(round_robin_spec(37, n_models=5, games_per_pair=4))
    bt = fit(arena)
    fac = hessian_factor(bt)
    k = fac.inverse
    assert not k[0].any() and not k[:, 0].any()  # the pinned reference
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(5):
        b = rng.standard_normal(arena.n_models - 1)
        x = k[1:, 1:] @ b
        assert np.linalg.norm(fac.matrix @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_concurrent_solves_match_serial():
    arena = generate(round_robin_spec(41, n_models=5))
    bt = fit(arena)
    serial = [influence_scores(bt, t) for t in range(1, 5)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda t: influence_scores(bt, t), range(1, 5)))
    for s, p in zip(serial, parallel):
        assert np.array_equal(s, p)


def test_finite_difference_consistency_small_arenas():
    for seed in (101, 102, 103):
        arena = generate(round_robin_spec(seed, n_models=4, games_per_pair=3))
        bt = fit(arena)
        predicted = influence_scores(bt, 2)
        for n in range(0, arena.n_matchups, 3):
            fd = finite_difference_influence(arena, bt, 2, n)
            assert abs(predicted[n] - fd) <= 1e-3 * max(abs(fd), 1e-9)


def test_finite_difference_epsilon_validation(fit_2_2, arena_2_2):
    with pytest.raises(IndexError):
        finite_difference_influence(arena_2_2, fit_2_2, 1, 99)


def test_bad_mode_and_method_rejected(fit_2_2):
    with pytest.raises(ValueError, match="method"):
        pair_influence(fit_2_2, 0, 1, method="banana")


def test_seat_order_twins_tie_bit_for_bit():
    # Each matchup is stored twice: once as drawn and once, earlier in the
    # arena, with the seats swapped and the outcome flipped. The twins are one
    # likelihood term, so their scores must be equal bit for bit, and the
    # drop-set tie-break must then pick the earlier (swapped) copy.
    for seed in range(20):
        drawn = generate(random_spec(seed, n_models=4, target_matchups=16))
        n = drawn.n_matchups
        arena = Arena.from_records(
            drawn.models.names,
            list(zip(drawn.side_b, drawn.side_a, 1 - drawn.a_won))
            + list(zip(drawn.side_a, drawn.side_b, drawn.a_won)),
        )
        bt = fit(arena)
        first, second = ranking(bt).order[:2]
        for method in ("if", "newton"):
            pi = pair_influence(bt, first, second, method=method)
            scores = pi[arena.cells.row_class]
            assert np.array_equal(scores[:n], scores[n:])
            chosen = select_drop_set(pi, arena.cells, 1)
            if chosen.size:
                assert chosen[0] < n
        assert np.array_equal(leverage_rows(bt)[:n], leverage_rows(bt)[n:])


def test_pair_influence_scores_gather_class_scores():
    arena = generate(random_spec(5, n_models=4, target_matchups=30))
    bt = fit(arena)
    for method in ("if", "newton"):
        pi = pair_influence(bt, 1, 2, method=method)
        assert pi.size == 2 * arena.cells.n_cells
        assert not pi.flags.writeable


def test_cached_newton_denominators_match_the_uncached_formula():
    # The factor caches the leverages and the one-step Newton denominators
    # once per fit; every Newton score must equal the formula evaluated afresh.
    for seed in range(10):
        arena = generate(random_spec(seed, n_models=4, target_matchups=30))
        bt = fit(arena)
        cells = arena.cells
        lo, hi = cells.lo, cells.hi
        k = hessian_factor(bt).inverse
        p = sigmoid(bt.scores[lo] - bt.scores[hi])
        h = p * (1.0 - p) * (k[lo, lo] + k[hi, hi] - 2.0 * k[lo, hi])
        denom = 1.0 - np.repeat(h, 2)
        assert np.all(denom > 1e-12)
        resid = np.stack([-p, 1.0 - p], axis=1)

        def newton(t):
            u = k[t]
            return ((u[lo] - u[hi])[:, None] * resid).reshape(-1) / denom

        assert np.array_equal(hessian_factor(bt).leverages, h)
        for t in range(1, arena.n_models):
            assert np.array_equal(newton_rows(bt, t), newton(t)[cells.row_class])
        for _ in range(2):  # the second call reads the cache
            pi = pair_influence(bt, 1, 3, method="newton")
            assert np.array_equal(pi, newton(1) - newton(3))


def test_saturated_leverage_warns_once_per_call_and_clamps(monkeypatch):
    # Raise the saturation threshold so that ordinary matchups count as
    # saturated; the factor counts them once, and every Newton call warns.
    import btaudit.influence as influence_mod

    arena = generate(random_spec(5, n_models=4, target_matchups=30))
    room = 1.0 - leverage_rows(fit(arena))
    threshold = float(np.median(room))
    monkeypatch.setattr(influence_mod, "_SATURATION", threshold)
    bt = fit(arena)
    saturated = int(np.count_nonzero(room <= threshold))
    assert 0 < saturated < arena.n_matchups
    expected = influence_scores(bt, 1) / np.where(room <= threshold, threshold, room)
    for _ in range(2):
        with pytest.warns(RuntimeWarning, match=f"^{saturated} matchup"):
            assert np.array_equal(newton_rows(bt, 1), expected)


@pytest.mark.parametrize("method", ["if", "newton"])
def test_pair_influence_is_bit_identical_inside_an_audit(method):
    # An audit fills the fit's memo of each model's class influence; a pair's
    # scores are the same subtraction either way, so a warm fit and a fresh
    # one agree bit for bit, and the memo's entries stay put and read-only.
    arena = generate(random_spec(23, n_models=6, target_matchups=80))
    warm = fit(arena)
    check_topk(arena, warm, 2, DropBudget(count=2), method=method)
    memo = warm._cache["class_influence"]
    assert memo
    pairs = [(1, 3), (3, 1), (0, 5), (2, 4), (1, 3), (4, 2)]
    for a, b in pairs:
        fresh = pair_influence(fit(arena), a, b, method=method)
        assert pair_influence(warm, a, b, method=method).tobytes() == fresh.tobytes()
    for t in range(arena.n_models):
        assert influence_scores(warm, t).tobytes() == influence_scores(fit(arena), t).tobytes()
    entries = dict(memo)
    assert sorted(entries) == [0, 1, 2, 3, 4, 5]
    assert not any(v.flags.writeable for v in entries.values())
    check_topk(arena, warm, 3, DropBudget(count=3), method=method)
    assert warm._cache["class_influence"] is memo
    assert all(memo[t] is v for t, v in entries.items())


def test_the_cached_factor_never_changes_once_set(monkeypatch):
    # A thread that builds the factor while another stores its own must return
    # the stored one. Here the first construction asks for the factor itself,
    # as a racing thread would; the outer call must return what that one stored.
    import btaudit.influence as influence_mod

    bt = fit(generate(random_spec(5, n_models=4, target_matchups=30)))
    real = influence_mod.HessianFactor
    inner = []

    class Racing(real):
        def __init__(self, fit_):
            if not inner:
                inner.append(None)
                inner[0] = influence_mod.hessian_factor(fit_)
            super().__init__(fit_)

    monkeypatch.setattr(influence_mod, "HessianFactor", Racing)
    outer = influence_mod.hessian_factor(bt)
    assert isinstance(inner[0], real)
    assert outer is inner[0] is bt._cache["hessian_factor"]
    assert influence_mod.hessian_factor(bt) is outer
