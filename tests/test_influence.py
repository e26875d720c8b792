from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from btaudit import (
    Arena,
    FitError,
    SingularHessianError,
    SolverOptions,
    finite_difference_influence,
    fit,
    generate,
    hessian_factor,
    influence_scores,
    leverage,
    leverages,
    newton_scores,
    pair_influence,
    random_spec,
    ranking,
    refit_without,
    select_drop_set,
)
from conftest import RIDGELESS, round_robin_spec, two_player_arena


@pytest.fixture
def fit_2_2(arena_2_2):
    return fit(arena_2_2, options=RIDGELESS)


def test_hand_derived_symmetric_fixture(fit_2_2):
    # Curvature is 4 * 0.25 = 1; residuals are +-0.5.
    derivative = influence_scores(fit_2_2, 1)
    assert np.allclose(derivative, [-0.5, -0.5, 0.5, 0.5], atol=1e-12)
    scaled = influence_scores(fit_2_2, 1, mode="scaled")
    assert np.allclose(np.abs(scaled), 0.125, atol=1e-9)
    assert np.array_equal(np.sign(scaled), np.sign(derivative))


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
    resid = arena.a_won - bt.fitted_probs
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
        per_target = influence_scores if method == "if" else newton_scores
        expected = per_target(bt, 1) - per_target(bt, 2)
        assert np.array_equal(pi.scores, expected)  # linearity, exact
        swapped = pair_influence(bt, 2, 1, method=method)
        assert np.array_equal(swapped.scores, -pi.scores)  # antisymmetry, exact


def test_pair_influence_with_reference_endpoint(fit_2_2):
    pi = pair_influence(fit_2_2, 0, 1, mode="scaled")
    assert np.allclose(pi.scores, [0.125, 0.125, -0.125, -0.125], atol=1e-12)
    with pytest.raises(ValueError, match="distinct"):
        pair_influence(fit_2_2, 1, 1)


def test_newton_scores_apply_leverage_correction(fit_2_2):
    h = leverages(fit_2_2)
    assert np.allclose(h, 0.25, atol=1e-12)
    base = influence_scores(fit_2_2, 1)
    corrected = newton_scores(fit_2_2, 1)
    assert np.allclose(corrected, base / 0.75, atol=1e-12)


def test_newton_beats_if_against_exact_loo(fit_2_2, arena_2_2):
    # Exact leave-one-out on the symmetric arena: drop one first-side win.
    exact = refit_without(arena_2_2, RIDGELESS, [0]).scores[1] - fit_2_2.scores[1]
    pred_if = -influence_scores(fit_2_2, 1)[0]
    pred_newton = -newton_scores(fit_2_2, 1)[0]
    assert abs(exact - pred_newton) < abs(exact - pred_if)
    assert exact == pytest.approx(np.log(2.0), abs=1e-8)


def test_leverage_trace_identity_ridgeless():
    arena = generate(round_robin_spec(29, n_models=5, games_per_pair=4))
    bt = fit(arena, options=RIDGELESS)
    h = leverages(bt)
    assert np.all(h >= 0)
    assert h.sum() == pytest.approx(arena.n_models - 1, abs=1e-8)


def test_duplicate_matchups_share_leverage():
    arena = Arena.from_records(["a", "b", "c"],
                               [(0, 1, 1), (0, 1, 1), (1, 2, 0), (0, 2, 1)])
    bt = fit(arena)
    h = leverages(bt)
    assert h[0] == h[1]
    assert leverage(bt, 0) == h[0]
    with pytest.raises(IndexError):
        leverage(bt, 99)


def test_large_ridge_shrinks_leverage():
    arena = two_player_arena(2, 2)
    small = leverages(fit(arena, options=SolverOptions(ridge=1e-8)))
    big = leverages(fit(arena, options=SolverOptions(ridge=1e3)))
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
    k = fac.inverse()
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
    with pytest.raises(ValueError, match="epsilon"):
        finite_difference_influence(arena_2_2, fit_2_2, 1, 0, epsilon=1e-2)
    with pytest.raises(IndexError):
        finite_difference_influence(arena_2_2, fit_2_2, 1, 99)


def test_bad_mode_and_method_rejected(fit_2_2):
    with pytest.raises(ValueError, match="mode"):
        influence_scores(fit_2_2, 1, mode="banana")
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
            assert np.array_equal(pi.scores[:n], pi.scores[n:])
            chosen = select_drop_set(pi, 1)
            if chosen.size:
                assert chosen[0] < n
        assert np.array_equal(leverages(bt)[:n], leverages(bt)[n:])
