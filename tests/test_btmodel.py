import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from btaudit import (
    Arena,
    FitError,
    SolverOptions,
    Weighting,
    fit,
    generate,
    head_to_head,
    ranking,
    refit_without,
    top_k_set,
)
from btaudit.btmodel import sigmoid
from conftest import RIDGELESS, round_robin_spec, two_player_arena


def test_symmetric_record_gives_equal_scores(arena_2_2):
    bt = fit(arena_2_2, options=RIDGELESS)
    assert bt.converged
    assert bt.scores[0] == 0.0 and bt.scores[1] == 0.0
    assert np.all(bt.fitted_probs == 0.5)


def test_three_one_record_matches_scalar_minimizer(arena_3_1):
    # Independent oracle: 1-d numerical minimization of the same likelihood.
    oracle = minimize_scalar(
        lambda t: 3 * np.logaddexp(0.0, t) + np.logaddexp(0.0, -t),
        bounds=(-5.0, 5.0), method="bounded", options={"xatol": 1e-12},
    )
    bt = fit(arena_3_1, options=RIDGELESS)
    assert bt.converged
    assert bt.scores[1] == pytest.approx(oracle.x, abs=1e-7)
    assert bt.scores[1] == pytest.approx(-np.log(3.0), abs=1e-8)
    # fitted win probability for the leader is the empirical 3/4
    assert bt.fitted_probs[0] == pytest.approx(0.75, abs=1e-9)


def test_perfect_separation_flags_divergence():
    arena = two_player_arena(4, 0)
    bt = fit(arena, options=RIDGELESS)
    assert bt.diverged
    assert not bt.converged
    assert bt.scores[1] < -10  # drifted toward the unbounded direction


def test_ridge_keeps_separated_fit_finite():
    arena = two_player_arena(4, 0)
    bt = fit(arena)  # default ridge 1e-6
    assert bt.converged and not bt.diverged
    assert np.isfinite(bt.scores).all()


def test_gradient_at_optimum_invariant():
    # The per-row gradient is the reference the pair-cell solver is checked against.
    arena = generate(round_robin_spec(3, n_models=4))
    n = arena.n_matchups
    weightings = [None, Weighting.drop(n, [0, 5, 7])]
    for sign in (+1.0, -1.0):
        w = np.ones(n)
        w[4] = 1.0 + sign * 1e-4
        weightings.append(w)
    for options in (RIDGELESS, SolverOptions()):
        for weighting in weightings:
            bt = fit(arena, weighting, options=options)
            assert bt.converged
            won = arena.a_won.astype(float)
            resid = bt.weights * (bt.fitted_probs - won)
            g = np.bincount(arena.side_a, weights=resid, minlength=4)
            g -= np.bincount(arena.side_b, weights=resid, minlength=4)
            g = g[1:] + options.ridge * bt.scores[1:]
            assert np.abs(g).max() <= options.tol


def test_large_total_weight_converges_to_the_same_scores():
    # At large total weight the objective's rounding swamps the line search's
    # predicted decrease; the solver must still reach the gradient tolerance.
    # Without a ridge, scaling every weight leaves the minimizer unchanged.
    arena = generate(round_robin_spec(3, n_models=30, games_per_pair=3))
    base = fit(arena, options=RIDGELESS)
    heavy = fit(arena, np.full(arena.n_matchups, 1e6), options=RIDGELESS)
    assert base.converged and heavy.converged
    assert np.allclose(heavy.scores, base.scores, rtol=0, atol=1e-9)
    assert fit(arena, np.full(arena.n_matchups, 1e6)).converged  # default ridge


def test_refit_without_empty_set_is_bitwise_identical():
    arena = generate(round_robin_spec(5, n_models=4))
    full = fit(arena, options=SolverOptions())
    refit = refit_without(arena, SolverOptions(), [])
    assert np.array_equal(full.scores, refit.scores)
    assert np.array_equal(full.fitted_probs, refit.fitted_probs)


def test_refit_drop_one_win_closed_form(arena_3_1):
    refit = refit_without(arena_3_1, RIDGELESS, [0])
    assert refit.scores[1] == pytest.approx(-np.log(2.0), abs=1e-8)


def test_unidentified_model_flagged():
    arena = Arena.from_records(
        ["a", "b", "c"],
        [(0, 1, 1), (1, 0, 1), (0, 1, 0), (0, 2, 1)],
    )
    refit = refit_without(arena, SolverOptions(), [3])  # c loses its only matchup
    assert refit.unidentified == (2,)
    assert abs(refit.scores[2]) < 1e-3  # ridge pins it near 0
    full = fit(arena)
    assert full.unidentified == ()


def test_fit_errors():
    arena = two_player_arena(2, 2)
    with pytest.raises(FitError, match="all weights are zero"):
        fit(arena, np.zeros(4))
    with pytest.raises(FitError, match="length"):
        fit(arena, np.ones(3))
    with pytest.raises(FitError):
        Weighting(np.array([0.5, -0.1, 1.0, 1.0]), 0)
    with pytest.raises(FitError):
        Weighting.drop(4, [1, 1])


def test_weighting_drop_counts():
    w = Weighting.drop(5, [0, 3])
    assert w.dropped_count == 2
    assert list(w.w) == [0.0, 1.0, 1.0, 0.0, 1.0]


def test_orientation_invariance():
    spec = round_robin_spec(11, n_models=3)
    arena = generate(spec)
    flipped = Arena.from_records(
        arena.models.names,
        zip(arena.side_b, arena.side_a, 1 - arena.a_won),
    )
    a = fit(arena, options=SolverOptions())
    b = fit(flipped, options=SolverOptions())
    assert np.array_equal(a.scores, b.scores)


def test_relabeling_equivariance():
    spec = round_robin_spec(13, n_models=4)
    arena = generate(spec)
    perm = [0, 2, 3, 1]  # reference fixed
    relabeled = Arena.from_records(
        [arena.models.names[i] for i in np.argsort(perm)],
        zip(np.array(perm)[arena.side_a], np.array(perm)[arena.side_b], arena.a_won),
    )
    a = fit(arena, options=SolverOptions())
    b = fit(relabeled, options=SolverOptions())
    assert np.allclose(b.scores[perm], a.scores, atol=1e-6)


def test_shift_invariance_of_probabilities():
    spec = round_robin_spec(17, n_models=3)
    arena = generate(spec)
    bt = fit(arena)
    shifted = bt.scores + 0.37
    z = shifted[arena.side_a] - shifted[arena.side_b]
    from scipy.special import expit

    assert np.allclose(expit(z), bt.fitted_probs)


def test_fitted_probs_recomputable_bit_stably():
    arena = generate(round_robin_spec(23, n_models=4))
    bt = fit(arena)
    recomputed = sigmoid(bt.scores[arena.side_a] - bt.scores[arena.side_b])
    assert np.array_equal(recomputed, bt.fitted_probs)


def test_sigmoid_is_stable_in_both_tails():
    z = np.array([-np.inf, -1e4, -745.0, -40.0, -1.0, 0.0, 1.0, 40.0, 1e4, np.inf])
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        p = sigmoid(z)
    assert 0.0 <= p[0] <= 1.3e-308 and 0.0 <= p[1] <= 1.3e-308
    assert p[-1] == 1.0 and p[-2] == 1.0
    assert p[5] == 0.5
    assert np.all(np.diff(p) >= 0)
    assert np.allclose(p + sigmoid(-z), 1.0, rtol=0, atol=1e-15)
    assert sigmoid(-40.0) == pytest.approx(np.exp(-40.0), rel=1e-15)


def test_warm_start_converges_immediately():
    arena = generate(round_robin_spec(19, n_models=4))
    base = fit(arena)
    again = fit(arena, options=base.options, warm_start=base.scores)
    assert again.iterations == 0
    assert np.array_equal(again.scores, base.scores)


def test_top_k_set_examples():
    scores = np.array([0.0, 2.0, 1.0])
    assert top_k_set(scores, 1) == {1}
    assert top_k_set(scores, 2) == {1, 2}
    with pytest.raises(ValueError):
        top_k_set(scores, 0)
    with pytest.raises(ValueError):
        top_k_set(scores, 3)


def test_top_k_boundary_ties_prefer_lower_index():
    scores = np.array([0.0, 1.0, 1.0, 1.0])
    assert top_k_set(scores, 2) == {1, 2}


@given(
    scores=st.lists(
        st.floats(-5, 5, allow_nan=False) | st.integers(-3, 3).map(float),
        min_size=2, max_size=8,
    ),
    data=st.data(),
)
def test_top_k_dominance_characterization(scores, data):
    scores = np.array(scores)
    k = data.draw(st.integers(1, scores.size - 1))
    chosen = top_k_set(scores, k)
    for i in chosen:
        for j in set(range(scores.size)) - chosen:
            assert scores[i] > scores[j] or (scores[i] == scores[j] and i < j)


def test_ranking_order_and_ties():
    r = ranking(np.array([0.0, 2.0, 2.0, -1.0]))
    assert r.order == (1, 2, 0, 3)
    assert r.tie_note == ((1, 2),)


def test_head_to_head(arena_3_1):
    h = head_to_head(arena_3_1, 0, 1)
    assert (h.wins_a, h.wins_b) == (3, 1)
    assert h.win_percent == pytest.approx(0.75)
    assert h.met

    arena = Arena.from_records(["a", "b", "c"], [(0, 1, 1), (1, 2, 1), (1, 0, 0)])
    never = head_to_head(arena, 0, 2)
    assert not never.met and never.win_percent is None
    with pytest.raises(ValueError):
        head_to_head(arena, 1, 1)


def test_head_to_head_counts_both_orientations():
    arena = Arena.from_records(["a", "b"], [(0, 1, 1), (1, 0, 1), (1, 0, 0)])
    h = head_to_head(arena, 0, 1)
    assert (h.wins_a, h.wins_b) == (2, 1)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_fit_is_deterministic(seed):
    arena = generate(round_robin_spec(seed, n_models=3, games_per_pair=2))
    one = fit(arena)
    two = fit(arena)
    assert np.array_equal(one.scores, two.scores)
    assert one.iterations == two.iterations
