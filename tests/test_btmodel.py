import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from btaudit import (
    Arena,
    FitError,
    ModelRegistry,
    SolverOptions,
    fit,
    generate,
    head_to_head,
    random_spec,
    ranking,
    refit_without,
)
from btaudit.btmodel import sigmoid
from conftest import RIDGELESS, bench_inputs, round_robin_spec, two_player_arena


def test_symmetric_record_gives_equal_scores(arena_2_2):
    bt = fit(arena_2_2, options=RIDGELESS)
    assert bt.converged
    assert bt.scores[0] == 0.0 and bt.scores[1] == 0.0
    assert np.all(sigmoid(bt.scores[arena_2_2.side_a] - bt.scores[arena_2_2.side_b]) == 0.5)


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
    assert sigmoid(bt.scores[0] - bt.scores[1]) == pytest.approx(0.75, abs=1e-9)


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
    dropped = np.ones(n)
    dropped[[0, 5, 7]] = 0.0
    weightings = [np.ones(n), dropped]
    for sign in (+1.0, -1.0):
        w = np.ones(n)
        w[4] = 1.0 + sign * 1e-4
        weightings.append(w)
    for options in (RIDGELESS, SolverOptions()):
        for w in weightings:
            bt = fit(arena, w, options=options)
            assert bt.converged
            won = arena.a_won.astype(float)
            probs = sigmoid(bt.scores[arena.side_a] - bt.scores[arena.side_b])
            resid = w * (probs - won)
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


def test_ranking_invariant_to_weight_scale():
    # Scaling every weight by one constant must leave the fitted order unchanged
    # at any scale; this guards the solver's scale-relative switch to raw Newton.
    for seed in range(40):
        arena = generate(random_spec(seed, target_matchups=30))
        fits = {c: fit(arena, np.full(arena.n_matchups, c)) for c in (1.0, 1e3, 1e6)}
        for c, bt in fits.items():
            assert bt.converged, (seed, c)
            assert ranking(bt).order == ranking(fits[1.0]).order, (seed, c)


def test_refit_without_empty_set_is_bitwise_identical():
    arena = generate(round_robin_spec(5, n_models=4))
    full = fit(arena, options=SolverOptions())
    refit = refit_without(arena, SolverOptions(), [])
    assert np.array_equal(full.scores, refit.scores)
    assert np.array_equal(full.class_weights, refit.class_weights)
    assert full.iterations == refit.iterations


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
    with pytest.raises(FitError, match="non-negative"):
        fit(arena, np.array([0.5, -0.1, 1.0, 1.0]))
    with pytest.raises(FitError, match="unique"):
        refit_without(arena, SolverOptions(), [1, 1])
    with pytest.raises(FitError, match="range"):
        refit_without(arena, SolverOptions(), [4])
    for bad in ([1.7], [True, False], ["3"]):
        with pytest.raises(FitError, match="integers"):
            refit_without(arena, SolverOptions(), bad)


def _assert_same_fit(got, want):
    assert np.array_equal(got.scores, want.scores)
    assert np.array_equal(got.class_weights, want.class_weights)
    assert got.class_weights.dtype == want.class_weights.dtype
    for name in ("iterations", "stop_reason", "converged", "diverged", "unidentified", "gradient_norm"):
        assert getattr(got, name) == getattr(want, name), name


def _fit_with_zeros_at(arena, options, drop):
    w = np.ones(arena.n_matchups)
    w[list(drop)] = 0.0
    return fit(arena, w, options)


def test_refit_without_matches_the_per_matchup_weighting():
    # A refit subtracts the dropped matchups' classes from the cells' cached
    # counts; a 0/1 weighting is collapsed row by row. They must agree bit for bit.
    rng = np.random.Generator(np.random.PCG64(606))
    for seed in range(40):
        arena = generate(random_spec(seed, target_matchups=int(rng.integers(6, 40))))
        n = arena.n_matchups
        for options in (SolverOptions(), SolverOptions(ridge=1e-3)):
            for size in (0, 1, 2, n // 2, n - 1):
                drop = rng.choice(n, size=size, replace=False)
                _assert_same_fit(refit_without(arena, options, drop),
                                 _fit_with_zeros_at(arena, options, drop))

    # Class (a-b, a won) holds rows 0-5 in both seat orders.
    arena = Arena.from_records(
        ["a", "b", "c"],
        [(0, 1, 1)] * 4 + [(1, 0, 0)] * 2 + [(0, 1, 0)] * 3 + [(1, 2, 1), (2, 1, 1), (0, 2, 0), (2, 0, 0)],
    )
    cases = {
        "several rows of one class": [0, 4, 5],
        "a whole class": list(range(6)),
        "every matchup of c": [9, 10, 11, 12],
        "nothing": [],
    }
    for options in (SolverOptions(), RIDGELESS):
        for name, drop in cases.items():
            refit = refit_without(arena, options, drop)
            _assert_same_fit(refit, _fit_with_zeros_at(arena, options, drop))
            assert refit.unidentified == ((2,) if name == "every matchup of c" else ()), name
        with pytest.raises(FitError, match="all weights are zero"):
            refit_without(arena, options, range(arena.n_matchups))
        with pytest.raises(FitError, match="all weights are zero"):
            _fit_with_zeros_at(arena, options, range(arena.n_matchups))

    side_a, side_b, a_won = bench_inputs().big_arena(9001, 60, 20_000)
    arena = Arena(ModelRegistry([f"m{k}" for k in range(60)]), side_a, side_b, a_won)
    drop = rng.choice(arena.n_matchups, size=10, replace=False)
    _assert_same_fit(refit_without(arena, SolverOptions(), drop),
                     _fit_with_zeros_at(arena, SolverOptions(), drop))


def test_class_weights_are_read_only():
    arena = generate(round_robin_spec(5, n_models=4))
    cells = arena.cells
    assert not cells.class_counts.flags.writeable
    assert cells.class_index[2] is cells.class_counts  # counted once per arena
    for bt in (fit(arena), fit(arena, np.full(arena.n_matchups, 0.5)),
               refit_without(arena, SolverOptions(), [0, 3])):
        assert bt.class_weights.shape == (2 * cells.n_cells,)
        assert not bt.class_weights.flags.writeable
    assert np.array_equal(fit(arena).class_weights, cells.class_counts)


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

    assert np.allclose(expit(z), sigmoid(bt.scores[arena.side_a] - bt.scores[arena.side_b]))


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
    assert set(ranking(scores).order[:1]) == {1}
    assert set(ranking(scores).order[:2]) == {1, 2}


def test_top_k_boundary_ties_prefer_lower_index():
    scores = np.array([0.0, 1.0, 1.0, 1.0])
    assert set(ranking(scores).order[:2]) == {1, 2}


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
    chosen = set(ranking(scores).order[:k])
    for i in chosen:
        for j in set(range(scores.size)) - chosen:
            assert scores[i] > scores[j] or (scores[i] == scores[j] and i < j)


def test_ranking_order_and_ties():
    r = ranking(np.array([0.0, 2.0, 2.0, -1.0]))
    assert r.order == (1, 2, 0, 3)
    assert r.tie_note == ((1, 2),)


def _reference_ranking(scores):
    """``ranking``'s tie list as one comparison of numpy scalars per neighbour, kept verbatim."""
    order = np.lexsort((np.arange(scores.size), -scores))
    ties = tuple(
        (int(order[r]), int(order[r + 1]))
        for r in range(scores.size - 1)
        if scores[order[r]] == scores[order[r + 1]]
    )
    return tuple(int(k) for k in order), ties


@given(scores=st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, float("nan")])
                       | st.floats(allow_nan=True, allow_infinity=True), min_size=2, max_size=12))
def test_ranking_matches_the_pairwise_tie_loop(scores):
    scores = np.array(scores)
    r = ranking(scores)
    assert (r.order, r.tie_note) == _reference_ranking(scores)
    assert all(type(i) is int for pair in r.tie_note for i in pair)


def test_ranking_ties_on_chosen_scores():
    nan = float("nan")
    cases = {
        (1.0, 1.0): (0, 1),  # two models, tied
        (0.5, 1.5): (),  # two models, apart
        (0.0, -0.0, 0.0): (0, 1),  # -0.0 equals 0.0
        (nan, 1.0, nan): (),  # NaN equals nothing
        (3.0,) * 6: (0, 1),
        (2.0, 1.0, 2.0, 1.0): (0, 2),
    }
    for scores, first_tie in cases.items():
        scores = np.array(scores)
        r = ranking(scores)
        assert (r.order, r.tie_note) == _reference_ranking(scores)
        assert r.tie_note[:1] == ((first_tie,) if first_tie else ())
    assert len(ranking(np.full(6, 3.0)).tie_note) == 5


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


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n_models=st.integers(3, 7))
def test_head_to_head_matches_masks_over_matchups(data, n_models):
    # The last model never plays, so every pair with it never met.
    pair = st.lists(st.integers(0, n_models - 2), min_size=2, max_size=2, unique=True)
    records = data.draw(st.lists(st.tuples(pair, st.integers(0, 1)), min_size=1, max_size=40))
    arena = Arena.from_records([f"m{k}" for k in range(n_models)],
                               [(a, b, won) for (a, b), won in records])
    a, b = data.draw(st.lists(st.integers(0, n_models - 1), min_size=2, max_size=2, unique=True))
    for x, y in ((a, b), (b, a), (a, n_models - 1)):
        if x == y:
            continue
        forward = (arena.side_a == x) & (arena.side_b == y)
        backward = (arena.side_a == y) & (arena.side_b == x)
        wins_x = np.count_nonzero(forward & (arena.a_won == 1) | backward & (arena.a_won == 0))
        wins_y = np.count_nonzero(forward & (arena.a_won == 0) | backward & (arena.a_won == 1))
        h = head_to_head(arena, x, y)
        assert (h.wins_a, h.wins_b) == (wins_x, wins_y)
        assert h.met == bool(wins_x + wins_y)
        assert h.win_percent == (wins_x / (wins_x + wins_y) if h.met else None)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_fit_is_deterministic(seed):
    arena = generate(round_robin_spec(seed, n_models=3, games_per_pair=2))
    one = fit(arena)
    two = fit(arena)
    assert np.array_equal(one.scores, two.scores)
    assert one.iterations == two.iterations


def test_stop_reason_tol():
    bt = fit(generate(round_robin_spec(3, n_models=4)))
    assert bt.stop_reason == "tol" and bt.converged
    assert bt.gradient_norm <= bt.options.tol


def test_stop_reason_max_iter(arena_3_1):
    bt = fit(arena_3_1, options=SolverOptions(max_iter=1))
    assert bt.stop_reason == "max_iter" and not bt.converged
    assert bt.iterations == 1


def test_stop_reason_divergence():
    # Separated and ridgeless: with a tolerance the vanishing gradient never
    # meets, the score drifts past the divergence bound.
    bt = fit(two_player_arena(3, 0), options=SolverOptions(ridge=0.0, tol=1e-30, max_iter=1000))
    assert bt.stop_reason == "divergence"
    assert bt.diverged and not bt.converged
    assert abs(bt.scores[1]) > 30.0


def test_stop_reason_line_search_floor(arena_3_1, monkeypatch):
    # With no halvings allowed the first damped step has no acceptable length.
    import btaudit.btmodel as btmodel_mod

    monkeypatch.setattr(btmodel_mod, "_MAX_HALVINGS", 0)
    bt = fit(arena_3_1)
    assert bt.stop_reason == "line_search_floor" and not bt.converged
    assert bt.iterations == 0


def test_stack_rows_stop_for_every_reason_as_their_own_solves(monkeypatch):
    # One ridgeless stack with a row for each stop reason, in order. The line
    # search gets one trial step, so a row whose objective stalls in rounding
    # meets its floor while the others still iterate.
    import btaudit.btmodel as btmodel_mod
    import test_solver_reference as reference

    monkeypatch.setattr(btmodel_mod, "_MAX_HALVINGS", 1)
    monkeypatch.setattr(reference, "_MAX_HALVINGS", 1)
    arena = generate(round_robin_spec(2, n_models=3))  # cells (0, 1), (0, 2), (1, 2)
    cws = np.array([
        [2.0, 2.0, 2.0, 2.0, 2.0, 2.0],  # even records: a zero gradient at the start
        [1e8, 1e8 + 1, 1e8, 1e8, 1e8, 1e8],  # full steps below the objective's resolution
        [0.0, 3.0, 0.0, 3.0, 1.0, 1.0],  # model 0 wins every game it plays
        [50.0, 0.0, 2.0, 1e5, 0.0, 1e5],  # drifts until rounding hides a full step's decrease
        [np.inf, 0.0, 1.0, 1.0, 1.0, 1.0],  # an infinite gradient
    ])
    options = SolverOptions(ridge=0.0, tol=1e-30)
    reasons = btmodel_mod._minimize_stack(arena.cells, cws, arena.n_models, options)[1]
    assert reasons == ["tol", "max_iter", "divergence", "line_search_floor", None]
    reference._assert_stack_matches(arena, cws, options)


def test_stack_rows_in_the_basin_step_with_no_halvings_left(monkeypatch):
    # ``_minimize`` takes a basin step apart from its line-search candidates, so
    # with none left a row in the quadratic basin still steps, while a row that
    # needs the Armijo test stops at the floor at once.
    import btaudit.btmodel as btmodel_mod
    import test_solver_reference as reference

    monkeypatch.setattr(btmodel_mod, "_MAX_HALVINGS", 0)
    monkeypatch.setattr(reference, "_MAX_HALVINGS", 0)
    arena = generate(round_robin_spec(2, n_models=3))
    cws = np.array([
        [1e8, 1e8 + 1, 1e8, 1e8, 1e8, 1e8],  # full steps below the objective's resolution
        [2.0, 1.0, 3.0, 1.0, 1.0, 2.0],
    ])
    options = SolverOptions()
    reasons = btmodel_mod._minimize_stack(arena.cells, cws, arena.n_models, options)[1]
    assert reasons == ["max_iter", "line_search_floor"]
    reference._assert_stack_matches(arena, cws, options)


def test_solver_options_refuse_bools_and_values_that_are_not_numbers():
    # A bool is an int to Python: max_iter=True would fit with one iteration and ridge=True with 1.0.
    for name in ("ridge", "tol", "max_iter"):
        for value in (True, False, None, "0.1"):
            with pytest.raises(FitError, match=name):
                SolverOptions(**{name: value})
    with pytest.raises(FitError, match="ridge must be a real number"):
        SolverOptions(ridge=1j)
    got = SolverOptions(ridge=np.float32(0.5), tol=np.float64(1e-9), max_iter=np.int32(5))
    assert (got.ridge, got.tol, got.max_iter) == (0.5, 1e-9, 5)
    assert SolverOptions(ridge=0, tol=1).ridge == 0


def test_solver_options_reject_a_tolerance_or_iteration_cap_they_cannot_use():
    # An infinite tolerance would stop every fit at its first iterate and call it converged.
    for tol in (np.inf, np.nan, 0.0, -1e-8):
        with pytest.raises(FitError, match="tol"):
            SolverOptions(tol=tol)
    for max_iter in (2.5, 3.0, "3", 0, -1):
        with pytest.raises(FitError, match="max_iter"):
            SolverOptions(max_iter=max_iter)
    assert SolverOptions(max_iter=np.int64(7)).max_iter == 7


def _core_call(fr, h, z, theta, cw, ridge):
    """Every formula of the likelihood core at one point, as bytes (signed zeros included)."""
    from btaudit import btmodel as bm

    wins, losses = cw[..., 1::2], cw[..., 0::2]
    total = wins + losses
    p = sigmoid(z)
    results = (
        bm._value(fr, z, theta, wins, total, ridge),
        bm._cold_value(total),
        bm._gradient(fr, theta, p, wins, total, ridge),
        bm._per_model(fr, total, total),
        bm._per_model(fr, wins, losses),
        bm._per_model(fr, p, p, np.subtract),
        bm._curvature(fr, h, total, p, ridge),
    )
    return [np.asarray(r) for r in results]


@pytest.mark.parametrize("ridge", [0.0, SolverOptions().ridge])
def test_stacked_core_matches_each_rows_own_call_bit_for_bit(ridge):
    from btaudit import btmodel as bm

    for seed in range(12):
        arena = generate(random_spec(seed, target_matchups=12 + seed))
        cells, m = arena.cells, arena.n_models
        rng = np.random.default_rng(seed)
        rows = 5
        # Integer and fractional weights, an emptied class, and scores at several scales.
        cw = np.vstack([cells.class_counts.astype(np.float64),
                        rng.uniform(0.0, 3.0, (rows - 1, 2 * cells.n_cells))])
        cw[1, 0] = 0.0
        theta = rng.normal(0.0, 1.0, (rows, m)) * np.array([[1.0], [0.1], [3.0], [1e-3], [20.0]])
        theta[:, 0] = 0.0
        z = np.ascontiguousarray(theta[:, cells.lo] - theta[:, cells.hi])  # rows row-major, as in the stack
        one = bm._frame(cells, m)
        # A stack of its own, and the same rows read through a prefix of a larger stack's bins.
        for stack in (bm._frame(cells, m, rows), bm._head(bm._frame(cells, m, rows + 3), rows)):
            got = _core_call(stack, np.zeros((rows, m * m)), z, theta, cw, ridge)
            for i in range(rows):
                want = _core_call(one, np.zeros(m * m), z[i], theta[i], cw[i], ridge)
                for g, w in zip(got, want):
                    assert g[i].tobytes() == w.tobytes()


def test_stacked_solve_evaluates_each_objective_as_the_rows_own_solve(monkeypatch):
    # Every objective value the stacked loop computes, line-search candidates
    # included, carries the bits of a one-row call on that row. Gathered
    # column-major, the cell differences' rows would take other strides in the
    # dot products, and give other last bits, than ``_minimize``'s.
    from btaudit import btmodel as bm

    arena = generate(random_spec(7, n_models=5, target_matchups=16))
    cells, m = arena.cells, arena.n_models
    one, real, rows_seen = bm._frame(cells, m), bm._value, [0]

    def value(fr, z, theta, wins, total, ridge):
        got = real(fr, z, theta, wins, total, ridge)
        if z.ndim == 2:
            for i in range(z.shape[0]):
                # Strides as in ``_minimize``: wins a strided view, the rest contiguous.
                want = real(one, z[i].copy(), theta[i].copy(), wins[i], total[i].copy(), ridge)
                assert got[i].tobytes() == want.tobytes()
            rows_seen[0] += z.shape[0]
        return got

    monkeypatch.setattr(bm, "_value", value)
    base = cells.class_counts.astype(np.float64)
    cws = np.repeat(base[None, :], arena.n_matchups, axis=0)
    np.subtract.at(cws, (np.arange(arena.n_matchups), cells.row_class), 1.0)
    for options in (SolverOptions(), SolverOptions(ridge=0.0)):
        bm._minimize_stack(cells, cws, m, options)
    assert cells.n_cells >= 4 and rows_seen[0] > 2 * arena.n_matchups
