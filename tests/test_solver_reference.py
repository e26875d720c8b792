"""The damped-Newton solver against a reference copy of an earlier loop.

The reference below is the loop ``btaudit.btmodel._minimize`` was before each
iterate's cell differences, objective value and slope were computed once: it
evaluates the objective afresh at the start of every line search and gathers
``theta[lo] - theta[hi]`` separately for the objective, the candidate and the
gradient. Both loops must perform the same floating-point operations in the
same order, so fits and refits agree bit for bit: the scores' bytes, the
iteration count, the stop reason and the final gradient norm.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from btaudit import Arena, FitError, SolverOptions, fit, generate, hessian_factor, refit_without
from btaudit.arena import PairCells
from btaudit.btmodel import sigmoid

from conftest import round_robin_spec, two_player_arena

# The reference's constants, as the reference loop had them.
_DIVERGENCE_BOUND = 30.0
_PURE_NEWTON_GRAD = 1e-5
_LINE_SEARCH_RESOLUTION = 64.0 * np.finfo(np.float64).eps
_ARMIJO = 1e-4
_MAX_HALVINGS = 40


# ---- reference solver, kept verbatim ----

def _per_model(cells: PairCells, as_lo, as_hi, n_models: int) -> np.ndarray:
    """Per-model sums of a cell quantity, seen from the lower and the higher model."""
    return np.bincount(cells.lo, weights=as_lo, minlength=n_models) + np.bincount(
        cells.hi, weights=as_hi, minlength=n_models
    )


def _objective(theta, cells: PairCells, wins, total, ridge) -> float:
    z = theta[cells.lo] - theta[cells.hi]
    val = float(total @ np.logaddexp(0.0, z) - wins @ z)
    if ridge:
        free = theta[1:]
        val += 0.5 * ridge * float(free @ free)
    return val


def _gradient(theta, cells: PairCells, wins, total, ridge, n_models):
    """Gradient on the free coordinates, and each cell's probability that its lower model wins."""
    p = sigmoid(theta[cells.lo] - theta[cells.hi])
    r = total * p - wins
    g = np.bincount(cells.lo, weights=r, minlength=n_models) - np.bincount(
        cells.hi, weights=r, minlength=n_models
    )
    g = g[1:]
    if ridge:
        g = g + ridge * theta[1:]
    return g, p


def _curvature(cells: PairCells, total, p, ridge, n_models) -> np.ndarray:
    """Curvature on the free coordinates; cells are distinct pairs, so entries are set, not summed."""
    off = total * p * (p - 1.0)  # minus each cell's weighted variance
    h = np.zeros((n_models, n_models))
    h[cells.lo, cells.hi] = off
    h[cells.hi, cells.lo] = off
    # The ridge lands on the reference's diagonal entry too, which is cut off below.
    h.flat[:: n_models + 1] = ridge - _per_model(cells, off, off, n_models)
    return h[1:, 1:]


def _direction(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    try:
        d = np.linalg.solve(h, -g)
    except np.linalg.LinAlgError:
        d = None
    if d is None or not np.isfinite(d).all():
        bump = 1e-10 * (np.trace(h) / h.shape[0] + 1.0)
        try:
            d = np.linalg.solve(h + bump * np.eye(h.shape[0]), -g)
        except np.linalg.LinAlgError:
            d = None
        if d is not None and not np.isfinite(d).all():
            d = None
    if d is None or float(g @ d) >= 0:
        d = -g  # singular curvature: plain descent step
    return d


def _armijo_step(theta, d, g, cells: PairCells, wins, total, ridge) -> float | None:
    """Backtracking step length along d, or None at the numerical floor."""
    f0 = _objective(theta, cells, wins, total, ridge)
    slope = float(g @ d)
    if -slope <= _LINE_SEARCH_RESOLUTION * abs(f0) and float(np.abs(d).max()) <= 1.0:
        return 1.0  # the quadratic basin, reached at a large total weight
    step = 1.0
    for _ in range(_MAX_HALVINGS):
        cand = theta.copy()
        cand[1:] += step * d
        if _objective(cand, cells, wins, total, ridge) <= f0 + _ARMIJO * step * slope:
            return step
        step *= 0.5
    return None


def _minimize(cells: PairCells, cw, n_models, options: SolverOptions, theta0):
    """Damped Newton under class weights ``cw``, with reference coordinate pinned at 0.

    Returns (theta, stop_reason, iterations, gradient_norm); see ``BtFit``.
    """
    wins, total = cw[1::2], cw[1::2] + cw[0::2]
    if theta0 is None:
        theta = np.zeros(n_models)
    else:
        theta = np.ascontiguousarray(theta0, dtype=np.float64).copy()
        if theta.shape != (n_models,):
            raise FitError("warm start has the wrong length")
        if theta[0] != 0.0:
            raise FitError("warm start must pin the reference score to 0")
        if not np.all(np.isfinite(theta)):
            raise FitError("warm start contains non-finite values")

    ridge, tol = options.ridge, options.tol
    iterations = 0
    g, p = _gradient(theta, cells, wins, total, ridge, n_models)
    gnorm = float(np.abs(g).max()) if g.size else 0.0

    while True:
        if not math.isfinite(gnorm):
            raise FitError("non-finite values encountered during fitting"
                           " (possible separation with ridge = 0)")
        if gnorm <= tol:
            reason = "tol"
            break
        if iterations >= options.max_iter:
            reason = "max_iter"
            break
        if ridge == 0.0 and float(np.abs(theta).max()) > _DIVERGENCE_BOUND:
            reason = "divergence"  # unbounded drift; also reported via the diverged flag
            break

        h = _curvature(cells, total, p, ridge, n_models)
        d = _direction(h, g)
        step = 1.0
        if gnorm > _PURE_NEWTON_GRAD or float(np.abs(d).max()) > 1.0:
            step = _armijo_step(theta, d, g, cells, wins, total, ridge)
            if step is None:
                reason = "line_search_floor"  # reached before the gradient tolerance
                break
        # Otherwise in the quadratic basin: the full Newton step is safe and the
        # objective differences are below float resolution, so skip the search.
        theta = theta.copy()
        theta[1:] += step * d
        iterations += 1
        g, p = _gradient(theta, cells, wins, total, ridge, n_models)
        gnorm = float(np.abs(g).max()) if g.size else 0.0

    return theta, reason, iterations, gnorm


# ---- comparison ----

def _outcome(call):
    """What a solve produced: its four results, or the type and message of its error."""
    try:
        result = call()
    except FitError as exc:
        return ("error", type(exc).__name__, str(exc))
    if isinstance(result, tuple):
        theta, reason, iterations, gnorm = result
    else:
        theta, reason, iterations, gnorm = (
            result.scores, result.stop_reason, result.iterations, result.gradient_norm
        )
    return (theta.tobytes(), reason, iterations, np.float64(gnorm).tobytes())


def _assert_fit_matches(arena, w, options, theta0=None):
    cells = arena.cells
    cw = cells.class_counts.astype(np.float64) if w is None else cells.class_weights(w)
    if not np.any(cw > 0):
        with pytest.raises(FitError, match="all weights are zero"):
            fit(arena, w, options=options, warm_start=theta0)
        return
    want = _outcome(lambda: _minimize(cells, cw, arena.n_models, options, theta0))
    got = _outcome(lambda: fit(arena, w, options=options, warm_start=theta0))
    assert got == want


def _assert_refit_matches(arena, options, drop):
    cells = arena.cells
    cw = cells.class_counts.astype(np.float64)
    np.subtract.at(cw, cells.row_class[np.asarray(drop, dtype=np.int64)], 1.0)
    if not np.any(cw > 0):
        with pytest.raises(FitError, match="all weights are zero"):
            refit_without(arena, options, drop)
        return
    want = _outcome(lambda: _minimize(cells, cw, arena.n_models, options, None))
    got = _outcome(lambda: refit_without(arena, options, drop))
    assert got == want


@st.composite
def solves(draw):
    m = draw(st.integers(2, 8))
    n = draw(st.integers(1, 40))
    records = []
    for _ in range(n):
        a, b = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
        records.append((a, b, draw(st.integers(0, 1))))
    arena = Arena.from_records([f"m{k}" for k in range(m)], records)
    weights = draw(st.sampled_from(["none", "integers", "floats"]))
    if weights == "none":
        w = None
    elif weights == "integers":
        w = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=np.float64)
    else:
        w = np.array(draw(st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 10.0)), min_size=n, max_size=n)))
    if w is not None:
        w = w * draw(st.sampled_from([1.0, 1e3, 1e6]))
    options = SolverOptions(
        ridge=draw(st.sampled_from([0.0, 1e-6])),
        max_iter=draw(st.sampled_from([1, 3, 100, 100])),
    )
    theta0 = None
    if draw(st.booleans()):
        theta0 = np.array([0.0, *draw(st.lists(
            st.floats(-4.0, 4.0), min_size=m - 1, max_size=m - 1))])
    drop = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    return arena, w, options, theta0, drop


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(solves())
def test_fit_and_refit_match_the_reference_bit_for_bit(case):
    arena, w, options, theta0, drop = case
    _assert_fit_matches(arena, w, options, theta0)
    _assert_refit_matches(arena, options, drop)


def test_divergence_matches_the_reference():
    # Separated and ridgeless, with a tolerance the vanishing gradient never meets.
    arena = two_player_arena(3, 0)
    options = SolverOptions(ridge=0.0, tol=1e-30, max_iter=1000)
    assert fit(arena, options=options).stop_reason == "divergence"
    _assert_fit_matches(arena, None, options)
    _assert_refit_matches(arena, options, [0])


def test_large_total_weight_basin_path_matches_the_reference(monkeypatch):
    # At a total weight of about 1e9 the line search meets its resolution floor
    # with a short Newton step, so it takes the full step without a search.
    arena = generate(round_robin_spec(3, n_models=30, games_per_pair=3))
    w = np.full(arena.n_matchups, 1e6)
    objective, armijo_step = _objective, _armijo_step
    evaluations, basin_steps = [], []

    def counting_objective(*args):
        evaluations.append(None)
        return objective(*args)

    def recording_armijo(*args):
        before = len(evaluations)
        step = armijo_step(*args)
        # A search evaluates its start and at least one candidate; the basin only its start.
        basin_steps.append(len(evaluations) == before + 1 and step == 1.0)
        return step

    monkeypatch.setitem(globals(), "_objective", counting_objective)
    monkeypatch.setitem(globals(), "_armijo_step", recording_armijo)
    for options in (SolverOptions(ridge=0.0), SolverOptions()):
        basin_steps.clear()
        _assert_fit_matches(arena, w, options)
        assert any(basin_steps)


def test_hessian_factor_matrix_matches_the_reference_curvature():
    for seed in range(6):
        arena = generate(round_robin_spec(seed, n_models=3 + seed, games_per_pair=3))
        for options in (SolverOptions(ridge=0.0), SolverOptions(), SolverOptions(ridge=0.5)):
            bt = fit(arena, options=options)
            cells = arena.cells
            cw = bt.class_weights
            probs = sigmoid(bt.scores[cells.lo] - bt.scores[cells.hi])
            want = _curvature(cells, cw[1::2] + cw[0::2], probs, options.ridge, arena.n_models)
            got = hessian_factor(bt).matrix
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_line_search_floor_matches_the_reference(monkeypatch):
    # With no halvings allowed, the first damped step has no acceptable length.
    import btaudit.btmodel as btmodel_mod

    monkeypatch.setattr(btmodel_mod, "_MAX_HALVINGS", 0)
    monkeypatch.setitem(globals(), "_MAX_HALVINGS", 0)
    arena = generate(round_robin_spec(2, n_models=5))
    assert fit(arena).stop_reason == "line_search_floor"
    _assert_fit_matches(arena, None, SolverOptions())
    _assert_refit_matches(arena, SolverOptions(), [0, 3])


@pytest.mark.parametrize("theta0", [[0.0, 1.0], [0.0, float("nan")], [1.0, 0.0], [0.0]])
def test_warm_start_outcomes_match_the_reference(theta0):
    _assert_fit_matches(two_player_arena(3, 1), None, SolverOptions(), np.array(theta0))


# ---- the stacked loop, row by row ----

def _assert_stack_matches(arena, cws, options):
    """Each row of one stacked solve equals ``_minimize`` and the reference on that row."""
    import btaudit.btmodel as btmodel_mod

    cells = arena.cells
    theta, reasons, iterations, gnorms = btmodel_mod._minimize_stack(
        cells, cws, arena.n_models, options)
    assert theta.shape == (cws.shape[0], arena.n_models)
    for row, cw in enumerate(cws):
        want = _outcome(lambda: btmodel_mod._minimize(cells, cw, arena.n_models, options, None))
        assert _outcome(lambda: _minimize(cells, cw, arena.n_models, options, None)) == want
        if want[0] == "error":
            assert reasons[row] is None
            continue
        got = (theta[row].tobytes(), reasons[row], int(iterations[row]), gnorms[row].tobytes())
        assert got == want


def _count_rows(arena, drop, scale):
    """Class weights of the full data, without ``drop`` and without each of its rows, scaled."""
    cells = arena.cells
    full = cells.class_counts.astype(np.float64)
    rows = [full]
    for removed in ([*drop], *([k] for k in drop[:6])):
        cw = full.copy()
        np.subtract.at(cw, cells.row_class[np.asarray(removed, dtype=np.int64)], 1.0)
        rows.append(cw)
    return [scale * cw for cw in rows]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(solves(), st.sampled_from([1.0, 1e3, 1e6]))
def test_each_row_of_a_stack_matches_its_own_solve_bit_for_bit(case, scale):
    arena, w, options, _, drop = case
    rows = _count_rows(arena, drop, scale)
    if w is not None:
        rows.insert(0, arena.cells.class_weights(w))
    _assert_stack_matches(arena, np.stack(rows), options)


def test_stack_rows_at_the_line_search_floor_match(monkeypatch):
    import btaudit.btmodel as btmodel_mod

    monkeypatch.setattr(btmodel_mod, "_MAX_HALVINGS", 0)
    monkeypatch.setitem(globals(), "_MAX_HALVINGS", 0)
    arena = generate(round_robin_spec(2, n_models=5))
    cws = np.stack(_count_rows(arena, [0, 3, 7], 1.0))
    reasons = btmodel_mod._minimize_stack(arena.cells, cws, arena.n_models, SolverOptions())[1]
    assert set(reasons) == {"line_search_floor"}
    _assert_stack_matches(arena, cws, SolverOptions())
