"""Weighted maximum-likelihood fitting of pairwise-strength scores.

The negative log-likelihood is convex and low-dimensional (one free coordinate
per model beyond the pinned reference), so a damped Newton iteration with a
dense solve per step is cheap and deterministic. It depends on a weighting only
through its sums over the arena's (pair cell, winner) classes, so a fit carries
those class weights, never a per-matchup vector, and iterates on pair cells.
One likelihood core (objective, gradient, per-model sums, curvature) serves a
fit, its influence factor, every refit and the exhaustive oracle's stacked refits.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .arena import Arena, PairCells

__all__ = [
    "BtFit",
    "FitError",
    "HeadToHead",
    "Ranking",
    "SolverOptions",
    "fit",
    "head_to_head",
    "ranking",
    "refit_without",
    "sigmoid",
]

# Score spread beyond this with no ridge signals an unbounded likelihood.
_DIVERGENCE_BOUND = 30.0
# Below this gradient norm the iterate is in the quadratic basin; take raw Newton steps.
_PURE_NEWTON_GRAD = 1e-5
# The line search compares objective values, so it cannot resolve a predicted
# decrease within 64 ulps of the objective. Large total weights get there at
# gradient norms above _PURE_NEWTON_GRAD; raw Newton steps are taken there too.
_LINE_SEARCH_RESOLUTION = 64.0 * np.finfo(np.float64).eps
_ARMIJO = 1e-4
_MAX_HALVINGS = 40


class FitError(ValueError):
    """Raised for unusable weightings, dimension mismatches, or non-finite values."""


@dataclass(frozen=True)
class SolverOptions:
    """Knobs shared by a fit and every refit compared against it."""

    ridge: float = 1e-6
    tol: float = 1e-8
    max_iter: int = 100

    def __post_init__(self):
        for name in ("ridge", "tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise FitError(f"{name} must be a real number, got {value!r}")
        if self.ridge < 0 or not math.isfinite(self.ridge):
            raise FitError("ridge must be a finite non-negative number")
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise FitError("tol must be a finite positive number")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral):
            raise FitError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise FitError("max_iter must be an integer of at least 1")


@dataclass
class BtFit:
    """A fitted score vector under a data weighting, with solver diagnostics.

    ``scores[0]`` is exactly 0 (the reference); ``class_weights`` (read-only)
    holds the weight of each class of ``arena.cells``. Immutable after construction
    apart from an internal cache, filled on first use and read-only, that holds
    everything derived from the fit for the fit's lifetime: one curvature
    factorization, each model's class influence (at most M vectors of
    2 * cells floats) and each report a pair check returned without a refit.
    Every entry is set once and never replaced.
    ``stop_reason`` says why the solver stopped: ``"tol"`` (the gradient
    tolerance was met), ``"max_iter"``, ``"line_search_floor"`` (no step
    decreased the objective) or ``"divergence"`` (scores drifted past the
    bound with no ridge). A fit stopped at ``"tol"`` can still carry
    ``converged=False`` when ridge = 0 and some model's record is all wins or all losses.
    """

    arena: Arena
    options: SolverOptions
    class_weights: np.ndarray
    scores: np.ndarray
    converged: bool
    diverged: bool
    iterations: int
    gradient_norm: float
    unidentified: tuple[int, ...]
    stop_reason: str
    _cache: dict = field(default_factory=dict, repr=False, compare=False)


def sigmoid(z):
    """Logistic function 1 / (1 + exp(-z)), silent for any finite or infinite input.

    Accurate to a few ulps in both tails; below z = -709, where exp(-z) would
    overflow, it returns 1 / (1 + exp(709)) ~ 1.2e-308 in place of a value that
    is at most that small.
    """
    return 1.0 / (1.0 + np.exp(np.minimum(-z, 709.0)))


# The likelihood core. ``wins[c]`` and ``total[c]`` are the weight of cell c's
# matchups that its lower-index model won and of all of them, so a Newton step
# costs O(cells), whatever the row count. Each function takes one weighting's cell
# quantities as 1-d arrays, or a stack's as row-major 2-d arrays, a row each, and
# gives each row the bits of its own one-row call: a stack sums all its rows in one
# ``bincount`` over bins numbered row by row (each bin adds in the row's own order),
# and its dot products and ``exp`` see one row's strides.


def _row_bins(idx, rows: int, length: int) -> np.ndarray:
    """Bin numbers ``i * length + idx`` for row i of a stack; the first k rows' are a prefix."""
    return (np.arange(rows)[:, None] * length + idx).ravel()


# The core's index objects for one weighting or a stack of ``shape[0]``, built once
# per solve (a stack's ``_head`` once per iterate): indexing with a prepared object
# costs a fraction of indexing with one derived from shapes. ``lo`` and ``hi`` give
# each cell's bins, ``free`` and ``inner`` the free coordinates of scores and of
# curvature matrices, flattened with the cells at ``upper`` and ``lower``.
_Frame = namedtuple("_Frame", "lo hi size shape square free inner upper lower diag")


def _frame(cells: PairCells, n_models: int, rows: int | None = None) -> _Frame:
    """The frame of one weighting, or of a stack of ``rows`` weightings."""
    m, slots, free = n_models, cells.slots, slice(1, None)
    diag = slice(None, None, m + 1)
    if rows is None:
        return _Frame(cells.lo, cells.hi, m, (m,), (m, m), free, (free, free), slots[0], slots[1], diag)
    every = slice(None)
    return _Frame(_row_bins(cells.lo, rows, m), _row_bins(cells.hi, rows, m), rows * m, (rows, m),
                  (rows, m, m), (every, free), (every, free, free), (every, slots[0]),
                  (every, slots[1]), (every, diag))


def _head(fr: _Frame, k: int) -> _Frame:
    """The frame of a stack's first k rows."""
    n, m = k * (fr.lo.size // fr.shape[0]), fr.shape[1]
    return fr._replace(lo=fr.lo[:n], hi=fr.hi[:n], size=k * m, shape=(k, m), square=(k, m, m))


def _per_model(fr: _Frame, as_lo, as_hi, combine=np.add) -> np.ndarray:
    """Per-model sums of a cell quantity as the lower model, ``combine``d with those as the higher."""
    return combine(np.bincount(fr.lo, as_lo.ravel(), fr.size),
                   np.bincount(fr.hi, as_hi.ravel(), fr.size)).reshape(fr.shape)


def _gradient(fr: _Frame, theta, p, wins, total, ridge) -> np.ndarray:
    """The objective's gradient on the free coordinates; ``p`` is each cell's ``sigmoid(z)``."""
    r = total * p - wins
    g = _per_model(fr, r, r, np.subtract)[fr.free]  # r as the lower model, -r as the higher
    if ridge:
        g = g + ridge * theta[fr.free]
    return g


def _curvature(fr: _Frame, h, total, p, ridge) -> np.ndarray:
    """A view of the curvature on the free coordinates, assembled in ``h``.

    ``h`` holds flattened M-by-M matrices, zero off the cells' slots; cells are
    distinct pairs, so entries are set, not summed.
    """
    off = total * p * (p - 1.0)  # minus each cell's weighted variance
    h[fr.upper] = off
    h[fr.lower] = off
    # The ridge lands on the reference's diagonal entry too, which is cut off below.
    h[fr.diag] = ridge - _per_model(fr, off, off)
    return h.reshape(fr.square)[fr.inner]


def _value(fr: _Frame, z, theta, wins, total, ridge):
    """The objective at ``theta``, from its cell differences ``z = theta[lo] - theta[hi]``."""
    val = np.vecdot(total, np.logaddexp(0.0, z)) - np.vecdot(wins, z)
    if ridge:
        free = theta[fr.free]
        val = val + 0.5 * ridge * np.vecdot(free, free)
    return val


# logaddexp(0, 0): each cell's term of the objective at the cold start, where z = 0.
_LOG2 = float(np.logaddexp(0.0, 0.0))


def _cold_value(total):
    """``_value`` at the cold start: there z = 0, each cell's term is log 2, and the ridge adds 0."""
    return np.vecdot(total, np.full(total.shape[-1], _LOG2))


def _direction(h: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, float]:
    """Newton direction and its slope ``g @ d``; plain descent where the curvature fails."""
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
    slope = None if d is None else float(g @ d)
    if slope is None or slope >= 0:
        d = -g  # singular curvature: plain descent step
        slope = float(g @ d)
    return d, slope


def _minimize(cells: PairCells, cw, n_models, options: SolverOptions, theta0):
    """Damped Newton under class weights ``cw``, with reference coordinate pinned at 0.

    Each iterate's cell differences ``z`` feed its gradient, curvature and
    objective value; a step accepted by the line search carries its ``z`` and
    value on to the next iterate. Returns (theta, stop_reason, iterations,
    gradient_norm); see ``BtFit``.
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

    fr = _frame(cells, n_models)
    h = np.zeros(n_models * n_models)  # the curvature's buffer: entries off the cells' slots stay 0
    lo, hi = cells.lo, cells.hi
    ridge, tol = options.ridge, options.tol
    iterations = 0
    z = theta[lo] - theta[hi]
    f = None if theta0 is not None else _cold_value(total)  # the objective at theta, once known

    while True:
        p = sigmoid(z)
        g = _gradient(fr, theta, p, wins, total, ridge)
        gnorm = float(np.abs(g).max()) if g.size else 0.0
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

        d, slope = _direction(_curvature(fr, h, total, p, ridge), g)
        reach = float(np.abs(d).max())
        # In the quadratic basin the full Newton step is safe, and a large total
        # weight gets there with the predicted decrease below the objective's
        # resolution, where a search could not rank candidates: no search there.
        basin = gnorm <= _PURE_NEWTON_GRAD and reach <= 1.0
        if not basin:
            if f is None:
                f = _value(fr, z, theta, wins, total, ridge)
            basin = -slope <= _LINE_SEARCH_RESOLUTION * abs(f) and reach <= 1.0
        if basin:
            theta[1:] += d
            z = theta[lo] - theta[hi]
            f = None
        else:
            step = 1.0
            for _ in range(_MAX_HALVINGS):
                cand = theta.copy()
                cand[1:] += step * d
                z = cand[lo] - cand[hi]
                f_cand = _value(fr, z, cand, wins, total, ridge)
                if f_cand <= f + _ARMIJO * step * slope:
                    break
                step *= 0.5
            else:
                reason = "line_search_floor"  # reached before the gradient tolerance
                break
            theta, f = cand, f_cand
        iterations += 1

    return theta, reason, iterations, gnorm


# Stop codes of the stacked loop, indexes into _STOP_REASONS; 0 marks a row still
# iterating, and _NON_FINITE one where ``_minimize`` would raise.
_TOL, _MAX_ITER, _DIVERGENCE, _FLOOR, _NON_FINITE = 1, 2, 3, 4, 5
_STOP_REASONS = (None, "tol", "max_iter", "divergence", "line_search_floor", None)


def _minimize_stack(cells: PairCells, cws: np.ndarray, n_models: int, options: SolverOptions,
                    settled=None):
    """``_minimize`` from a cold start for each row of the class weights ``cws``, all at once.

    The same core and steps, so each row's results are bit-identical to its own
    solve. Rows leave the stack as they stop, so the rows still in it share one
    iteration count. Returns (theta, stop_reason, iterations, gradient_norm), an
    entry per row; a row where ``_minimize`` would raise stops with reason None.

    ``settled``, when given, may end the solve early. The rows before the first
    one still iterating have all stopped; each time that prefix grows, ``settled``
    is called with the scores of the rows that joined it, in order. Once it returns
    True, or one of those rows met non-finite values, the rows still iterating are
    abandoned: their entries keep reason None, 0 iterations and zero scores.
    """
    n_rows, n_cells = cws.shape[0], cells.n_cells
    ridge, tol = options.ridge, options.tol
    # The live rows stay compacted at the top of the stack, so their frame is a
    # head of this one, and their curvature buffer a head of these rows.
    stack = fr = _frame(cells, n_models, n_rows)
    h_rows = np.zeros((n_rows, n_models * n_models))  # entries off the cells' slots stay 0
    at_lo, at_hi = stack.lo.reshape(n_rows, n_cells), stack.hi.reshape(n_rows, n_cells)

    # Cell differences gathered row-major: ``t[:, lo]`` is column-major, and its rows'
    # dot products would take other strides, and give other bits, than one row's.
    def differences(t):
        return t.take(at_lo[:len(t)]) - t.take(at_hi[:len(t)])

    out_theta = np.zeros((n_rows, n_models))
    out_code = np.zeros(n_rows, dtype=np.int8)
    out_iterations = np.zeros(n_rows, dtype=np.int64)
    out_gnorm = np.zeros(n_rows)

    rows, cw, total = np.arange(n_rows), cws, cws[:, 1::2] + cws[:, 0::2]
    theta = np.zeros((n_rows, n_models))
    z = np.zeros((n_rows, n_cells))
    f = _cold_value(total)  # the objective at theta
    iterations = lead = 0  # rows before ``lead`` have stopped, and ``settled`` has seen them

    def retire(idx, codes, gnorm):
        """Record the rows at positions ``idx`` as stopped at the current iterate."""
        out = rows[idx]
        out_code[out] = codes
        out_theta[out] = theta[idx]
        out_iterations[out] = iterations
        out_gnorm[out] = gnorm[idx]

    while rows.size:
        p = sigmoid(z)
        g = _gradient(fr, theta, p, cw[:, 1::2], total, ridge)
        gnorm = np.abs(g).max(axis=1)

        go = np.isfinite(gnorm) & (gnorm > tol)
        if iterations >= options.max_iter:
            go[:] = False
        elif ridge == 0.0:
            go &= ~(np.abs(theta).max(axis=1) > _DIVERGENCE_BOUND)
        if not go.all():
            stop = np.flatnonzero(~go)
            codes = np.where(gnorm[stop] <= tol, _TOL,
                             _MAX_ITER if iterations >= options.max_iter else _DIVERGENCE)
            codes[~np.isfinite(gnorm[stop])] = _NON_FINITE
            retire(stop, codes, gnorm)
            rows, cw, total, theta, z, f, p, g, gnorm = (
                a[go] for a in (rows, cw, total, theta, z, f, p, g, gnorm))
            if not rows.size:
                break
            fr = _head(stack, rows.size)
        # The live rows stay in stack order, so the first of them ends the stopped prefix.
        if settled is not None and rows[0] > lead:
            joined, lead = slice(lead, int(rows[0])), int(rows[0])
            if (out_code[joined] == _NON_FINITE).any() or settled(out_theta[joined]):
                break
        k = rows.size

        # _direction for each row: one stacked solve, _direction itself where it fails.
        h = _curvature(fr, h_rows[:k], total, p, ridge)
        try:
            d = np.linalg.solve(h, -g[:, :, None])[:, :, 0]
            slope = np.vecdot(g, d)
            redo = np.flatnonzero(~(np.isfinite(d).all(axis=1) & (slope < 0)))
        except np.linalg.LinAlgError:
            d, slope = np.empty_like(g), np.empty(k)
            redo = range(k)
        for i in redo:
            d[i], slope[i] = _direction(h[i], g[i])

        # One step path: each row's line search starts at the full step, taken
        # unconditionally by a row in the quadratic basin (as ``_minimize`` tells it)
        # and by the Armijo test otherwise; rows that fail halve their steps in
        # lockstep. ``_minimize``'s basin step lies outside its ``_MAX_HALVINGS``
        # candidates, so one round runs even with none, and only those test Armijo.
        # An accepted candidate keeps its objective: ``f`` is always that at ``theta``.
        basin = ((gnorm <= _PURE_NEWTON_GRAD) | (-slope <= _LINE_SEARCH_RESOLUTION * np.abs(f))) & (
            np.abs(d).max(axis=1) <= 1.0)
        search, step = np.ones(k, dtype=bool), 1.0  # the rows yet to accept a step
        for attempt in range(max(_MAX_HALVINGS, 1)):
            cand = theta.copy()
            cand[:, 1:] += step * d
            z_cand = differences(cand)
            f_cand = _value(fr, z_cand, cand, cw[:, 1::2], total, ridge)
            ok = search & (basin | ((attempt < _MAX_HALVINGS) & (f_cand <= f + _ARMIJO * step * slope)))
            if ok.all():
                theta, z, f = cand, z_cand, f_cand
            else:
                theta[ok], z[ok], f[ok] = cand[ok], z_cand[ok], f_cand[ok]
            search &= ~ok
            if not search.any():
                break
            step *= 0.5
        if search.any():  # the line-search floor, reached before the gradient tolerance
            retire(np.flatnonzero(search), _FLOOR, gnorm)
            rows, cw, total, theta, z, f = (a[~search] for a in (rows, cw, total, theta, z, f))
            fr = _head(stack, rows.size)
        iterations += 1

    return out_theta, [_STOP_REASONS[c] for c in out_code.tolist()], out_iterations, out_gnorm


def fit(arena: Arena, weighting: np.ndarray | None = None, options: SolverOptions | None = None,
        warm_start: np.ndarray | None = None) -> BtFit:
    """Minimize the weighted negative log-likelihood with the reference score pinned to 0.

    Deterministic for fixed inputs and options. With ridge = 0 and a separated or
    disconnected weighting the likelihood has no finite minimizer; the fit then
    carries ``diverged=True`` and an honest ``converged=False``.
    """
    options = options or SolverOptions()
    cells = arena.cells
    if weighting is None:
        return _fit_classes(arena, cells.class_counts.astype(np.float64), options, warm_start)
    w = np.ascontiguousarray(weighting, dtype=np.float64)
    if not np.all(np.isfinite(w)) or (w.size and w.min() < 0):
        raise FitError("weights must be finite and non-negative")
    if w.shape != (arena.n_matchups,):
        raise FitError(f"weighting has length {w.shape}, arena has {arena.n_matchups} matchups")
    return _fit_classes(arena, cells.class_weights(w), options, warm_start)


def _fit_classes(arena: Arena, cw: np.ndarray, options: SolverOptions, warm_start) -> BtFit:
    """Fit and diagnose under class weights ``cw`` (2 * cells long; made read-only)."""
    if not np.any(cw > 0):
        raise FitError("all weights are zero")
    cw.flags.writeable = False
    cells, n_models = arena.cells, arena.n_models
    wins, losses, total = cw[1::2], cw[0::2], cw[1::2] + cw[0::2]

    scores, stop_reason, iterations, gnorm = _minimize(cells, cw, n_models, options, warm_start)
    converged = stop_reason == "tol"

    fr = _frame(cells, n_models)
    games = _per_model(fr, total, total)
    diverged = False
    if options.ridge == 0.0:
        # A model whose weighted record is all wins or all losses has an unbounded likelihood.
        record = _per_model(fr, wins, losses)
        boundary = (games > 0) & ((record == 0) | (record == games))
        if float(np.abs(scores).max()) > _DIVERGENCE_BOUND or bool(np.any(boundary)):
            diverged = True
            converged = False

    unidentified = tuple(int(k) for k in np.flatnonzero(games == 0))
    scores.flags.writeable = False
    return BtFit(arena=arena, options=options, class_weights=cw, scores=scores, converged=converged,
                 diverged=diverged, iterations=iterations, gradient_norm=gnorm,
                 unidentified=unidentified, stop_reason=stop_reason)


def refit_without(arena: Arena, options: SolverOptions, drop_indices: Sequence[int]) -> BtFit:
    """Refit with the given matchups removed, under the same options as the base fit.

    A model left with no matchups at all is reported in ``unidentified`` (the
    ridge keeps its score at 0); a model left with only wins or only losses is
    not, and the ridge bounds its score. Dropping nothing reproduces the
    full-data fit exactly. The class weights are the cells' cached counts less
    the dropped classes, O(cells + drops): integers, so bit-identical to a 0/1 weighting's.
    """
    idx = np.asarray(list(drop_indices))
    if idx.size and idx.dtype.kind not in "iu":
        raise FitError("drop indices must be integers")
    if idx.size and (idx.min() < 0 or idx.max() >= arena.n_matchups):
        raise FitError("drop indices out of range")
    if np.unique(idx).size != idx.size:
        raise FitError("drop indices must be unique")
    cw = arena.cells.class_counts.astype(np.float64)
    np.subtract.at(cw, arena.cells.row_class[idx.astype(np.int64)], 1.0)
    return _fit_classes(arena, cw, options, None)


@dataclass(frozen=True)
class Ranking:
    """Models sorted by fitted score, best first; exact ties noted and broken by index."""

    order: tuple[int, ...]
    tie_note: tuple[tuple[int, int], ...]


def ranking(fit_or_scores) -> Ranking:
    if isinstance(fit_or_scores, BtFit):
        scores = fit_or_scores.scores
    else:
        scores = np.asarray(fit_or_scores, dtype=np.float64)
    order = np.lexsort((np.arange(scores.size), -scores))
    ranked = scores[order]
    # Neighbours whose scores compare equal: -0.0 ties 0.0, and NaN ties nothing.
    tied = np.flatnonzero(ranked[:-1] == ranked[1:])
    ties = tuple(zip(order[tied].tolist(), order[tied + 1].tolist()))
    return Ranking(order=tuple(order.tolist()), tie_note=ties)


@dataclass(frozen=True)
class HeadToHead:
    """Direct record between two models; win_percent is None when they never met."""

    wins_a: int
    wins_b: int
    win_percent: float | None

    @property
    def met(self) -> bool:
        return self.wins_a + self.wins_b > 0


def head_to_head(arena: Arena, a: int | str, b: int | str) -> HeadToHead:
    ia, ib = arena.models.resolve_pair(a, b)
    # The pair's cell counts the lower-index model's wins in class 2c + 1, the other's in 2c.
    cells, (lo, hi) = arena.cells, sorted((ia, ib))
    c = int(np.searchsorted(cells.slots[0], lo * arena.n_models + hi))
    wins = (0, 0)
    if c < cells.n_cells and cells.lo[c] == lo and cells.hi[c] == hi:
        wins = int(cells.class_counts[2 * c + 1]), int(cells.class_counts[2 * c])
    wins_a, wins_b = wins if ia == lo else wins[::-1]
    total = wins_a + wins_b
    percent = wins_a / total if total else None
    return HeadToHead(wins_a=wins_a, wins_b=wins_b, win_percent=percent)
