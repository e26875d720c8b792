"""Weighted maximum-likelihood fitting of pairwise-strength scores.

The negative log-likelihood is convex and low-dimensional (one free coordinate
per model beyond the pinned reference), so a damped Newton iteration with a
dense solve per step is cheap and deterministic. It depends on a weighting only
through its sums over the arena's (pair cell, winner) classes, so a fit carries
those class weights, never a per-matchup vector, and iterates on pair cells.
Each iterate gathers its cell differences ``z = theta[lo] - theta[hi]`` once for
its gradient, curvature and objective value, and the candidate that a line
search accepts carries its ``z`` and objective value on to the next iterate.
"""

from __future__ import annotations

import math
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
        if self.ridge < 0 or not np.isfinite(self.ridge):
            raise FitError("ridge must be a finite non-negative number")
        if not self.tol > 0:
            raise FitError("tol must be positive")
        if self.max_iter < 1:
            raise FitError("max_iter must be at least 1")


@dataclass
class BtFit:
    """A fitted score vector under a data weighting, with solver diagnostics.

    ``scores[0]`` is exactly 0 (the reference); ``class_weights`` (read-only)
    holds the weight of each class of ``arena.cells``. Immutable after construction
    apart from an internal cache, filled on first use and read-only, that holds
    everything derived from the fit for the fit's lifetime: one curvature
    factorization, each model's class influence (at most M vectors of
    2 * cells floats) and each audited pair's drop order.
    ``stop_reason`` says why the solver stopped: ``"tol"`` (the gradient
    tolerance was met), ``"max_iter"``, ``"line_search_floor"`` (no step
    decreased the objective) or ``"divergence"`` (scores drifted past the
    bound with no ridge). A fit
    stopped at ``"tol"`` can still carry ``converged=False`` when ridge = 0 and
    some model's record is all wins or all losses.
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


# The likelihood core. Every function below works on pair cells: ``wins[c]`` and
# ``total[c]`` are the weight of cell c's matchups that its lower-index model won
# and of all of them, so one Newton step costs O(cells), whatever the row count.

def _per_model(cells: PairCells, as_lo, as_hi, n_models: int) -> np.ndarray:
    """Per-model sums of a cell quantity, seen from the lower and the higher model."""
    return np.bincount(cells.lo, weights=as_lo, minlength=n_models) + np.bincount(
        cells.hi, weights=as_hi, minlength=n_models
    )


def _value(z, theta, wins, total, ridge) -> float:
    """The objective at ``theta``, from its cell differences ``z = theta[lo] - theta[hi]``."""
    val = float(total @ np.logaddexp(0.0, z) - wins @ z)
    if ridge:
        free = theta[1:]
        val += 0.5 * ridge * float(free @ free)
    return val


def _curvature(cells: PairCells, total, p, ridge, n_models) -> np.ndarray:
    """Curvature on the free coordinates; cells are distinct pairs, so entries are set, not summed."""
    off = total * p * (p - 1.0)  # minus each cell's weighted variance
    h = np.zeros(n_models * n_models)
    upper, lower = cells.slots
    h[upper] = off
    h[lower] = off
    # The ridge lands on the reference's diagonal entry too, which is cut off below.
    h[:: n_models + 1] = ridge - _per_model(cells, off, off, n_models)
    return h.reshape(n_models, n_models)[1:, 1:]


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

    lo, hi = cells.lo, cells.hi
    ridge, tol = options.ridge, options.tol
    iterations = 0
    z = theta[lo] - theta[hi]
    f = None  # the objective at theta, once computed

    while True:
        p = sigmoid(z)
        r = total * p - wins
        g = np.bincount(lo, weights=r, minlength=n_models) - np.bincount(
            hi, weights=r, minlength=n_models
        )
        g = g[1:]
        if ridge:
            g = g + ridge * theta[1:]
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

        d, slope = _direction(_curvature(cells, total, p, ridge, n_models), g)
        reach = float(np.abs(d).max())
        # In the quadratic basin the full Newton step is safe, and a large total
        # weight gets there with the predicted decrease below the objective's
        # resolution, where a search could not rank candidates: no search there.
        basin = gnorm <= _PURE_NEWTON_GRAD and reach <= 1.0
        if not basin:
            if f is None:
                f = _value(z, theta, wins, total, ridge)
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
                f_cand = _value(z, cand, wins, total, ridge)
                if f_cand <= f + _ARMIJO * step * slope:
                    break
                step *= 0.5
            else:
                reason = "line_search_floor"  # reached before the gradient tolerance
                break
            theta, f = cand, f_cand
        iterations += 1

    return theta, reason, iterations, gnorm


# The same loop over a stack of weightings. Every row performs the floating-point
# operations of ``_minimize`` in the same order: sums per row go through one
# ``bincount`` with row offsets (the same order of addition per bin), dot products
# through ``np.vecdot`` on rows with the single solve's strides, and ``exp`` sees
# contiguous arrays, so each row's results are bit-identical to its own ``_minimize``.

def _bincount_rows(idx, weights, length: int) -> np.ndarray:
    """``np.bincount(idx, weights=row, minlength=length)`` for each row of ``weights``, in one call."""
    rows = weights.shape[0]
    bins = (np.arange(rows)[:, None] * length + idx).ravel()
    return np.bincount(bins, weights=weights.ravel(), minlength=rows * length).reshape(rows, length)


def _values(z, theta, wins, total, ridge) -> np.ndarray:
    """``_value`` for each row of a stack."""
    val = np.vecdot(total, np.logaddexp(0.0, z)) - np.vecdot(wins, z)
    if ridge:
        free = theta[:, 1:]
        val = val + 0.5 * ridge * np.vecdot(free, free)
    return val


def _directions(cells: PairCells, total, p, g, ridge, n_models):
    """``_direction`` for each row of a stack: one stacked solve, ``_direction`` where it fails."""
    off = total * p * (p - 1.0)
    h = np.zeros((off.shape[0], n_models * n_models))
    upper, lower = cells.slots
    h[:, upper] = off
    h[:, lower] = off
    diag = _bincount_rows(cells.lo, off, n_models) + _bincount_rows(cells.hi, off, n_models)
    h[:, :: n_models + 1] = ridge - diag
    h = h.reshape(-1, n_models, n_models)[:, 1:, 1:]
    try:
        d = np.linalg.solve(h, -g[:, :, None])[:, :, 0]
        slope = np.vecdot(g, d)
        redo = np.flatnonzero(~(np.isfinite(d).all(axis=1) & (slope < 0)))
    except np.linalg.LinAlgError:
        d, slope = np.empty_like(g), np.empty(g.shape[0])
        redo = range(g.shape[0])
    for i in redo:
        d[i], slope[i] = _direction(h[i], g[i])
    return d, slope


def _minimize_stack(cells: PairCells, cws: np.ndarray, n_models: int, options: SolverOptions):
    """``_minimize`` from a cold start for each row of the class weights ``cws``, all at once.

    Rows leave the stack as they stop, so the rows still in it share one
    iteration count. Returns (theta, stop_reason, iterations, gradient_norm), one
    entry per row; where ``_minimize`` would raise on a non-finite gradient the
    row's stop reason is None.
    """
    n_rows = cws.shape[0]
    lo, hi = cells.lo, cells.hi
    ridge, tol = options.ridge, options.tol
    out_theta = np.zeros((n_rows, n_models))
    out_reason: list[str | None] = [None] * n_rows
    out_iterations = np.zeros(n_rows, dtype=np.int64)
    out_gnorm = np.zeros(n_rows)

    def retire(idx, reasons):
        """Record the rows at positions ``idx`` as stopped at the current iterate."""
        for i, reason in zip(idx, reasons):
            out_reason[rows[i]] = reason
        out_theta[rows[idx]] = theta[idx]
        out_iterations[rows[idx]] = iterations
        out_gnorm[rows[idx]] = gnorm[idx]

    rows = np.arange(n_rows)
    cw = cws
    theta = np.zeros((n_rows, n_models))
    z = theta[:, lo] - theta[:, hi]
    f = np.zeros(n_rows)
    known = np.zeros(n_rows, dtype=bool)  # whether f holds the objective at theta
    iterations = 0

    while rows.size:
        total = cw[:, 1::2] + cw[:, 0::2]
        p = sigmoid(z)
        r = total * p - cw[:, 1::2]
        g = _bincount_rows(lo, r, n_models) - _bincount_rows(hi, r, n_models)
        g = g[:, 1:]
        if ridge:
            g = g + ridge * theta[:, 1:]
        gnorm = np.abs(g).max(axis=1)

        reason = np.full(rows.size, "", dtype=object)
        reason[gnorm <= tol] = "tol"
        if iterations >= options.max_iter:
            reason[reason == ""] = "max_iter"
        elif ridge == 0.0:
            reason[(reason == "") & (np.abs(theta).max(axis=1) > _DIVERGENCE_BOUND)] = "divergence"
        reason[~np.isfinite(gnorm)] = None
        go = reason == ""
        if not go.all():
            retire(np.flatnonzero(~go), reason[~go])
            rows, cw, theta, z, f, known, total, p, g, gnorm = (
                a[go] for a in (rows, cw, theta, z, f, known, total, p, g, gnorm))
            if not rows.size:
                break

        d, slope = _directions(cells, total, p, g, ridge, n_models)
        reach = np.abs(d).max(axis=1)
        basin = (gnorm <= _PURE_NEWTON_GRAD) & (reach <= 1.0)
        fresh = ~basin & ~known
        if fresh.any():
            f[fresh] = _values(z[fresh], theta[fresh], cw[fresh][:, 1::2], total[fresh], ridge)
        basin |= (-slope <= _LINE_SEARCH_RESOLUTION * np.abs(f)) & (reach <= 1.0)

        theta[basin, 1:] += d[basin]
        moved = theta[basin]
        z[basin] = moved[:, lo] - moved[:, hi]
        known[basin] = False

        # Line searches in lockstep: each row still searching halves its own step.
        search = np.flatnonzero(~basin)
        step = np.ones(search.size)
        for _ in range(_MAX_HALVINGS):
            if not search.size:
                break
            cand = theta[search]
            cand[:, 1:] += step[:, None] * d[search]
            z_cand = cand[:, lo] - cand[:, hi]
            f_cand = _values(z_cand, cand, cw[search][:, 1::2], total[search], ridge)
            ok = f_cand <= f[search] + _ARMIJO * step * slope[search]
            done = search[ok]
            theta[done], z[done], f[done], known[done] = cand[ok], z_cand[ok], f_cand[ok], True
            search, step = search[~ok], step[~ok] * 0.5
        if search.size:  # the line-search floor, reached before the gradient tolerance
            retire(search, ["line_search_floor"] * search.size)
            go = np.ones(rows.size, dtype=bool)
            go[search] = False
            rows, cw, theta, z, f, known = (a[go] for a in (rows, cw, theta, z, f, known))
        iterations += 1

    return out_theta, out_reason, out_iterations, out_gnorm


def fit(
    arena: Arena,
    weighting: np.ndarray | None = None,
    options: SolverOptions | None = None,
    warm_start: np.ndarray | None = None,
) -> BtFit:
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
    cells = arena.cells
    n_models = arena.n_models
    wins, losses = cw[1::2], cw[0::2]
    total = wins + losses

    scores, stop_reason, iterations, gnorm = _minimize(cells, cw, n_models, options, warm_start)
    converged = stop_reason == "tol"

    games = _per_model(cells, total, total, n_models)
    diverged = False
    if options.ridge == 0.0:
        # A model whose weighted record is all wins or all losses has an unbounded likelihood.
        record = _per_model(cells, wins, losses, n_models)
        boundary = (games > 0) & ((record == 0) | (record == games))
        if float(np.abs(scores).max()) > _DIVERGENCE_BOUND or bool(np.any(boundary)):
            diverged = True
            converged = False

    unidentified = tuple(int(k) for k in np.flatnonzero(games == 0))
    scores.flags.writeable = False
    return BtFit(
        arena=arena,
        options=options,
        class_weights=cw,
        scores=scores,
        converged=converged,
        diverged=diverged,
        iterations=iterations,
        gradient_norm=gnorm,
        unidentified=unidentified,
        stop_reason=stop_reason,
    )


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
    ties = tuple(
        (int(order[r]), int(order[r + 1]))
        for r in range(scores.size - 1)
        if scores[order[r]] == scores[order[r + 1]]
    )
    return Ranking(order=tuple(int(k) for k in order), tie_note=ties)


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
    ia = arena.models.resolve(a)
    ib = arena.models.resolve(b)
    if ia == ib:
        raise ValueError("head-to-head needs two distinct models")
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
