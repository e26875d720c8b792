"""Weighted maximum-likelihood fitting of pairwise-strength scores.

The negative log-likelihood is convex and low-dimensional (one free coordinate
per model beyond the pinned reference), so a damped Newton iteration with a
dense solve per step is cheap and deterministic. It depends on a weighting only
through the weighted win counts of each pair of models that met, so a fit
collapses the rows onto the arena's pair cells once and iterates on those.
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
    "Weighting",
    "fit",
    "head_to_head",
    "ranking",
    "refit_without",
    "sigmoid",
    "top_k_set",
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


@dataclass(frozen=True)
class Weighting:
    """Per-matchup data weights; binary with zeros at dropped indices in audit use."""

    w: np.ndarray
    dropped_count: int

    def __post_init__(self):
        w = np.ascontiguousarray(self.w, dtype=np.float64)
        if w.ndim != 1:
            raise FitError("weights must be a 1-d vector")
        if not np.all(np.isfinite(w)) or w.min(initial=0.0) < 0 or w.max(initial=0.0) > 1:
            raise FitError("weights must lie in [0, 1]")
        w.flags.writeable = False
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "dropped_count", int(np.count_nonzero(w == 0.0)))

    @classmethod
    def ones(cls, n: int) -> "Weighting":
        return cls(np.ones(n), 0)

    @classmethod
    def drop(cls, n: int, indices: Sequence[int]) -> "Weighting":
        idx = np.asarray(list(indices), dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise FitError("drop indices out of range")
        if np.unique(idx).size != idx.size:
            raise FitError("drop indices must be unique")
        w = np.ones(n)
        w[idx] = 0.0
        return cls(w, int(idx.size))


@dataclass
class BtFit:
    """A fitted score vector under a data weighting, with solver diagnostics.

    ``scores[0]`` is exactly 0 (the reference). ``fitted_probs[n]`` is the
    probability that side A of matchup n wins under the fitted scores, stored
    for every matchup and recomputable bit-stably from ``scores`` with
    ``sigmoid``. Immutable after construction apart from an internal cache
    reused by influence computations (one curvature factorization per fit).
    """

    arena: Arena
    options: SolverOptions
    weights: np.ndarray
    scores: np.ndarray
    fitted_probs: np.ndarray
    converged: bool
    diverged: bool
    iterations: int
    gradient_norm: float
    unidentified: tuple[int, ...]
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def ridge(self) -> float:
        return self.options.ridge

    @property
    def n_models(self) -> int:
        return self.arena.n_models

    @property
    def n_matchups(self) -> int:
        return self.arena.n_matchups

    def score_gap(self, a: int | str, b: int | str) -> float:
        ia = self.arena.models.resolve(a)
        ib = self.arena.models.resolve(b)
        return float(self.scores[ia] - self.scores[ib])


def _resolve_weights(arena: Arena, weighting) -> np.ndarray:
    if weighting is None:
        return np.ones(arena.n_matchups)
    if isinstance(weighting, Weighting):
        w = weighting.w
    else:
        w = np.ascontiguousarray(weighting, dtype=np.float64)
        if not np.all(np.isfinite(w)) or (w.size and w.min() < 0):
            raise FitError("weights must be finite and non-negative")
    if w.shape != (arena.n_matchups,):
        raise FitError(f"weighting has length {w.shape}, arena has {arena.n_matchups} matchups")
    if not np.any(w > 0):
        raise FitError("all weights are zero")
    return w


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


def _minimize(cells: PairCells, wins, total, n_models, options: SolverOptions, theta0):
    """Damped Newton with reference coordinate pinned at 0.

    Returns (theta, converged, iterations, gradient_norm).
    """
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
    converged = False
    iterations = 0
    g, p = _gradient(theta, cells, wins, total, ridge, n_models)
    gnorm = float(np.abs(g).max()) if g.size else 0.0

    while True:
        if not math.isfinite(gnorm):
            raise FitError("non-finite values encountered during fitting"
                           " (possible separation with ridge = 0)")
        if gnorm <= tol:
            converged = True
            break
        if iterations >= options.max_iter:
            break
        if ridge == 0.0 and float(np.abs(theta).max()) > _DIVERGENCE_BOUND:
            break  # unbounded drift; reported via the diverged flag

        h = _curvature(cells, total, p, ridge, n_models)
        d = _direction(h, g)
        step = 1.0
        if gnorm > _PURE_NEWTON_GRAD or float(np.abs(d).max()) > 1.0:
            step = _armijo_step(theta, d, g, cells, wins, total, ridge)
            if step is None:
                break  # numerical floor reached before the gradient tolerance
        # Otherwise in the quadratic basin: the full Newton step is safe and the
        # objective differences are below float resolution, so skip the search.
        theta = theta.copy()
        theta[1:] += step * d
        iterations += 1
        g, p = _gradient(theta, cells, wins, total, ridge, n_models)
        gnorm = float(np.abs(g).max()) if g.size else 0.0

    return theta, converged, iterations, gnorm


def fit(
    arena: Arena,
    weighting: Weighting | np.ndarray | None = None,
    options: SolverOptions | None = None,
    warm_start: np.ndarray | None = None,
) -> BtFit:
    """Minimize the weighted negative log-likelihood with the reference score pinned to 0.

    Deterministic for fixed inputs and options. With ridge = 0 and a separated or
    disconnected weighting the likelihood has no finite minimizer; the fit then
    carries ``diverged=True`` and an honest ``converged=False``.
    """
    options = options or SolverOptions()
    w = _resolve_weights(arena, weighting)
    cells = arena.cells
    n_models = arena.n_models
    wins, losses = cells.class_weights(w)
    total = wins + losses

    scores, converged, iterations, gnorm = _minimize(
        cells, wins, total, n_models, options, warm_start
    )

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
    probs = sigmoid(scores[arena.side_a] - scores[arena.side_b])

    scores.flags.writeable = False
    probs.flags.writeable = False
    return BtFit(
        arena=arena,
        options=options,
        weights=w,
        scores=scores,
        fitted_probs=probs,
        converged=converged,
        diverged=diverged,
        iterations=iterations,
        gradient_norm=gnorm,
        unidentified=unidentified,
    )


def _fit_scores(
    arena: Arena,
    w: np.ndarray,
    options: SolverOptions,
    warm_start: np.ndarray | None = None,
) -> np.ndarray:
    """Score vector only; skips diagnostics for tight refit loops."""
    wins, losses = arena.cells.class_weights(w)
    scores, _, _, _ = _minimize(
        arena.cells, wins, wins + losses, arena.n_models, options, warm_start
    )
    return scores


def refit_without(
    arena: Arena,
    options: SolverOptions,
    drop_indices: Sequence[int],
    warm_start: np.ndarray | None = None,
) -> BtFit:
    """Refit with the given matchups removed, under the same options as the base fit.

    A model that loses all its remaining matchups is reported in ``unidentified``
    (the ridge keeps its score near 0); dropping nothing reproduces the full-data
    fit exactly.
    """
    weighting = Weighting.drop(arena.n_matchups, drop_indices)
    return fit(arena, weighting, options, warm_start=warm_start)


@dataclass(frozen=True)
class Ranking:
    """Models sorted by fitted score, best first; exact ties noted and broken by index."""

    order: tuple[int, ...]
    tie_note: tuple[tuple[int, int], ...]


def _scores_of(fit_or_scores) -> np.ndarray:
    if isinstance(fit_or_scores, BtFit):
        return fit_or_scores.scores
    return np.asarray(fit_or_scores, dtype=np.float64)


def ranking(fit_or_scores) -> Ranking:
    scores = _scores_of(fit_or_scores)
    order = np.lexsort((np.arange(scores.size), -scores))
    ties = tuple(
        (int(order[r]), int(order[r + 1]))
        for r in range(scores.size - 1)
        if scores[order[r]] == scores[order[r + 1]]
    )
    return Ranking(order=tuple(int(k) for k in order), tie_note=ties)


def top_k_set(fit_or_scores, k: int) -> set[int]:
    """The k models of highest fitted score; boundary ties go to the lower index."""
    scores = _scores_of(fit_or_scores)
    if not 1 <= k < scores.size:
        raise ValueError(f"k must satisfy 1 <= k < {scores.size}, got {k}")
    order = np.lexsort((np.arange(scores.size), -scores))
    return {int(m) for m in order[:k]}


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
    forward = (arena.side_a == ia) & (arena.side_b == ib)
    backward = (arena.side_a == ib) & (arena.side_b == ia)
    wins_a = int(np.count_nonzero(forward & (arena.a_won == 1)))
    wins_a += int(np.count_nonzero(backward & (arena.a_won == 0)))
    wins_b = int(np.count_nonzero(forward & (arena.a_won == 0)))
    wins_b += int(np.count_nonzero(backward & (arena.a_won == 1)))
    total = wins_a + wins_b
    percent = wins_a / total if total else None
    return HeadToHead(wins_a=wins_a, wins_b=wins_b, win_percent=percent)
