"""Per-matchup influence on fitted scores: first-order and leverage-corrected.

All computations share one checked inverse of the fit's curvature matrix,
cached on the fit and read-only, so they are safe to run concurrently. Scores
are computed once per (pair cell, winner) class and gathered to matchups.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .btmodel import BtFit, FitError, _curvature, sigmoid

__all__ = [
    "HessianFactor",
    "PairInfluence",
    "SingularHessianError",
    "hessian_factor",
    "influence_scores",
    "leverages",
    "newton_scores",
    "pair_influence",
]

_SATURATION = 1e-12


class SingularHessianError(RuntimeError):
    """Curvature matrix not invertible: disconnected comparison graph or separation."""


class HessianFactor:
    """The fit's curvature matrix on the free coordinates, checked and inverted once.

    Assembled by the solver's own curvature routine from the fit's pair cells,
    at the fitted scores; ``probs[c]`` is the fitted probability that cell c's
    lower-index model wins.
    """

    def __init__(self, bt: BtFit):
        cells = bt.arena.cells
        m = bt.arena.n_models
        wins, losses = cells.class_weights(bt.weights)
        self.probs = sigmoid(bt.scores[cells.lo] - bt.scores[cells.hi])
        self.matrix = _curvature(cells, wins + losses, self.probs, bt.options.ridge, m)
        singular = None
        try:
            chol = np.linalg.cholesky(self.matrix)
        except np.linalg.LinAlgError as exc:
            singular = exc
        else:
            # Rounding can push an exactly singular matrix through the
            # factorization with a tiny pivot; treat that as singular too.
            pivots = np.abs(np.diag(chol))
            if pivots.min() <= 1e-7 * pivots.max():
                singular = np.linalg.LinAlgError("numerically singular factor")
        if singular is not None:
            raise SingularHessianError(
                "curvature matrix is singular; the comparison graph is "
                "disconnected or the data are separated (ridge = 0)"
            ) from singular
        chol_inv = np.linalg.inv(chol)
        k = np.zeros((m, m))
        k[1:, 1:] = chol_inv.T @ chol_inv
        k.flags.writeable = False
        self._inverse = k

    def inverse(self) -> np.ndarray:
        """Embedded inverse with zero reference row and column."""
        return self._inverse


def hessian_factor(bt: BtFit) -> HessianFactor:
    """The fit's cached factorization; built on first use."""
    fac = bt._cache.get("hessian_factor")
    if fac is None:
        fac = HessianFactor(bt)
        bt._cache["hessian_factor"] = fac
    return fac


def _check_fit(bt: BtFit) -> None:
    if not bt.converged:
        raise FitError("influence requires a converged fit")


# Per-class scores. Every matchup of a class (one pair cell, one winner) has the
# same score, whatever its seat order, so each is computed once per class in
# O(cells) and gathered to matchups with ``cells.row_class``.

def _class_influence(bt: BtFit, t: int) -> np.ndarray:
    fac = hessian_factor(bt)
    cells = bt.arena.cells
    u = fac.inverse()[t]
    p = fac.probs
    # Residuals of the lower-index model's outcome: lost (class 2c), won (class 2c + 1).
    scores = (u[cells.lo] - u[cells.hi])[:, None] * np.stack([-p, 1.0 - p], axis=1)
    return scores.reshape(-1)


def _cell_leverages(bt: BtFit) -> np.ndarray:
    fac = hessian_factor(bt)
    cells = bt.arena.cells
    k = fac.inverse()
    lo, hi = cells.lo, cells.hi
    return fac.probs * (1.0 - fac.probs) * (k[lo, lo] + k[hi, hi] - 2.0 * k[lo, hi])


def _class_newton(bt: BtFit, t: int) -> np.ndarray:
    denom = 1.0 - np.repeat(_cell_leverages(bt), 2)
    saturated = denom <= _SATURATION
    if np.any(saturated):
        rows = int(np.count_nonzero(saturated[bt.arena.cells.row_class]))
        warnings.warn(
            f"{rows} matchup(s) at saturated leverage; scores clamped to a sentinel",
            RuntimeWarning,
            stacklevel=3,
        )
        denom = np.where(saturated, _SATURATION, denom)
    return _class_influence(bt, t) / denom


def influence_scores(bt: BtFit, target: int | str) -> np.ndarray:
    """Derivative of the target model's fitted score with respect to each matchup weight.

    Evaluated at the fitted scores and the fit's weighting. The reference model's
    score is pinned, so its influence vector is identically zero.
    """
    _check_fit(bt)
    t = bt.arena.models.resolve(target)
    return _class_influence(bt, t)[bt.arena.cells.row_class]


def leverages(bt: BtFit) -> np.ndarray:
    """Weighted hat-matrix diagonal: p(1-p) * x' H^-1 x per matchup."""
    _check_fit(bt)
    return _cell_leverages(bt)[bt.arena.cells.row_class >> 1]


def newton_scores(bt: BtFit, target: int | str) -> np.ndarray:
    """Influence scores with the one-step Newton correction 1/(1 - leverage).

    Matchups at saturated leverage (h >= 1 - 1e-12) are clamped to a large
    sentinel and reported with a warning; the refit step keeps verdicts exact.
    """
    _check_fit(bt)
    t = bt.arena.models.resolve(target)
    return _class_newton(bt, t)[bt.arena.cells.row_class]


@dataclass(frozen=True)
class PairInfluence:
    """Per-matchup effect of a weight change on the difference of two fitted scores."""

    pair: tuple[int, int]
    scores: np.ndarray
    method: str  # "if" | "newton"


def pair_influence(bt: BtFit, a: int | str, b: int | str, method: str = "if") -> PairInfluence:
    """Elementwise difference of the two models' influence vectors.

    Exactly influence(a) - influence(b), so linearity holds bit-for-bit and
    swapping the pair negates the scores.
    """
    _check_fit(bt)
    ia = bt.arena.models.resolve(a)
    ib = bt.arena.models.resolve(b)
    if ia == ib:
        raise ValueError("pair influence needs two distinct models")
    if method == "if":
        per_target = _class_influence
    elif method == "newton":
        per_target = _class_newton
    else:
        raise ValueError(f"method must be 'if' or 'newton', got {method!r}")
    per_class = per_target(bt, ia) - per_target(bt, ib)
    scores = per_class[bt.arena.cells.row_class]
    scores.flags.writeable = False
    return PairInfluence(pair=(ia, ib), scores=scores, method=method)
