"""Per-matchup influence on fitted scores: first-order and leverage-corrected.

All computations share one checked inverse of the fit's curvature matrix, built
from the fit's class weights (no per-matchup vector). Scores are computed once
per (pair cell, winner) class; ``influence_scores`` gathers them to matchups,
and pair influence keeps them per class.

Everything derived from a fit lives in its cache, read-only, for the fit's
lifetime: the factor, each model's class influence (filled as targets are
needed, at most M vectors of 2 * cells floats), and each audited pair's drop
order (``check_pair``). Every call, inside an audit or not, reads and fills
the same entries, so its answers do not depend on what ran before.
"""

from __future__ import annotations

import warnings

import numpy as np

from .btmodel import BtFit, FitError, _curvature, sigmoid

__all__ = [
    "HessianFactor",
    "SingularHessianError",
    "hessian_factor",
    "influence_scores",
    "pair_influence",
]

_SATURATION = 1e-12


class SingularHessianError(RuntimeError):
    """Curvature matrix not invertible: disconnected comparison graph or separation."""


class HessianFactor:
    """The fit's curvature matrix on the free coordinates, checked and inverted once.

    Assembled by the solver's own curvature routine from the fit's pair cells,
    at the fitted scores; ``probs[c]`` is the fitted probability that cell c's
    lower-index model wins; ``inverse`` embeds the inverse with a zero reference
    row and column. It, the per-cell residuals and leverages and the per-class
    one-step Newton denominators are computed here, once per fit.
    """

    def __init__(self, bt: BtFit):
        cells = bt.arena.cells
        m = bt.arena.n_models
        cw = bt.class_weights
        self.probs = sigmoid(bt.scores[cells.lo] - bt.scores[cells.hi])
        self.matrix = _curvature(cells, cw[1::2] + cw[0::2], self.probs, bt.options.ridge, m)
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
        self.inverse = k
        # Residuals of the lower-index model's outcome: lost (class 2c), won (class 2c + 1).
        self.residuals = np.stack([-self.probs, 1.0 - self.probs], axis=1)
        lo, hi = cells.lo, cells.hi
        self.leverages = (
            self.probs * (1.0 - self.probs) * (k[lo, lo] + k[hi, hi] - 2.0 * k[lo, hi])
        )
        # One-step Newton denominators 1 - h per class, clamped where h saturates.
        denom = 1.0 - np.repeat(self.leverages, 2)
        saturated = denom <= _SATURATION
        self.newton_denominators = np.where(saturated, _SATURATION, denom)
        self.saturated_rows = (
            int(np.count_nonzero(saturated[cells.row_class])) if saturated.any() else 0
        )


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
    memo = bt._cache.setdefault("class_influence", {})
    scores = memo.get(t)
    if scores is None:
        fac = hessian_factor(bt)
        cells = bt.arena.cells
        u = fac.inverse[t]
        scores = ((u[cells.lo] - u[cells.hi])[:, None] * fac.residuals).reshape(-1)
        scores.flags.writeable = False
        scores = memo.setdefault(t, scores)  # a racing thread's equal entry stays
    return scores


def _class_newton(bt: BtFit, t: int) -> np.ndarray:
    return _class_influence(bt, t) / hessian_factor(bt).newton_denominators


def _warn_saturated(bt: BtFit) -> None:
    """Warn the public caller once per call when the factor clamped saturated leverages."""
    saturated = hessian_factor(bt).saturated_rows
    if saturated:
        warnings.warn(
            f"{saturated} matchup(s) at saturated leverage; scores clamped to a sentinel",
            RuntimeWarning,
            stacklevel=3,
        )


def influence_scores(bt: BtFit, target: int | str) -> np.ndarray:
    """Derivative of the target model's fitted score with respect to each matchup weight.

    Evaluated at the fitted scores and the fit's weighting. The reference model's
    score is pinned, so its influence vector is identically zero.
    """
    _check_fit(bt)
    t = bt.arena.models.resolve(target)
    return _class_influence(bt, t)[bt.arena.cells.row_class]


def pair_influence(bt: BtFit, a: int | str, b: int | str, method: str = "if") -> np.ndarray:
    """Classwise difference of the two models' influence vectors, read-only.

    Entry k is the score of every matchup in (pair cell, winner) class k of
    ``bt.arena.cells``; indexing with ``cells.row_class`` gathers it to matchups.
    Exactly influence(a) - influence(b), so linearity holds bit-for-bit and
    swapping the pair negates the scores. ``method="newton"`` applies the
    one-step Newton correction 1/(1 - leverage); classes at saturated leverage
    (h >= 1 - 1e-12) are clamped to a large sentinel and reported with a
    warning, and the refit step keeps verdicts exact.
    """
    _check_fit(bt)
    ia = bt.arena.models.resolve(a)
    ib = bt.arena.models.resolve(b)
    if ia == ib:
        raise ValueError("pair influence needs two distinct models")
    if method == "if":
        per_target = _class_influence
    elif method == "newton":
        _warn_saturated(bt)
        per_target = _class_newton
    else:
        raise ValueError(f"method must be 'if' or 'newton', got {method!r}")
    class_scores = per_target(bt, ia) - per_target(bt, ib)
    class_scores.flags.writeable = False
    return class_scores
