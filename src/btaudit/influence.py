"""Per-matchup influence on fitted scores: first-order and leverage-corrected.

All computations share one checked inverse of the fit's curvature matrix, built
from the fit's class weights (no per-matchup vector). Scores are computed once
per (pair cell, winner) class; ``influence_scores`` gathers them to matchups,
and pair influence keeps them per class.

Everything derived from a fit lives in its cache, read-only, for the fit's
lifetime: the factor, each model's class influence (filled as targets are
needed, at most M vectors of 2 * cells floats), and each audited pair's
reports (``check_pair``). A check that ``_drop_effect_bound`` settles reads two
rows of the factor's inverse and fills no class influence. Every call, inside
an audit or not, reads and fills the same entries, so its answers do not
depend on what ran before. Every entry is stored with ``setdefault``, so it
is set once and never replaced: of two threads that race to fill one, both
return the first one stored.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .btmodel import BtFit, FitError, _curvature, _frame, sigmoid

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
    row and column. It, the per-cell residuals and leverages, the per-class
    one-step Newton denominators and the two numbers the first-order screen
    reads (each row's largest magnitude, the smallest denominator) are
    computed here, once per fit.
    """

    def __init__(self, bt: BtFit):
        cells = bt.arena.cells
        m = bt.arena.n_models
        cw = bt.class_weights
        self.probs = sigmoid(bt.scores[cells.lo] - bt.scores[cells.hi])
        self.matrix = _curvature(_frame(cells, m), np.zeros(m * m), cw[1::2] + cw[0::2],
                                 self.probs, bt.options.ridge)
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
        self.row_scales = np.abs(k).max(axis=1).tolist()
        self.newton_floor = float(self.newton_denominators.min())


def hessian_factor(bt: BtFit) -> HessianFactor:
    """The fit's cached factorization; built on first use."""
    fac = bt._cache.get("hessian_factor")
    if fac is None:
        fac = bt._cache.setdefault("hessian_factor", HessianFactor(bt))  # a racing thread's stays
    return fac


def _check_fit(bt: BtFit) -> None:
    if not bt.converged:
        raise FitError("influence requires a converged fit")


def _check_method(method: str) -> None:
    if method not in ("if", "newton"):
        raise ValueError(f"method must be 'if' or 'newton', got {method!r}")


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


_EPS = float(np.finfo(np.float64).eps)


def _drop_effect_bound(bt: BtFit, a: int, b: int, count: int, method: str) -> float:
    """An upper bound on how far any ``count`` drops are predicted to move the gap of a - b.

    Each class score of the pair is (v[lo] - v[hi]) * residual with
    v = K[a] - K[b] (K the factor's inverse) and |residual| <= 1, so a drop set
    of ``count`` matchups changes the gap by at most count * (max v - min v),
    divided by the smallest one-step denominator for ``method="newton"``. A
    Newton check on a factor with saturated rows gets ``inf`` (nothing is
    settled), so its ``pair_influence`` still runs and warns. O(M) per call.
    """
    _check_method(method)
    fac = hessian_factor(bt)
    if method == "newton" and fac.saturated_rows:
        return math.inf
    k = fac.inverse
    v = k[a] - k[b]
    # Rounding margin, with u = eps / 2 and S = max|K[a]| + max|K[b]|.
    # ``pair_influence`` forms each target's score fl(fl(K[t][lo] - K[t][hi]) * r),
    # divides it by the class denominator d for Newton, and subtracts the two
    # targets. Each target's score (at most 2 max|K[t]| / d in size) is off by
    # at most 3u of its size and the difference by u of itself, so a computed
    # class score is at most ((1 + u) R + 6uS) / d in size, R = max v - min v
    # exact. The computed v is within uS of the exact one entry by entry, so
    # R <= (1 + u) R~ + 2uS for the R~ computed here, and a sum of ``count``
    # terms adds (count - 1)u of their magnitudes. So |delta| <=
    # count * (R~ + 8uS) * (1 + (count + 1)u) / floor to first order. The bound
    # takes 16uS and 2(count + 4)u; the slack also covers the second-order
    # terms and the few roundings in computing it.
    spread = float(v.max() - v.min()) + 8.0 * _EPS * (fac.row_scales[a] + fac.row_scales[b])
    floor = fac.newton_floor if method == "newton" else 1.0
    return count * spread * (1.0 + (count + 4) * _EPS) / floor


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
    ia, ib = bt.arena.models.resolve_pair(a, b)
    _check_method(method)
    if method == "newton":
        _warn_saturated(bt)
        per_target = _class_newton
    else:
        per_target = _class_influence
    class_scores = per_target(bt, ia) - per_target(bt, ib)
    class_scores.flags.writeable = False
    return class_scores
