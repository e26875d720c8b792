"""Worst-case drop-set selection, refit-verified pairwise checks, and top-k audits.

A "non-robust" verdict is never issued on a prediction alone: the candidate
subset is always removed and the model refit, and only a reversal of the pair's
scores in the refit beyond rounding counts. Predictions can miss flips (the
guarantee is one-sided) but verified verdicts carry a concrete witness.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .arena import Arena, PairCells
from .btmodel import BtFit, refit_without, top_k_set
from .influence import _audit_view, pair_influence

__all__ = [
    "DropBudget",
    "MinDropResult",
    "RobustnessReport",
    "TopKReport",
    "check_pair",
    "check_topk",
    "involvement_composition",
    "min_drop_search",
    "reverses",
    "select_drop_set",
]

# A refit gap within 8 ulps of the scores' scale is a tie: the refit solves to a
# gradient tolerance far above it, so the gap's sign there is rounding noise,
# not evidence of a reversal.
_TIE_TOLERANCE = 8.0 * np.finfo(np.float64).eps


def reverses(leader_after: float, challenger_after: float) -> bool:
    """True when a refit puts the challenger above the leader by more than rounding."""
    scale = max(1.0, abs(leader_after), abs(challenger_after))
    return bool(leader_after - challenger_after < -_TIE_TOLERANCE * scale)


@dataclass(frozen=True)
class DropBudget:
    """How many matchups an adversary may remove: a fraction of N or a raw count."""

    alpha: float | None = None
    count: int | None = None

    def __post_init__(self):
        if (self.alpha is None) == (self.count is None):
            raise ValueError("set exactly one of alpha or count")
        if self.alpha is not None:
            if not isinstance(self.alpha, numbers.Real) or not 0.0 < self.alpha < 1.0:
                raise ValueError(f"alpha must be a number in (0, 1), got {self.alpha!r}")
        elif isinstance(self.count, bool) or not isinstance(self.count, numbers.Integral):
            raise ValueError(f"count must be an integer, got {self.count!r}")
        elif self.count < 1:
            raise ValueError("count must be at least 1")

    def resolve(self, n_matchups: int) -> int:
        c = math.floor(self.alpha * n_matchups) if self.alpha is not None else self.count
        if c < 1:
            raise ValueError(
                f"budget resolves to zero drops (alpha={self.alpha}, N={n_matchups})"
            )
        if c > n_matchups - 1:
            raise ValueError(f"budget {c} would drop all {n_matchups} matchups")
        return int(c)

    def label(self) -> str:
        if self.alpha is not None:
            return f"alpha={self.alpha:g}"
        return f"count={self.count}"


@dataclass(frozen=True)
class RobustnessReport:
    """Verdict for one ordered pair at one drop budget.

    ``pair`` is normalized so the first model has the weakly higher full-data
    score (exact ties go to the lower index). ``dropped`` is ordered most
    influential first. The verdict is "non-robust" only when a refit was
    performed and reversed the ordering beyond rounding. Degenerate refits
    withhold the verdict: those where every matchup of a pair model was
    dropped, and those that did not converge.
    """

    pair: tuple[int, int]
    pair_names: tuple[str, str]
    n_matchups: int
    budget: DropBudget
    budget_count: int
    method: str
    predicted_delta: float
    predicted_flip: bool
    refit_performed: bool
    refit_flip: bool
    dropped: tuple[int, ...]
    scores_before: tuple[float, float]
    scores_after: tuple[float, float] | None
    degenerate: bool
    refit_unidentified: tuple[int, ...]
    refit_converged: bool | None
    refit_iterations: int | None

    @property
    def gap_before(self) -> float:
        return self.scores_before[0] - self.scores_before[1]

    @property
    def gap_after(self) -> float | None:
        if self.scores_after is None:
            return None
        return self.scores_after[0] - self.scores_after[1]

    @property
    def dropped_fraction(self) -> float:
        return len(self.dropped) / self.n_matchups

    @property
    def verdict(self) -> str:
        if self.degenerate:
            return "degenerate"
        if self.refit_performed and self.refit_flip:
            return "non-robust"
        return "robust"


@dataclass(frozen=True)
class TopKReport:
    """Outcome of a top-k audit: robust, or the first verified offending pair."""

    k: int
    budget: DropBudget
    budget_count: int
    robust: bool
    offending_pair: tuple[int, int] | None
    pairs_checked: int
    pairs_total: int
    per_pair: tuple[RobustnessReport, ...]
    dropped: tuple[int, ...]
    degenerate_pairs: tuple[tuple[int, int], ...]


def _canonical_pair(bt: BtFit, a, b) -> tuple[int, int]:
    """Order so the first model has the weakly higher score; ties to the lower index."""
    ia = bt.arena.models.resolve(a)
    ib = bt.arena.models.resolve(b)
    if ia == ib:
        raise ValueError("a pair needs two distinct models")
    sa, sb = float(bt.scores[ia]), float(bt.scores[ib])
    if sa < sb or (sa == sb and ia > ib):
        return ib, ia
    return ia, ib


def select_drop_set(scores: np.ndarray, cells: PairCells, count: int) -> np.ndarray:
    """Indices whose removal is predicted to shrink the pair's score gap the most.

    ``scores`` are the pair's class scores over ``cells``, as ``pair_influence``
    returns them. Only flip-helping matchups are eligible, so the result can be
    shorter than ``count`` (or empty). Ties in predicted effect go to the lower index.
    Selection runs on the pair's (cell, winner) classes, whose matchups share
    one score: one mask and one partition over the classes keep those at or
    above the count-th largest helping class score, and only those are ranked
    and opened. That is O(cells) in numpy plus a plain-Python sort of the kept
    classes (``count`` plus ties at the cut, or fewer) and at most ``count``
    rows per kept class, never O(N).
    """
    # Dropping matchup n alone is predicted to change the gap by -scores[n], so
    # the drop set is the ``count`` largest positive scores, ordered by (-score, index).
    rows, start, size = cells.class_index
    # Empty classes score 0 here (a multiply by a mask cached on the cells, far
    # cheaper per pair than recomputing it), so only positive entries can help.
    # Each kept class holds a matchup, so a class below the count-th largest
    # kept class score holds none of the count largest matchup scores.
    masked = scores * cells.occupied
    cut = masked.size - count
    floor = np.partition(masked, cut)[cut] if cut > 0 else 0.0
    kept = np.flatnonzero(masked >= floor) if floor > 0.0 else np.flatnonzero(masked > 0.0)
    # A kept class gives at most ``count`` minus the matchups of strictly higher
    # classes: its lowest indices, none below the cut.
    picked = []
    higher = seen = 0
    level = None
    for neg, k in sorted(zip((-scores[kept]).tolist(), kept.tolist())):
        if neg != level:
            level, higher = neg, seen
            if higher >= count:
                break
        first, n = int(start[k]), int(size[k])
        picked += ((neg, r) for r in rows[first:first + min(n, count - higher)].tolist())
        seen += n
    picked.sort()
    return np.array([r for _, r in picked[:count]], dtype=np.int64)


def check_pair(
    arena: Arena,
    bt: BtFit,
    a: int | str,
    b: int | str,
    budget: DropBudget,
    *,
    method: str = "if",
    always_refit: bool = False,
) -> RobustnessReport:
    """Audit one pair: select a worst-case drop set, predict, and refit to verify.

    The refit reuses the base fit's options and starts from the canonical
    origin, so exactly symmetric reduced datasets land on score ties (a gap
    within rounding of zero is not a flip), and re-running ``refit_without``
    on the reported indices reproduces the reported outcome bit for bit.
    """
    ia, ib = _canonical_pair(bt, a, b)
    scores_before = (float(bt.scores[ia]), float(bt.scores[ib]))
    count = budget.resolve(arena.n_matchups)

    cells = bt.arena.cells
    scores = pair_influence(bt, ia, ib, method=method)
    dropped = select_drop_set(scores, cells, count)
    predicted_delta = float(-scores[cells.row_class[dropped]].sum()) if dropped.size else 0.0
    predicted_flip = bool(scores_before[0] - scores_before[1] + predicted_delta < 0.0)

    refit_performed = False
    refit_flip = False
    scores_after = None
    degenerate = False
    unidentified: tuple[int, ...] = ()
    refit_converged = None
    refit_iterations = None
    if dropped.size and (predicted_flip or always_refit):
        refit = refit_without(arena, bt.options, dropped)
        refit_performed = True
        scores_after = (float(refit.scores[ia]), float(refit.scores[ib]))
        refit_flip = reverses(*scores_after)
        unidentified = refit.unidentified
        # An unconverged refit's scores are not a minimizer, so its verdict is withheld.
        degenerate = ia in unidentified or ib in unidentified or not refit.converged
        refit_converged = refit.converged
        refit_iterations = refit.iterations

    names = bt.arena.models.names
    return RobustnessReport(
        pair=(ia, ib),
        pair_names=(names[ia], names[ib]),
        n_matchups=arena.n_matchups,
        budget=budget,
        budget_count=count,
        method=method,
        predicted_delta=predicted_delta,
        predicted_flip=predicted_flip,
        refit_performed=refit_performed,
        refit_flip=refit_flip,
        dropped=tuple(dropped.tolist()),
        scores_before=scores_before,
        scores_after=scores_after,
        degenerate=degenerate,
        refit_unidentified=unidentified,
        refit_converged=refit_converged,
        refit_iterations=refit_iterations,
    )


def check_topk(
    arena: Arena,
    bt: BtFit,
    k: int,
    budget: DropBudget,
    *,
    method: str = "if",
    always_refit: bool = False,
) -> TopKReport:
    """Audit the top-k set by checking every (inside, outside) pair, closest first.

    Pairs are ordered by ascending full-data score gap (ties lexicographic), so
    the first pair checked straddles the k boundary. The audit stops at the
    first verified non-robust pair; otherwise all k(M-k) pairs are examined.
    """
    inside = top_k_set(bt, k)
    outside = [m for m in range(arena.n_models) if m not in inside]
    order = sorted(
        ((abs(float(bt.scores[i] - bt.scores[j])), i, j) for i in inside for j in outside)
    )
    pairs_total = len(order)
    count = budget.resolve(arena.n_matchups)

    view = _audit_view(bt)  # each model's influence is computed once per call
    reports: list[RobustnessReport] = []
    offending: RobustnessReport | None = None
    for _, i, j in order:
        rep = check_pair(arena, view, i, j, budget, method=method, always_refit=always_refit)
        reports.append(rep)
        if rep.verdict == "non-robust":
            offending = rep
            break

    degenerate_pairs = tuple(r.pair for r in reports if r.degenerate)
    return TopKReport(
        k=k,
        budget=budget,
        budget_count=count,
        robust=offending is None,
        offending_pair=offending.pair if offending else None,
        pairs_checked=len(reports),
        pairs_total=pairs_total,
        per_pair=tuple(reports),
        dropped=offending.dropped if offending else (),
        degenerate_pairs=degenerate_pairs,
    )


@dataclass(frozen=True)
class MinDropResult:
    """Smallest verified flipping budget, or an explicit not-found marker."""

    found: bool
    count: int | None
    report: RobustnessReport | None
    budgets_tried: int


def min_drop_search(
    arena: Arena,
    bt: BtFit,
    a: int | str,
    b: int | str,
    *,
    max_budget: int,
    method: str = "if",
) -> MinDropResult:
    """Smallest drop count whose refit-verified removal flips the pair.

    Scans budgets 1, 2, ... with the drop set re-selected and refit-verified at
    every step. Whatever a larger budget verifies, some count at or below it is
    returned, so the result is a true minimum over this selection rule.
    """
    if max_budget < 1:
        raise ValueError("max_budget must be at least 1")
    last: RobustnessReport | None = None
    tried = 0
    budgets = range(1, min(max_budget, arena.n_matchups - 1) + 1)
    view = _audit_view(bt) if budgets else bt  # the pair's influence is computed once
    for count in budgets:
        tried += 1
        rep = check_pair(
            arena, view, a, b, DropBudget(count=count), method=method, always_refit=True
        )
        last = rep
        if rep.verdict == "non-robust":
            return MinDropResult(found=True, count=count, report=rep, budgets_tried=tried)
    return MinDropResult(found=False, count=None, report=last, budgets_tried=tried)


def involvement_composition(report: RobustnessReport, arena: Arena) -> tuple[float, float, float]:
    """Fractions of dropped matchups involving both, one, or neither pair model."""
    if not report.dropped:
        raise ValueError("report has no dropped matchups")
    ia, ib = report.pair
    dropped = np.asarray(report.dropped, dtype=np.int64)
    sa = arena.side_a[dropped]
    sb = arena.side_b[dropped]
    hits = (
        ((sa == ia) | (sa == ib)).astype(np.int64)
        + ((sb == ia) | (sb == ib)).astype(np.int64)
    )
    total = dropped.size
    both = int(np.count_nonzero(hits == 2))
    one = int(np.count_nonzero(hits == 1))
    neither = total - both - one
    return both / total, one / total, neither / total
