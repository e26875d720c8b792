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
from fractions import Fraction

import numpy as np

from .arena import Arena, PairCells
from .btmodel import BtFit, ranking, refit_without
from .influence import _check_fit, pair_influence

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


def _predicts_flip(scores_before: tuple[float, float], predicted_delta: float) -> bool:
    """True when the predicted gap change takes the leader below the challenger."""
    return scores_before[0] - scores_before[1] + predicted_delta < 0.0


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
        """The drop count on N rows: floor(alpha * N), alpha read as the decimal it prints as."""
        if self.alpha is None:
            c = self.count
        else:  # 0.0003 * 10_000 is 2.9999999999999996 in floats; as decimals it is 3
            c = math.floor(Fraction(repr(float(self.alpha))) * n_matchups)
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

    Fields hold what the check measured; the flags and the verdict are derived.
    ``pair`` is normalized so the first model has the weakly higher full-data
    score (exact ties go to the lower index). ``dropped`` is ordered most
    influential first. The last four fields come from the refit and keep their
    defaults when none ran. The verdict is "non-robust" only when a refit
    reversed the ordering beyond rounding. Degenerate refits withhold the
    verdict: those where every matchup of a pair model was dropped, and those
    that did not converge, whose scores are not a minimizer.
    """

    pair: tuple[int, int]
    pair_names: tuple[str, str]
    n_matchups: int
    budget: DropBudget
    method: str
    predicted_delta: float
    dropped: tuple[int, ...]
    scores_before: tuple[float, float]
    scores_after: tuple[float, float] | None = None
    refit_unidentified: tuple[int, ...] = ()
    refit_converged: bool | None = None
    refit_iterations: int | None = None

    @property
    def budget_count(self) -> int:
        return self.budget.resolve(self.n_matchups)

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
    def predicted_flip(self) -> bool:
        return _predicts_flip(self.scores_before, self.predicted_delta)

    @property
    def refit_performed(self) -> bool:
        return self.scores_after is not None

    @property
    def refit_flip(self) -> bool:
        return self.scores_after is not None and reverses(*self.scores_after)

    @property
    def degenerate(self) -> bool:
        ia, ib = self.pair
        return self.refit_converged is False or ia in self.refit_unidentified or ib in self.refit_unidentified

    @property
    def verdict(self) -> str:
        if self.degenerate:
            return "degenerate"
        if self.refit_flip:
            return "non-robust"
        return "robust"


@dataclass(frozen=True)
class TopKReport:
    """Outcome of a top-k audit: robust, or the first verified offending pair.

    ``per_pair`` holds the report of each pair checked, in order, and is never
    empty. The audit stops at the first non-robust pair, so the outcome and the
    counts are derived from those reports.
    """

    k: int
    budget: DropBudget
    pairs_total: int
    per_pair: tuple[RobustnessReport, ...]

    @property
    def budget_count(self) -> int:
        return self.per_pair[0].budget_count

    @property
    def robust(self) -> bool:
        return self.per_pair[-1].verdict != "non-robust"

    @property
    def offending_pair(self) -> tuple[int, int] | None:
        return None if self.robust else self.per_pair[-1].pair

    @property
    def dropped(self) -> tuple[int, ...]:
        return () if self.robust else self.per_pair[-1].dropped

    @property
    def pairs_checked(self) -> int:
        return len(self.per_pair)

    @property
    def degenerate_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(r.pair for r in self.per_pair if r.degenerate)


def _check_arena(arena: Arena, bt: BtFit) -> None:
    if arena is not bt.arena:
        raise ValueError("the fit was made on another arena; audit the arena it was fit to")


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


def _drop_order(bt: BtFit, ia: int, ib: int, method: str, count: int):
    """The canonical pair's ``(rows, row_scores, count)`` from the fit's memo.

    ``rows`` were selected for ``count``, at least the count asked for: each
    smaller count's drop set is a prefix, since selection takes the first
    ``count`` rows of one total order. A larger count selects again.
    """
    _check_fit(bt)  # a hit must not skip the check a miss makes
    memo = bt._cache.setdefault("drop_orders", {})
    entry = memo.get((ia, ib, method))
    if entry is None or entry[2] < count:
        cells = bt.arena.cells
        scores = pair_influence(bt, ia, ib, method=method)
        rows = select_drop_set(scores, cells, count)
        entry = rows, scores[cells.row_class[rows]], count
        memo[ia, ib, method] = entry
    return entry


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

    The drop set is read from a memo on the fit, keyed by the canonical pair
    and ``method``: the rows selected for the largest count checked so far and
    each row's class score. A smaller count reads a prefix, bit-identical to
    selecting afresh; a larger one selects again. Its memory is two arrays
    per (pair, method), each as long as the largest count checked. A Newton
    check served from the memo does not repeat the saturated-leverage warning.

    The refit reuses the base fit's options and starts from the canonical
    origin, so exactly symmetric reduced datasets land on score ties (a gap
    within rounding of zero is not a flip), and re-running ``refit_without``
    on the reported indices reproduces the reported outcome bit for bit.
    Every check that refits calls ``refit_without``; the memo never skips one.
    """
    _check_arena(arena, bt)
    ia, ib = _canonical_pair(bt, a, b)
    before = float(bt.scores[ia]), float(bt.scores[ib])
    count = budget.resolve(arena.n_matchups)

    rows, row_scores, _ = _drop_order(bt, ia, ib, method, count)
    dropped = rows[:count]
    delta = float(-row_scores[:count].sum()) if dropped.size else 0.0

    refit = {}
    if dropped.size and (always_refit or _predicts_flip(before, delta)):
        after = refit_without(arena, bt.options, dropped)
        refit = dict(scores_after=(float(after.scores[ia]), float(after.scores[ib])),
                     refit_unidentified=after.unidentified, refit_converged=after.converged,
                     refit_iterations=after.iterations)

    names = bt.arena.models.names
    return RobustnessReport(
        pair=(ia, ib),
        pair_names=(names[ia], names[ib]),
        n_matchups=arena.n_matchups,
        budget=budget,
        method=method,
        predicted_delta=delta,
        dropped=tuple(dropped.tolist()),
        scores_before=before,
        **refit,
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
    _check_arena(arena, bt)
    order = ranking(bt).order
    if not 1 <= k < len(order):
        raise ValueError(f"k must satisfy 1 <= k < {len(order)}, got {k}")
    budget.resolve(arena.n_matchups)  # a budget that does not fit fails before any work
    pairs = sorted(
        (abs(float(bt.scores[i] - bt.scores[j])), i, j) for i in order[:k] for j in order[k:]
    )

    reports: list[RobustnessReport] = []
    for _, i, j in pairs:
        reports.append(check_pair(arena, bt, i, j, budget, method=method, always_refit=always_refit))
        if reports[-1].verdict == "non-robust":
            break
    return TopKReport(k=k, budget=budget, pairs_total=len(pairs), per_pair=tuple(reports))


@dataclass(frozen=True)
class MinDropResult:
    """Smallest verified flipping budget, or an explicit not-found marker.

    ``report`` is the check at the last budget tried (None when no budget fits
    the arena). The search stops at the first flip, so ``found`` and ``count``
    are derived from it.
    """

    report: RobustnessReport | None
    budgets_tried: int

    @property
    def found(self) -> bool:
        return self.report is not None and self.report.verdict == "non-robust"

    @property
    def count(self) -> int | None:
        return self.report.budget_count if self.found else None


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
    _check_arena(arena, bt)
    if max_budget < 1:
        raise ValueError("max_budget must be at least 1")
    last: RobustnessReport | None = None
    count = 0  # budgets run 1, 2, ..., so the last count is the number tried
    budgets = range(1, min(max_budget, arena.n_matchups - 1) + 1)
    for count in budgets:
        last = check_pair(arena, bt, a, b, DropBudget(count=count), method=method, always_refit=True)
        if last.verdict == "non-robust":
            break
    return MinDropResult(report=last, budgets_tried=count)


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
