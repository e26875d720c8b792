"""Worst-case drop-set selection, refit-verified pairwise checks, and top-k audits.

A "non-robust" verdict is never issued on a prediction alone: the candidate
subset is always removed and the model refit, and only a reversal of the pair's
scores in the refit beyond rounding counts. Predictions can miss flips (the
guarantee is one-sided) but verified verdicts carry a concrete witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arena import Arena
from .btmodel import BtFit, refit_without, top_k_set
from .influence import PairInfluence, pair_influence

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
    return leader_after - challenger_after < -_TIE_TOLERANCE * scale


@dataclass(frozen=True)
class DropBudget:
    """How many matchups an adversary may remove: a fraction of N or a raw count."""

    alpha: float | None = None
    count: int | None = None

    def __post_init__(self):
        if (self.alpha is None) == (self.count is None):
            raise ValueError("set exactly one of alpha or count")
        if self.alpha is not None and not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.count is not None and self.count < 1:
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
    performed and reversed the ordering beyond rounding; degenerate refits (a
    pair model lost all its matchups) withhold the verdict.
    """

    pair: tuple[int, int]
    pair_names: tuple[str, str]
    n_matchups: int
    budget: DropBudget
    budget_count: int
    method: str
    mode: str
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


def select_drop_set(pi: PairInfluence, budget: DropBudget | int) -> np.ndarray:
    """Indices whose removal is predicted to shrink the pair's score gap the most.

    Only flip-helping matchups are eligible, so the result can be shorter than
    the budget (or empty). Ties in predicted effect go to the lower index.
    Partial selection keeps the cost at O(N log(budget)).
    """
    n = pi.scores.size
    count = budget.resolve(n) if isinstance(budget, DropBudget) else int(budget)
    # Predicted change in the gap when matchup n alone is dropped.
    effects = -pi.scores
    helpful = np.flatnonzero(effects < 0.0)
    if helpful.size > count:
        vals = effects[helpful]
        part = np.argpartition(vals, count - 1)[:count]
        boundary = vals[part].max()
        chosen = np.concatenate([
            helpful[vals < boundary],
            helpful[vals == boundary][: count - int((vals < boundary).sum())],
        ])
    else:
        chosen = helpful
    order = np.lexsort((chosen, effects[chosen]))
    return chosen[order]


def check_pair(
    arena: Arena,
    bt: BtFit,
    a: int | str,
    b: int | str,
    budget: DropBudget,
    *,
    method: str = "if",
    always_refit: bool = False,
    mode: str = "derivative",
) -> RobustnessReport:
    """Audit one pair: select a worst-case drop set, predict, and refit to verify.

    The refit reuses the base fit's options and starts from the canonical
    origin, so exactly symmetric reduced datasets land on score ties (a gap
    within rounding of zero is not a flip), and re-running ``refit_without``
    on the reported indices reproduces the reported outcome bit for bit.
    """
    ia, ib = _canonical_pair(bt, a, b)
    gap = float(bt.scores[ia] - bt.scores[ib])
    count = budget.resolve(arena.n_matchups)

    pi = pair_influence(bt, ia, ib, method=method, mode=mode)
    dropped = select_drop_set(pi, count)
    predicted_delta = float(-pi.scores[dropped].sum()) if dropped.size else 0.0
    predicted_flip = bool(gap + predicted_delta < 0.0)

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
        degenerate = ia in unidentified or ib in unidentified
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
        mode=mode,
        predicted_delta=predicted_delta,
        predicted_flip=predicted_flip,
        refit_performed=refit_performed,
        refit_flip=refit_flip,
        dropped=tuple(int(n) for n in dropped),
        scores_before=(float(bt.scores[ia]), float(bt.scores[ib])),
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
    mode: str = "derivative",
) -> TopKReport:
    """Audit the top-k set by checking every (inside, outside) pair, closest first.

    Pairs are ordered by ascending full-data score gap (ties lexicographic), so
    the first pair checked straddles the k boundary. The audit stops at the
    first verified non-robust pair; otherwise all k(M-k) pairs are examined.
    """
    inside = sorted(top_k_set(bt, k))
    outside = [m for m in range(arena.n_models) if m not in set(inside)]
    order = sorted(
        ((abs(float(bt.scores[i] - bt.scores[j])), i, j) for i in inside for j in outside)
    )
    pairs_total = len(order)
    count = budget.resolve(arena.n_matchups)

    reports: list[RobustnessReport] = []
    offending: RobustnessReport | None = None
    for _, i, j in order:
        rep = check_pair(
            arena, bt, i, j, budget, method=method, always_refit=always_refit, mode=mode
        )
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
    mode: str = "derivative",
    strategy: str = "linear",
) -> MinDropResult:
    """Smallest drop count whose refit-verified removal flips the pair.

    Scans budgets 1, 2, ... with the drop set re-selected and refit-verified at
    every step. Whatever a larger budget verifies, some count at or below it is
    returned, so the result is a true minimum over this selection rule.
    """
    if strategy != "linear":
        raise ValueError(f"unknown search strategy {strategy!r}")
    if max_budget < 1:
        raise ValueError("max_budget must be at least 1")
    last: RobustnessReport | None = None
    tried = 0
    for count in range(1, min(max_budget, arena.n_matchups - 1) + 1):
        tried += 1
        rep = check_pair(
            arena, bt, a, b, DropBudget(count=count),
            method=method, always_refit=True, mode=mode,
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
