"""Ground-truth machinery: synthetic arenas, exhaustive drop search, derivative checks.

Everything here runs the same solver with the same options as the code under
test, so disagreements point at the approximation being validated rather than
at solver artifacts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from math import comb

import numpy as np

from .arena import Arena, ModelRegistry
from .btmodel import BtFit, FitError, SolverOptions, _minimize_stack, fit, sigmoid
from .robustness import _leader_first, _require_integer, _reversed

__all__ = [
    "BruteForceResult",
    "EnumerationCapError",
    "SynthSpec",
    "brute_force_pair",
    "finite_difference_influence",
    "generate",
    "random_spec",
]

_MAX_REFITS = 2_000_000
_FD_STEP = 1e-4
# Subsets are refit together in chunks: the first holds the full-data fit and the
# subsets of size 1 and 2 that are first of their class multisets, each next one
# those of one larger size. A chunk is split only where its stacked rows' dense
# curvature matrices and cell bin numbers (8 * (M² + 2 * cells) bytes a row) would
# pass this many bytes.
_STACK_BYTES = 1 << 20


class EnumerationCapError(RuntimeError):
    """The exhaustive search would exceed its refit cap; refused rather than truncated."""


@dataclass(frozen=True)
class SynthSpec:
    """Deterministic recipe for a synthetic arena.

    Outcomes are drawn with the PCG64 generator seeded from ``seed``, so the
    same spec always produces bit-identical arenas. ``strengths[0]`` must be 0
    (the reference); each schedule entry plays ``games`` matchups between one
    pair of models, with the first side winning with probability
    sigmoid(strength difference).
    """

    strengths: tuple[float, ...]
    schedule: tuple[tuple[int, int, int], ...]
    seed: int

    def __post_init__(self):
        if len(self.strengths) < 2:
            raise ValueError("need at least 2 models")
        if self.strengths[0] != 0.0:
            raise ValueError("the reference strength (index 0) must be 0")
        m = len(self.strengths)
        for a, b, games in self.schedule:
            if not (0 <= a < m and 0 <= b < m) or a == b:
                raise ValueError(f"bad schedule pair ({a}, {b})")
            if games < 1:
                raise ValueError("each schedule entry needs at least one game")

    @property
    def n_models(self) -> int:
        return len(self.strengths)


def generate(spec: SynthSpec) -> Arena:
    """Draw the arena described by the spec; identical spec, identical arena."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    strengths = np.asarray(spec.strengths, dtype=np.float64)
    a, b, games = np.array(spec.schedule, dtype=np.int64).reshape(-1, 3).T
    # One draw per game in schedule order: the stream reads as one draw per entry would.
    p_win = np.repeat(sigmoid(strengths[a] - strengths[b]), games)
    a_won = rng.random(int(games.sum())) < p_win
    names = [f"m{k}" for k in range(spec.n_models)]
    return Arena(ModelRegistry(names), np.repeat(a, games), np.repeat(b, games), a_won)


def random_spec(
    seed: int,
    n_models: int | None = None,
    target_matchups: int = 20,
) -> SynthSpec:
    """Connected random spec for self-validation sweeps.

    A chain through all models guarantees an identified fit; the remaining
    games pair models uniformly at random, and strengths lie in [-1.5, 1.5].
    Structure comes from a stream decorrelated from the outcome stream of ``generate``.
    A seed that is not an integer in [0, 2**64), an ``n_models`` or
    ``target_matchups`` that is not an integer, and fewer than 2 models raise ValueError.
    """
    _require_integer("seed", seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} outside [0, 2**64)")
    _require_integer("target_matchups", target_matchups)
    if n_models is not None:
        _require_integer("n_models", n_models)
        if n_models < 2:
            raise ValueError(f"n_models must be at least 2, got {n_models}")
    rng = np.random.Generator(np.random.PCG64(int(np.uint64(seed) ^ np.uint64(0xD1B54A32D192ED03))))
    m = int(n_models) if n_models is not None else int(rng.integers(2, 6))
    if target_matchups < m - 1:
        raise ValueError("target_matchups must cover the connectivity backbone")
    strengths = (0.0, *(float(x) for x in rng.uniform(-1.5, 1.5, m - 1)))
    schedule = [(k, k + 1, 1) for k in range(m - 1)]
    while len(schedule) < target_matchups:
        a = int(rng.integers(0, m))
        b = int(rng.integers(0, m))
        if a != b:
            schedule.append((a, b, 1))
    return SynthSpec(strengths=strengths, schedule=tuple(schedule), seed=seed)


@dataclass(frozen=True)
class BruteForceResult:
    """The exhaustive search's answer.

    ``refits_performed`` counts subsets, by size and lexicographically within a
    size, up to and including the answer, or all of them when none flips. It
    counts subsets, not solves: only the first subset of each class multiset is
    refit.
    """

    flip_exists: bool
    minimal_subset: tuple[int, ...] | None
    refits_performed: int


def brute_force_pair(
    arena: Arena,
    a: int | str,
    b: int | str,
    budget: int,
    options: SolverOptions | None = None,
) -> BruteForceResult:
    """Exhaustively refit over every subset of at most ``budget`` matchups.

    Returns the smallest flipping subset, lexicographically first among the
    minimal ones, or flip_exists=False. Enumeration beyond ``_MAX_REFITS``
    subsets is refused outright, never silently truncated; that cap is the
    search's one limit, and it admits any budget up to 20 matchups, so no
    subset holds more than 19. A refit depends only
    on the multiset of (cell, winner) classes a subset drops, so only each
    multiset's first subset, by size and lexicographically within a size, is
    enumerated: the one that drops a prefix of every class's matchups. These
    subsets are refit a chunk at a time, as one stacked solve whose rows are
    bit-identical to single refits, each weighted by the cells' class counts
    less its multiset. The first chunk opens with the full-data fit, which
    orders the pair, and holds the subsets of size 1 and 2; each later chunk
    holds one larger size. A chunk's solve ends once every row up to its first
    flip or non-finite refit has stopped. Any other subset refits to the bits
    of its multiset's first, which comes before it, so the first flipping or
    non-finite subset is always enumerated. ``refits_performed`` counts
    subsets, not solves: the answer's position among every subset by size and
    lexicographically (all of them when none flips), not counting the
    full-data fit.
    """
    _require_integer("budget", budget)
    if budget < 0:
        raise ValueError("budget must be non-negative")
    options = options or SolverOptions()
    ia, ib = arena.models.resolve_pair(a, b)

    n = arena.n_matchups
    sizes = range(1, min(budget, n - 1) + 1)
    total = sum(comb(n, s) for s in sizes)
    if total > _MAX_REFITS:
        raise EnumerationCapError(
            f"{total} refits needed for N={n}, budget={budget}; cap is {_MAX_REFITS}"
        )

    # Cold starts and the flip test match the refit-verification procedure:
    # exactly symmetric reduced datasets land on score ties, and a tie is not a flip.
    # A row's class weights are the cells' class counts less its own count of each
    # dropped class, all exact integers, built here rather than by refit_without so the
    # oracle stays an independent check of it. The empty subset drops nothing, so its
    # row is the full-data fit bit for bit.
    cells, m = arena.cells, arena.n_models
    length = 2 * cells.n_cells
    cap = max(1, _STACK_BYTES // (8 * (m * m + length)))
    order = cells.class_index[0]
    same = cells.row_class[order[1:]] == cells.row_class[order[:-1]]
    before = np.full(n, -1, dtype=np.intp)  # the class's previous matchup, or -1
    before[order[1:][same]] = order[:-1][same]
    before = before.tolist()
    firsts = [_first_subsets(before, s) for s in sizes]
    chunks = [itertools.chain([()], *firsts[:2]), *firsts[2:]]
    pair = None  # (leader, challenger), once the full-data fit has ordered them

    def flips(theta):
        """The tie rule of ``reverses`` on each row; the first row ever seen is the full-data fit."""
        nonlocal pair
        if pair is None:
            pair = _leader_first(theta[0], ia, ib)
        return _reversed(theta[:, pair[0]], theta[:, pair[1]])

    for chunk in chunks:
        while block := list(itertools.islice(chunk, cap)):
            rows = len(block)
            lengths = np.fromiter(map(len, block), dtype=np.intp, count=rows)
            dropped = np.fromiter(itertools.chain.from_iterable(block), dtype=np.intp,
                                  count=int(lengths.sum()))
            bins = np.repeat(np.arange(rows) * length, lengths) + cells.row_class[dropped]
            taken = np.bincount(bins, minlength=rows * length).reshape(rows, length)
            cws = (cells.class_counts - taken).astype(np.float64)
            scores, reasons, _, _ = _minimize_stack(cells, cws, m, options, lambda theta: flips(theta).any())
            # Rows stopped with reason None from the first that met non-finite values or
            # was abandoned; the stop test leaves the answer before either.
            solved = reasons.index(None) if None in reasons else rows
            hits = np.flatnonzero(flips(scores[:solved])) if solved else ()
            if len(hits):
                return BruteForceResult(True, block[hits[0]], _subset_position(n, block[hits[0]]))
            if solved < rows:
                subset = block[solved]
                if not subset:
                    raise FitError("non-finite values encountered during fitting"
                                   " (possible separation with ridge = 0)")
                raise FitError(f"the refit without matchups {subset} met non-finite values")
    return BruteForceResult(False, None, total)


def _subset_position(n: int, subset: tuple[int, ...]) -> int:
    """Where ``subset`` comes, from 1, among the nonempty subsets of ``n`` matchups by
    size and lexicographically within a size. The subsets of its size that come after it
    share its first i matchups, then take all of their other ``size - i`` matchups from
    above its next one, r: ``comb(n - 1 - r, size - i)`` of them for each i."""
    size = len(subset)
    later = sum(comb(n - 1 - r, size - i) for i, r in enumerate(subset))
    return sum(comb(n, k) for k in range(1, size + 1)) - later


def _first_subsets(before: list[int], size: int, start: int = 0, chosen: tuple[int, ...] = ()):
    """Each ``size``-subset of matchups from ``start`` on, lexicographically, that holds
    ``before[r]`` for every matchup r it holds: the first subset of its class multiset."""
    if not size:
        yield chosen
        return
    for r in range(start, len(before) - size + 1):
        if before[r] < 0 or before[r] in chosen:
            yield from _first_subsets(before, size - 1, r + 1, (*chosen, r))


def finite_difference_influence(
    arena: Arena,
    bt: BtFit,
    target: int | str,
    n: int,
) -> float:
    """Central difference of the target's fitted score under a perturbed matchup weight.

    Matchup n's weight steps to 1 ± ``_FD_STEP``. Each side is a full weighted
    refit at a tightened tolerance with the same ridge as the base fit. An ``n``
    that is not an integer raises ValueError; one out of range, IndexError.
    """
    _require_integer("n", n)
    if not 0 <= n < arena.n_matchups:
        raise IndexError(f"matchup index {n} out of range")
    t = arena.models.resolve(target)
    tight = replace(bt.options, tol=min(bt.options.tol, 1e-12), max_iter=max(bt.options.max_iter, 300))

    deltas = []
    for sign in (+1.0, -1.0):
        w = np.ones(arena.n_matchups)
        w[n] = 1.0 + sign * _FD_STEP
        side = fit(arena, w, tight, warm_start=bt.scores)
        if not side.converged:
            raise FitError(f"perturbed refit (weight {w[n]:g} at index {n}) did not converge")
        deltas.append(float(side.scores[t]))
    return (deltas[0] - deltas[1]) / (2.0 * _FD_STEP)
