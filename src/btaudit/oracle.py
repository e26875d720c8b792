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

from .arena import Arena
from .btmodel import BtFit, FitError, SolverOptions, _minimize_stack, _stacked_class_weights, fit, sigmoid
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

_MAX_BRUTE_BUDGET = 4
_MAX_REFITS = 2_000_000
_FD_STEP = 1e-4
# Subsets are refit together in chunks: the first holds the full-data fit and every
# subset of size 1 and 2, each next one every subset of one larger size. A chunk is
# split only where its dense curvature matrices, 0/1 row weights and their bin
# numbers (8 * (M² + 2N) bytes a row) would pass this many bytes.
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
    side_a: list[int] = []
    side_b: list[int] = []
    a_won: list[int] = []
    for a, b, games in spec.schedule:
        p_win = float(sigmoid(strengths[a] - strengths[b]))
        wins = rng.random(games) < p_win
        side_a.extend([a] * games)
        side_b.extend([b] * games)
        a_won.extend(int(w) for w in wins)
    names = [f"m{k}" for k in range(spec.n_models)]
    return Arena.from_records(names, zip(side_a, side_b, a_won))


def random_spec(
    seed: int,
    n_models: int | None = None,
    target_matchups: int = 20,
) -> SynthSpec:
    """Connected random spec for self-validation sweeps.

    A chain through all models guarantees an identified fit; the remaining
    games pair models uniformly at random, and strengths lie in [-1.5, 1.5].
    Structure comes from a stream decorrelated from the outcome stream of ``generate``.
    A seed that is not an integer in [0, 2**64) raises ValueError.
    """
    _require_integer("seed", seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} outside [0, 2**64)")
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

    ``refits_performed`` counts the subsets refit, in enumeration order, up to
    and including the answer, or all of them when none flips.
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
    subsets is refused outright, never silently truncated. Subsets are
    enumerated by size, and lexicographically within a size, and refit a chunk
    at a time, as one stacked solve whose rows are bit-identical to single
    refits. The first chunk opens with the full-data fit, which orders the
    pair, and holds every subset of size 1 and 2; each later chunk holds one
    larger size. A chunk's solve ends once every row up to its first flip or
    non-finite refit has stopped. ``refits_performed`` counts the subsets up to
    and including the answer (all of them when none flips), not the full-data
    fit or rows solved past the answer.
    """
    _require_integer("budget", budget)
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if budget > _MAX_BRUTE_BUDGET:
        raise ValueError(f"budget {budget} above the exhaustive-search limit ({_MAX_BRUTE_BUDGET})")
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
    # Class weights come from each subset's 0/1 row weights, not from refit_without's
    # subtraction, so the oracle stays an independent check of it. The empty subset's
    # are the cells' class counts, so its row is the full-data fit bit for bit.
    cells, m = arena.cells, arena.n_models
    cap = max(1, _STACK_BYTES // (8 * (m * m + 2 * n)))
    subsets = [itertools.combinations(range(n), s) for s in sizes]
    chunks = [itertools.chain([()], *subsets[:2]), *subsets[2:]]
    pair = None  # (leader, challenger), once the full-data fit has ordered them

    def flips(theta):
        """The tie rule of ``reverses`` on each row; the first row ever seen is the full-data fit."""
        nonlocal pair
        if pair is None:
            pair = _leader_first(theta[0], ia, ib)
        return _reversed(theta[:, pair[0]], theta[:, pair[1]])

    performed = -1  # the full-data fit is no subset's refit
    for chunk in chunks:
        while block := list(itertools.islice(chunk, cap)):
            rows = len(block)
            lengths = np.fromiter(map(len, block), dtype=np.intp, count=rows)
            dropped = np.fromiter(itertools.chain.from_iterable(block), dtype=np.intp,
                                  count=int(lengths.sum()))
            w = np.ones((rows, n))
            w[np.repeat(np.arange(rows), lengths), dropped] = 0.0
            scores, reasons, _, _ = _minimize_stack(cells, _stacked_class_weights(cells, w), m, options,
                                                    lambda theta: flips(theta).any())
            # Rows stopped with reason None from the first that met non-finite values or
            # was abandoned; the stop test leaves the answer before either.
            solved = reasons.index(None) if None in reasons else rows
            hits = np.flatnonzero(flips(scores[:solved])) if solved else ()
            if len(hits):
                return BruteForceResult(True, block[hits[0]], performed + int(hits[0]) + 1)
            if solved < rows:
                if not block[solved]:
                    raise FitError("non-finite values encountered during fitting"
                                   " (possible separation with ridge = 0)")
                raise FitError(f"the refit without matchups {block[solved]} met non-finite values")
            performed += rows
    return BruteForceResult(False, None, performed)


def finite_difference_influence(
    arena: Arena,
    bt: BtFit,
    target: int | str,
    n: int,
) -> float:
    """Central difference of the target's fitted score under a perturbed matchup weight.

    Matchup n's weight steps to 1 ± ``_FD_STEP``. Each side is a full weighted
    refit at a tightened tolerance with the same ridge as the base fit.
    """
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
