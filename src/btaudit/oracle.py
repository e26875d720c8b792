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
from .btmodel import BtFit, FitError, SolverOptions, _fit_scores, fit, sigmoid
from .robustness import reverses

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
    spread: float = 1.5,
) -> SynthSpec:
    """Connected random spec for self-validation sweeps.

    A chain through all models guarantees an identified fit; the remaining
    games pair models uniformly at random. Structure is drawn from a stream
    decorrelated from the outcome stream that ``generate`` uses.
    """
    rng = np.random.Generator(np.random.PCG64(int(np.uint64(seed) ^ np.uint64(0xD1B54A32D192ED03))))
    m = int(n_models) if n_models is not None else int(rng.integers(2, 6))
    if target_matchups < m - 1:
        raise ValueError("target_matchups must cover the connectivity backbone")
    strengths = (0.0, *(float(x) for x in rng.uniform(-spread, spread, m - 1)))
    schedule = [(k, k + 1, 1) for k in range(m - 1)]
    while len(schedule) < target_matchups:
        a = int(rng.integers(0, m))
        b = int(rng.integers(0, m))
        if a != b:
            schedule.append((a, b, 1))
    return SynthSpec(strengths=strengths, schedule=tuple(schedule), seed=seed)


@dataclass(frozen=True)
class BruteForceResult:
    flip_exists: bool
    minimal_subset: tuple[int, ...] | None
    refits_performed: int


def brute_force_pair(
    arena: Arena,
    a: int | str,
    b: int | str,
    budget: int,
    options: SolverOptions | None = None,
    max_refits: int = 2_000_000,
) -> BruteForceResult:
    """Exhaustively refit over every subset of at most ``budget`` matchups.

    Returns the smallest flipping subset, lexicographically first among the
    minimal ones, or flip_exists=False. Enumeration beyond the refit cap is
    refused outright, never silently truncated.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if budget > _MAX_BRUTE_BUDGET:
        raise ValueError(f"budget {budget} above the exhaustive-search limit ({_MAX_BRUTE_BUDGET})")
    options = options or SolverOptions()

    base = fit(arena, options=options)
    ia = arena.models.resolve(a)
    ib = arena.models.resolve(b)
    if ia == ib:
        raise ValueError("a pair needs two distinct models")
    sa, sb = float(base.scores[ia]), float(base.scores[ib])
    if sa < sb or (sa == sb and ia > ib):
        ia, ib = ib, ia

    n = arena.n_matchups
    if budget == 0:
        return BruteForceResult(False, None, 0)
    sizes = range(1, min(budget, n - 1) + 1)
    total = sum(comb(n, s) for s in sizes)
    if total > max_refits:
        raise EnumerationCapError(
            f"{total} refits needed for N={n}, budget={budget}; cap is {max_refits}"
        )

    # Cold starts and the flip test match the refit-verification procedure:
    # exactly symmetric reduced datasets land on score ties, and a tie is not a flip.
    w = np.ones(n)
    performed = 0
    for size in sizes:
        for subset in itertools.combinations(range(n), size):
            idx = list(subset)
            w[idx] = 0.0
            scores = _fit_scores(arena, w, options)
            w[idx] = 1.0
            performed += 1
            if reverses(float(scores[ia]), float(scores[ib])):
                return BruteForceResult(True, subset, performed)
    return BruteForceResult(False, None, performed)


def finite_difference_influence(
    arena: Arena,
    bt: BtFit,
    target: int | str,
    n: int,
    epsilon: float = 1e-4,
) -> float:
    """Central difference of the target's fitted score under a perturbed matchup weight.

    Each side is a full weighted refit at a tightened tolerance with the same
    ridge as the base fit.
    """
    if not 1e-6 <= epsilon <= 1e-3:
        raise ValueError("epsilon must lie in [1e-6, 1e-3]")
    if not 0 <= n < arena.n_matchups:
        raise IndexError(f"matchup index {n} out of range")
    t = arena.models.resolve(target)
    tight = replace(bt.options, tol=min(bt.options.tol, 1e-12), max_iter=max(bt.options.max_iter, 300))

    deltas = []
    for sign in (+1.0, -1.0):
        w = np.ones(arena.n_matchups)
        w[n] = 1.0 + sign * epsilon
        side = fit(arena, w, tight, warm_start=bt.scores)
        if not side.converged:
            raise FitError(f"perturbed refit (weight {w[n]:g} at index {n}) did not converge")
        deltas.append(float(side.scores[t]))
    return (deltas[0] - deltas[1]) / (2.0 * epsilon)
