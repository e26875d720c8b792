import itertools
from collections import Counter
from math import comb

import numpy as np
import pytest

from btaudit import (
    Arena,
    EnumerationCapError,
    FitError,
    SolverOptions,
    SynthSpec,
    brute_force_pair,
    finite_difference_influence,
    fit,
    generate,
    min_drop_search,
    random_spec,
    ranking,
)
from btaudit.btmodel import _minimize, sigmoid
from btaudit.oracle import BruteForceResult
from btaudit.robustness import _canonical_pair, reverses
from conftest import RIDGELESS, bench_inputs, round_robin_spec, two_player_arena


# ---- reference: the exhaustive search as one refit per subset, kept verbatim ----

# The reference's own budget limit; a test lifts it to compare past budget 4.
_REFERENCE_MAX_BUDGET = 4


def _fit_scores(arena: Arena, w: np.ndarray, options: SolverOptions) -> np.ndarray:
    """Scores alone; collapses ``w`` row by row, a check on ``refit_without``'s subtraction."""
    return _minimize(arena.cells, arena.cells.class_weights(w), arena.n_models, options, None)[0]


def reference_brute_force_pair(
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
    if budget > _REFERENCE_MAX_BUDGET:
        raise ValueError(f"budget {budget} above the exhaustive-search limit ({_REFERENCE_MAX_BUDGET})")
    options = options or SolverOptions()

    ia, ib = _canonical_pair(fit(arena, options=options), a, b)

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


def reference_generate(spec: SynthSpec) -> Arena:
    """``generate`` as one draw per schedule entry, kept verbatim."""
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


# ---- tests ----


def test_generate_is_deterministic():
    spec = SynthSpec(strengths=(0.0, -0.4, 0.9), schedule=((0, 1, 5), (1, 2, 5), (2, 0, 5)), seed=42)
    one = generate(spec)
    two = generate(spec)
    assert np.array_equal(one.a_won, two.a_won)
    assert np.array_equal(one.side_a, two.side_a)
    assert one.models.names == ("m0", "m1", "m2")


def test_generate_even_strengths_near_half():
    spec = SynthSpec(strengths=(0.0, 0.0), schedule=((0, 1, 10_000),), seed=5)
    arena = generate(spec)
    rate = arena.a_won.mean()
    assert 0.48 <= rate <= 0.52


def test_generate_log3_gap_near_three_quarters():
    spec = SynthSpec(strengths=(0.0, -np.log(3.0)), schedule=((0, 1, 10_000),), seed=6)
    arena = generate(spec)
    assert abs(arena.a_won.mean() - 0.75) < 0.02


def _random_schedule_spec(seed: int) -> SynthSpec:
    """A spec of 2-6 models whose entries play 1-40 games each, strengths in [-3, 3]."""
    rng = np.random.Generator(np.random.PCG64([seed, 31]))
    m = int(rng.integers(2, 7))
    schedule = []
    for _ in range(int(rng.integers(0, 12))):
        a, b = (int(x) for x in rng.choice(m, 2, replace=False))
        schedule.append((a, b, int(rng.integers(1, 41))))
    strengths = (0.0, *(float(x) for x in rng.uniform(-3.0, 3.0, m - 1)))
    return SynthSpec(strengths=strengths, schedule=tuple(schedule), seed=seed)


def test_generate_matches_one_draw_per_schedule_entry():
    # One draw of every game reads the stream as one draw per entry did, so every arena
    # keeps its bits: single-game specs, multi-game schedules and the empty schedule.
    specs = [random_spec(seed) for seed in range(60)]
    specs += [round_robin_spec(seed, 2 + seed % 5, games_per_pair=1 + seed % 4) for seed in range(20)]
    specs += [_random_schedule_spec(seed) for seed in range(120)]
    specs.append(SynthSpec(strengths=(0.0, 0.5), schedule=(), seed=3))
    for spec in specs:
        got, want = generate(spec), reference_generate(spec)
        assert got.models.names == want.models.names
        for name in ("side_a", "side_b", "a_won"):
            assert getattr(got, name).dtype == getattr(want, name).dtype
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_spec_validation():
    with pytest.raises(ValueError, match="reference"):
        SynthSpec(strengths=(0.5, 0.0), schedule=((0, 1, 1),), seed=0)
    with pytest.raises(ValueError, match="pair"):
        SynthSpec(strengths=(0.0, 1.0), schedule=((0, 0, 1),), seed=0)
    with pytest.raises(ValueError, match="one game"):
        SynthSpec(strengths=(0.0, 1.0), schedule=((0, 1, 0),), seed=0)


def test_random_spec_is_connected_and_sized():
    spec = random_spec(3, n_models=4, target_matchups=21)
    arena = generate(spec)
    assert arena.n_matchups == 21
    assert np.all(arena.occurrence_counts() > 0)


def test_random_spec_refuses_seeds_outside_64_bits():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=f"seed {seed} outside"):
            random_spec(seed)
    spec = random_spec(2**64 - 1, n_models=3, target_matchups=6)
    assert spec == random_spec(2**64 - 1, n_models=3, target_matchups=6)
    assert generate(spec).n_matchups == 6


def test_random_spec_refuses_a_seed_that_is_not_an_integer():
    for seed in (1.5, True, "3"):
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed!r}$"):
            random_spec(seed)
    assert random_spec(np.int64(3)) == random_spec(3)
    assert random_spec(np.uint64(3)).seed == 3


def test_random_spec_refuses_model_and_matchup_counts_that_are_not_usable_integers():
    # One model (or True) left the filler loop drawing the same model forever;
    # floats were truncated or counted up to.
    for n_models, message in ((1, "must be at least 2, got 1"), (0, "must be at least 2, got 0"),
                              (True, "must be an integer, got True"), (2.7, "must be an integer, got 2.7")):
        with pytest.raises(ValueError, match=f"^n_models {message}$"):
            random_spec(3, n_models=n_models)
    for target in (6.5, True, "6"):
        with pytest.raises(ValueError, match=f"^target_matchups must be an integer, got {target!r}$"):
            random_spec(3, n_models=3, target_matchups=target)
    assert random_spec(3, n_models=np.int64(3), target_matchups=np.int64(6)) == random_spec(
        3, n_models=3, target_matchups=6)


def test_brute_force_finds_minimal_three_win_subset(arena_3_1):
    result = brute_force_pair(arena_3_1, 0, 1, 3)
    assert result.flip_exists
    assert result.minimal_subset == (0, 1, 2)
    # minimality: nothing smaller flips
    smaller = brute_force_pair(arena_3_1, 0, 1, 2)
    assert not smaller.flip_exists
    assert smaller.refits_performed == 4 + 6  # all size-1 and size-2 subsets


def test_brute_force_budget_zero(arena_3_1):
    result = brute_force_pair(arena_3_1, 0, 1, 0)
    assert not result.flip_exists and result.refits_performed == 0


def test_single_drop_flips_an_exact_tie(arena_2_2):
    # Removing one first-side win strictly reverses a tied pair; enumeration
    # over all four single drops is the authority here.
    result = brute_force_pair(arena_2_2, 0, 1, 1)
    assert result.flip_exists
    assert result.minimal_subset == (0,)


def test_brute_force_orientation_is_canonical(arena_3_1):
    fwd = brute_force_pair(arena_3_1, 0, 1, 3)
    rev = brute_force_pair(arena_3_1, 1, 0, 3)
    assert fwd.flip_exists == rev.flip_exists
    assert fwd.minimal_subset == rev.minimal_subset


def test_enumeration_cap_refuses_not_truncates(monkeypatch):
    import btaudit.oracle as oracle_mod

    monkeypatch.setattr(oracle_mod, "_MAX_REFITS", 100)
    arena = generate(random_spec(9, n_models=3, target_matchups=30))
    with pytest.raises(EnumerationCapError, match="cap is 100$"):
        brute_force_pair(arena, 0, 1, 3)


def test_finite_difference_on_symmetric_arena(arena_2_2):
    bt = fit(arena_2_2, options=RIDGELESS)
    # Exact weighted-refit derivative on the 2-2 arena: -0.5 for a first-side
    # win, +0.5 for a loss (hand derivation via the closed-form two-player MLE).
    for n, expected in ((0, -0.5), (2, 0.5)):
        fd = finite_difference_influence(arena_2_2, bt, 1, n)
        assert fd == pytest.approx(expected, abs=1e-6)


def test_finite_difference_reference_is_zero(arena_2_2):
    bt = fit(arena_2_2, options=RIDGELESS)
    assert abs(finite_difference_influence(arena_2_2, bt, 0, 0)) < 1e-10


def test_finite_difference_refuses_an_index_that_is_not_an_integer(arena_2_2):
    # numpy reads w[True] as a mask over every weight, and a float index raised its bare IndexError.
    bt = fit(arena_2_2, options=RIDGELESS)
    for n in (True, 1.5):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {n!r}$"):
            finite_difference_influence(arena_2_2, bt, 1, n)
    assert finite_difference_influence(arena_2_2, bt, 1, np.int64(1)) == finite_difference_influence(
        arena_2_2, bt, 1, 1)


def test_oracle_uses_matching_solver_options(arena_3_1):
    # Same options as the system under test: a ridgeless run must agree with
    # the ridgeless closed forms.
    result = brute_force_pair(arena_3_1, 0, 1, 2, options=RIDGELESS)
    assert not result.flip_exists


@pytest.mark.parametrize("options", [None, RIDGELESS], ids=["default", "ridgeless"])
def test_stacked_search_matches_one_refit_per_subset(options):
    flips = 0
    for i in range(40):
        arena = generate(random_spec(500 + i, target_matchups=8 + i % 6))
        first, second = ranking(fit(arena, options=options)).order[:2]
        for budget in (1, 2, 3):
            want = reference_brute_force_pair(arena, first, second, budget, options=options)
            got = brute_force_pair(arena, first, second, budget, options=options)
            assert got == want
            flips += want.flip_exists
    assert flips  # the sample holds flips and searches that find none
    assert flips < 120


def test_stacked_search_with_one_subset_per_chunk(monkeypatch):
    # A byte cap below one subset's share leaves one row per chunk.
    import btaudit.oracle as oracle_mod

    monkeypatch.setattr(oracle_mod, "_STACK_BYTES", 1)
    for i in range(4):
        arena = generate(random_spec(700 + i, target_matchups=9))
        first, second = ranking(fit(arena)).order[:2]
        assert brute_force_pair(arena, first, second, 3) == reference_brute_force_pair(
            arena, first, second, 3)


# random_spec(seed, target_matchups=n) arenas, keyed (seed, n), by the size of
# their top pair's minimal flip at budget 3 (0: none flips).
_FLIP_SIZES = {(801, 8): 1, (802, 10): 1, (813, 10): 2, (803, 12): 2, (806, 10): 3, (820, 8): 3,
               (800, 10): 0}


def _top_pair(seed, n):
    arena = generate(random_spec(seed, target_matchups=n))
    first, second = ranking(fit(arena)).order[:2]
    return arena, first, second


def test_chunks_that_span_subset_sizes_match_one_refit_per_subset():
    # The first chunk holds the full-data fit, every single drop and every
    # pair; the next one holds every triple.
    for (seed, n), size in _FLIP_SIZES.items():
        arena, first, second = _top_pair(seed, n)
        want = reference_brute_force_pair(arena, first, second, 3)
        assert len(want.minimal_subset or ()) == size
        assert brute_force_pair(arena, first, second, 3) == want


def _class_tuple(arena, subset):
    """The sorted (cell, winner) classes of a subset's matchups: its class multiset."""
    return tuple(sorted(arena.cells.row_class[list(subset)].tolist()))


def _stacked_multisets(arena, budget):
    """Each enumerated subset's class multiset, and the distinct multisets in the order
    of their first subsets: the oracle's stack rows after the full-data fit, when no
    chunk is split. Subsets of different sizes never share a multiset."""
    n = arena.n_matchups
    sizes = range(1, min(budget, n - 1) + 1)
    keys = [_class_tuple(arena, subset)
            for subset in itertools.chain.from_iterable(itertools.combinations(range(n), s) for s in sizes)]
    return keys, list(dict.fromkeys(keys))


def _fail_refit_at(monkeypatch, position):
    """Make the stacked row at ``position``, counted over every solve after the
    full-data fit, stop on non-finite values, with infinite scores."""
    import btaudit.oracle as oracle_mod

    real, seen = oracle_mod._minimize_stack, [-1]  # the first row solved is the full-data fit

    def stack(cells, cws, n_models, options, settled=None):
        theta, reasons, iterations, gnorms = real(cells, cws, n_models, options, settled)
        row = position - seen[0]
        seen[0] += len(reasons)
        if 0 <= row < len(reasons):
            theta[row], reasons[row] = np.inf, None
        return theta, reasons, iterations, gnorms

    monkeypatch.setattr(oracle_mod, "_minimize_stack", stack)


def test_a_failed_refit_stops_the_search_only_at_or_before_the_answer(monkeypatch):
    # Tier-1 turns warnings into errors, so the failed row's infinite scores
    # must stay out of the chunk's flip test. A subset is refit in its class
    # multiset's row, which the multiset's first subset decides.
    for seed, n in ((802, 10), (813, 10), (803, 12), (800, 10)):
        arena, first, second = _top_pair(seed, n)
        want = reference_brute_force_pair(arena, first, second, 3)
        answer = want.refits_performed - 1  # the last subset when none flips
        keys, rows = _stacked_multisets(arena, 3)
        for position in sorted({0, answer - 1, answer, answer + 1, answer + 20} - {-1}):
            # A position past the last subset names the row past the last one solved.
            row, earliest = ((rows.index(keys[position]), keys.index(keys[position]))
                             if position < len(keys) else (len(rows), position))
            with monkeypatch.context() as patch:
                _fail_refit_at(patch, row)
                if earliest <= answer:
                    with pytest.raises(FitError, match="non-finite"):
                        brute_force_pair(arena, first, second, 3)
                else:
                    assert brute_force_pair(arena, first, second, 3) == want


# ---- the schedule: chunks by subset size, each stopped at its answer ----


def _record_solves(monkeypatch):
    """Record each stacked solve's results, and each row's iterations when solved to the end."""
    import btaudit.oracle as oracle_mod

    real, solves = oracle_mod._minimize_stack, []

    def stack(cells, cws, n_models, options, settled=None):
        result = real(cells, cws, n_models, options, settled)
        solves.append((*result[:2], real(cells, cws, n_models, options)[2]))
        return result

    monkeypatch.setattr(oracle_mod, "_minimize_stack", stack)
    return solves


@pytest.mark.parametrize("seed, n, slow_first", [(860, 10, False), (804, 9, True)],
                         ids=["slow-row-after-the-answer", "slow-row-before-the-answer"])
def test_a_chunk_stops_once_every_row_up_to_its_answer_has_stopped(monkeypatch, seed, n, slow_first):
    # A ridge-bounded separation takes 12 or more iterations; these answers,
    # both in the first chunk, take at most 5. A slow row after the answer is
    # abandoned; one before it is waited for, since it could flip first.
    arena, first, second = _top_pair(seed, n)
    want = reference_brute_force_pair(arena, first, second, 3)
    solves = _record_solves(monkeypatch)
    assert brute_force_pair(arena, first, second, 3) == want
    [(_, reasons, iterations)] = solves
    keys, rows = _stacked_multisets(arena, 3)
    answer = 1 + rows.index(keys[want.refits_performed - 1])  # row 0 is the full-data fit
    slow = np.flatnonzero(iterations >= 12)
    assert iterations[answer] <= 5 and slow.size
    assert None not in reasons[:answer + 1]
    if slow_first:
        assert slow[0] < answer
    else:
        assert slow[0] > answer and all(reasons[r] is None for r in slow)


def _poison_row_at(monkeypatch, position):
    """Give the stacked row at ``position``, counted over every solve (-1 for the
    full-data fit), NaN class weights, so it meets non-finite values at its first iterate."""
    import btaudit.oracle as oracle_mod

    real, seen = oracle_mod._minimize_stack, [-1]

    def stack(cells, cws, n_models, options, settled=None):
        row = position - seen[0]
        seen[0] += len(cws)
        if 0 <= row < len(cws):
            cws = cws.copy()
            cws[row] = np.nan
        return real(cells, cws, n_models, options, settled)

    monkeypatch.setattr(oracle_mod, "_minimize_stack", stack)


def test_a_non_finite_refit_in_the_answers_chunk_raises_only_before_the_answer(monkeypatch):
    # The non-finite row stops at once, while the rows around it still iterate.
    arena, first, second = _top_pair(860, 10)
    want = reference_brute_force_pair(arena, first, second, 3)
    answer = want.refits_performed - 1
    last = arena.n_matchups + arena.n_matchups * (arena.n_matchups - 1) // 2 - 1  # the first chunk's
    keys, rows = _stacked_multisets(arena, 3)
    for position in (0, answer - 1, answer, answer + 1, answer + 2, last):
        # The subset's refit is its class multiset's row, which the multiset's first subset decides.
        with monkeypatch.context() as patch:
            _poison_row_at(patch, rows.index(keys[position]))
            if keys.index(keys[position]) <= answer:
                with pytest.raises(FitError, match="refit without matchups .* non-finite"):
                    brute_force_pair(arena, first, second, 3)
            else:
                assert brute_force_pair(arena, first, second, 3) == want


@pytest.mark.parametrize("stack_bytes", [None, 1], ids=["default-chunks", "one-row-chunks"])
def test_a_non_finite_full_data_fit_raises_as_fit_did(monkeypatch, stack_bytes):
    import btaudit.oracle as oracle_mod

    if stack_bytes is not None:
        monkeypatch.setattr(oracle_mod, "_STACK_BYTES", stack_bytes)
    arena, first, second = _top_pair(860, 10)
    for budget in (0, 3):
        with monkeypatch.context() as patch:
            _poison_row_at(patch, -1)
            with pytest.raises(FitError, match="^non-finite values encountered during fitting"):
                brute_force_pair(arena, first, second, budget)


@pytest.mark.parametrize("budget, cases", [
    (1, {(801, 8): 1, (802, 10): 1, (813, 10): 0, (800, 10): 0}),
    (4, {(800, 8): 4, (817, 9): 4, (805, 9): 0}),
], ids=["singles-only", "budget-4"])
def test_searches_at_budgets_1_and_4_match_one_refit_per_subset(monkeypatch, budget, cases):
    # Keyed (seed, n) as _FLIP_SIZES, by the size of the minimal flip at this budget.
    solves = _record_solves(monkeypatch)
    for (seed, n), size in cases.items():
        arena, first, second = _top_pair(seed, n)
        solves.clear()
        want = reference_brute_force_pair(arena, first, second, budget)
        assert len(want.minimal_subset or ()) == size
        assert brute_force_pair(arena, first, second, budget) == want
        if not size:  # every chunk runs: the full-data fit with sizes 1 and 2, then one a size
            # A chunk stacks one row per distinct class multiset of its subsets.
            distinct = {s: len(Counter(_class_tuple(arena, subset)
                                       for subset in itertools.combinations(range(n), s)))
                        for s in range(1, budget + 1)}
            chunks = ([1 + distinct[1] + (distinct[2] if budget > 1 else 0)]
                      + [distinct[s] for s in range(3, budget + 1)])
            assert [len(reasons) for _, reasons, _ in solves] == chunks


# Two- and three-player arenas whose matchups fall in few (cell, winner) classes,
# each class's rows scattered across seat orders and positions.
_REPEATED_CLASSES = {
    "one-matchup": (2, [(0, 1, 1)]),
    "two-matchups": (2, [(0, 1, 1), (1, 0, 0)]),
    "two-players": (2, [(0, 1, 1), (1, 0, 1), (0, 1, 1), (0, 1, 0),
                        (1, 0, 0), (1, 0, 1), (0, 1, 1), (1, 0, 0)]),
    "three-players": (3, [(0, 1, 1), (0, 2, 1), (1, 0, 0), (2, 0, 0), (1, 2, 1), (0, 1, 0),
                          (2, 1, 0), (0, 2, 1), (0, 1, 1), (1, 2, 0), (0, 2, 0), (0, 1, 1)]),
}


@pytest.mark.parametrize("name", list(_REPEATED_CLASSES))
def test_subsets_that_drop_the_same_classes_share_one_stacked_row(monkeypatch, name):
    n_models, records = _REPEATED_CLASSES[name]
    arena = Arena.from_records([f"m{k}" for k in range(n_models)], records)
    n = arena.n_matchups
    first, second = ranking(fit(arena)).order[:2]
    solves = _record_solves(monkeypatch)
    for budget in (1, 2, 3, 4):
        solves.clear()
        want = reference_brute_force_pair(arena, first, second, budget)
        assert brute_force_pair(arena, first, second, budget) == want
        # The full-data fit with sizes 1 and 2, then one chunk a size, each one row per
        # distinct class multiset, up to the chunk that holds the answer.
        sizes = range(1, min(budget, n - 1) + 1)
        distinct = {s: len(Counter(_class_tuple(arena, subset)
                                   for subset in itertools.combinations(range(n), s))) for s in sizes}
        chunks = [1 + sum(distinct[s] for s in sizes if s <= 2)] + [distinct[s] for s in sizes if s > 2]
        solved = max(1, len(want.minimal_subset) - 1) if want.flip_exists else len(chunks)
        assert [len(reasons) for _, reasons, _ in solves] == chunks[:solved]


def _big_top_pair(seed, n_models, n_matchups):
    side_a, side_b, a_won = bench_inputs().big_arena(seed, n_models, n_matchups)
    arena = Arena.from_records([f"m{k}" for k in range(n_models)], zip(side_a, side_b, a_won))
    first, second = ranking(fit(arena)).order[:2]
    return arena, first, second


def test_a_chunks_byte_cap_does_not_shrink_with_the_matchup_count(monkeypatch):
    # A stacked row holds its curvature matrix and cell bins, whatever N is, so
    # 2,000 single drops over 6 cells fit in the first chunk, and one solve.
    arena, first, second = _big_top_pair(7, 4, 2_000)
    solves = _record_solves(monkeypatch)
    want = reference_brute_force_pair(arena, first, second, 1)
    assert brute_force_pair(arena, first, second, 1) == want
    assert len(solves) == 1


@pytest.mark.parametrize("case", [("spec", 800, 10, 3), ("spec", 806, 10, 3), ("big", 7, 60, 2)],
                         ids=["no-flip", "flip-of-three", "60-matchups-at-budget-2"])
def test_each_stacked_rows_class_weights_are_its_first_subsets_bit_for_bit(monkeypatch, case):
    # Row by row, the class counts less the dropped multiset equal the class sums
    # of the 0/1 weighting that drops the multiset's first subset.
    import btaudit.oracle as oracle_mod

    kind, seed, n, budget = case
    arena, first, second = _top_pair(seed, n) if kind == "spec" else _big_top_pair(seed, 3, n)
    real, stacked = oracle_mod._minimize_stack, []

    def stack(cells, cws, n_models, options, settled=None):
        stacked.extend(cws.copy())
        return real(cells, cws, n_models, options, settled)

    monkeypatch.setattr(oracle_mod, "_minimize_stack", stack)
    found = brute_force_pair(arena, first, second, budget)
    firsts = {}
    for size in range(1, budget + 1):
        for subset in itertools.combinations(range(arena.n_matchups), size):
            firsts.setdefault(_class_tuple(arena, subset), subset)
    rows = [(), *firsts.values()]
    assert len(stacked) <= len(rows) and (found.flip_exists or len(stacked) == len(rows))
    for cws, subset in zip(stacked, rows):
        w = np.ones(arena.n_matchups)
        w[list(subset)] = 0.0
        assert cws.tobytes() == arena.cells.class_weights(w).tobytes()


def test_one_row_chunks_solve_the_full_data_fit_alone_first(monkeypatch):
    import btaudit.oracle as oracle_mod

    monkeypatch.setattr(oracle_mod, "_STACK_BYTES", 1)
    solves = _record_solves(monkeypatch)
    for seed, n in ((813, 10), (800, 10)):
        arena, first, second = _top_pair(seed, n)
        solves.clear()
        want = reference_brute_force_pair(arena, first, second, 3)
        assert brute_force_pair(arena, first, second, 3) == want
        # One solve for each distinct class multiset up to and including the answer's.
        keys, _ = _stacked_multisets(arena, 3)
        assert [len(reasons) for _, reasons, _ in solves] == [1] * (1 + len(set(keys[:want.refits_performed])))
        assert solves[0][0][0].tobytes() == fit(arena).scores.tobytes()


def test_a_split_chunk_solves_no_multiset_an_earlier_block_solved(monkeypatch):
    # Budget 3 on 40 matchups has 9,880 triples, more than the 8,738 rows a
    # 3-model chunk holds, but far fewer triples of classes: the triples' chunk
    # is one solve, and no class multiset is stacked twice.
    import btaudit.oracle as oracle_mod

    arena, first, second = _big_top_pair(1, 3, 40)
    cells = arena.cells
    assert comb(40, 3) > oracle_mod._STACK_BYTES // (8 * (3 * 3 + 2 * cells.n_cells))
    solves = _record_solves(monkeypatch)
    real, stacked = oracle_mod._minimize_stack, []

    def stack(cells, cws, n_models, options, settled=None):
        stacked.extend(map(bytes, cws))
        return real(cells, cws, n_models, options, settled)

    monkeypatch.setattr(oracle_mod, "_minimize_stack", stack)
    want = reference_brute_force_pair(arena, first, second, 3)
    assert not want.flip_exists
    assert brute_force_pair(arena, first, second, 3) == want
    _, rows = _stacked_multisets(arena, 3)
    assert len(solves) == 2 and sum(len(reasons) for _, reasons, _ in solves) == 1 + len(rows)
    assert len(set(stacked)) == len(stacked)


def test_subset_position_counts_every_subset_up_to_it():
    from btaudit.oracle import _subset_position

    for n in range(1, 10):
        subsets = itertools.chain.from_iterable(itertools.combinations(range(n), s) for s in range(1, 5))
        for position, subset in enumerate(subsets, start=1):
            assert _subset_position(n, subset) == position


def test_budget_zero_solves_only_the_full_data_fit_and_keeps_its_errors(monkeypatch):
    arena, first, second = _top_pair(813, 10)
    solves = _record_solves(monkeypatch)
    assert brute_force_pair(arena, first, second, 0) == BruteForceResult(False, None, 0)
    assert [len(reasons) for _, reasons, _ in solves] == [1]
    for a, b in (("nope", first), (first, first), (first, 99)):
        raised = []
        for search in (brute_force_pair, reference_brute_force_pair):
            with pytest.raises((KeyError, IndexError, ValueError)) as caught:
                search(arena, a, b, 0)
            raised.append((caught.type, str(caught.value)))
        assert raised[0] == raised[1]


@pytest.mark.parametrize("seed, n, budget, size", [
    (919, 11, 5, 5), (919, 9, 6, 6), (919, 10, 7, 7), (914, 9, 8, 8), (920, 10, 8, 0), (919, 10, 5, 0),
], ids=["flip-of-5", "flip-of-6", "flip-of-7", "flip-of-8", "none-at-8", "flip-of-7-past-budget-5"])
def test_budgets_past_4_match_one_refit_per_subset(monkeypatch, seed, n, budget, size):
    # The subset cap admits any budget up to 20 matchups; so does the reference, its limit lifted.
    monkeypatch.setitem(globals(), "_REFERENCE_MAX_BUDGET", 8)
    arena, first, second = _top_pair(seed, n)
    want = reference_brute_force_pair(arena, first, second, budget)
    assert len(want.minimal_subset or ()) == size
    assert brute_force_pair(arena, first, second, budget) == want


def test_greedy_flips_no_fewer_matchups_than_the_exact_search():
    # Arenas shaped as the benchmark's large ones, at budgets the subset cap admits
    # there. A refit-verified greedy flip is one flipping subset, so it can match the
    # exact minimum but never beat it, nor flip where no subset of the budget does.
    sizes = []
    for n_models, n, budget in ((3, 30, 6), (4, 24, 6), (5, 40, 5)):
        for seed in range(1, 17):
            arena, first, second = _big_top_pair(seed, n_models, n)
            exact = brute_force_pair(arena, first, second, budget)
            greedy = min_drop_search(arena, fit(arena), first, second, max_budget=budget)
            size = len(exact.minimal_subset or ())
            assert greedy.found <= exact.flip_exists
            assert not greedy.found or greedy.count >= size
            sizes.append(size)
    assert max(sizes) > 4 and min(sizes) == 0
