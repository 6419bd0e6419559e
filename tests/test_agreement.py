"""Agreement measures, bootstrap intervals, and ordering diagnostics."""

from __future__ import annotations

import numpy as np
import pytest

from sentagree import agreement
from sentagree.agreement import (
    CoincidenceMatrix,
    Measure,
    acc_within_1,
    accuracy,
    alpha,
    bootstrap_ci,
    build_coincidence,
    compute_measure,
    f1_bar,
    ordering_diagnostics,
    pair_cells,
    sentiment_score,
)
from sentagree.errors import UndefinedMeasureError

import oracles

# Worked fixture: pairs {(-,-) x2, (0,0) x2, (-,+)}.
FIXTURE_PAIRS = [(-1, -1), (-1, -1), (0, 0), (0, 0), (-1, 1)]


def test_worked_fixture_matrix() -> None:
    matrix = build_coincidence(FIXTURE_PAIRS)
    expected = np.array([[4.0, 0.0, 1.0], [0.0, 4.0, 0.0], [1.0, 0.0, 0.0]])
    assert np.array_equal(matrix.counts, expected)
    assert matrix.total == 10.0  # twice the number of pairs


def test_worked_fixture_measures() -> None:
    matrix = build_coincidence(FIXTURE_PAIRS)
    assert alpha(matrix, "interval") == pytest.approx(0.18181818, abs=1e-7)
    assert alpha(matrix, "nominal") == pytest.approx(0.68965517, abs=1e-7)
    assert accuracy(matrix) == pytest.approx(0.8)
    assert f1_bar(matrix) == pytest.approx(0.4)
    assert acc_within_1(matrix) == pytest.approx(0.8)


def test_pair_order_and_orientation_invariance() -> None:
    base = build_coincidence(FIXTURE_PAIRS)
    flipped = build_coincidence([(b, a) for a, b in reversed(FIXTURE_PAIRS)])
    assert np.array_equal(base.counts, flipped.counts)


def test_equal_pair_hits_diagonal_twice() -> None:
    matrix = build_coincidence([(1, 1)])
    assert matrix.counts[2, 2] == 2.0
    assert matrix.total == 2.0


def test_perfect_agreement_means_alpha_one() -> None:
    matrix = build_coincidence([(-1, -1)] * 3 + [(0, 0)] * 3 + [(1, 1)] * 3)
    assert alpha(matrix, "interval") == pytest.approx(1.0)
    assert alpha(matrix, "nominal") == pytest.approx(1.0)


def test_alpha_one_iff_no_off_diagonal_mass() -> None:
    rng = np.random.default_rng(42)
    for _ in range(300):
        upper = rng.integers(0, 4, size=(3, 3))
        counts = (upper + upper.T).astype(float)
        matrix = CoincidenceMatrix(counts)
        try:
            value = alpha(matrix, "interval")
        except UndefinedMeasureError:
            continue
        off_diag = counts.sum() - np.trace(counts)
        assert (value == pytest.approx(1.0)) == (off_diag == 0.0)


def test_single_label_alpha_undefined() -> None:
    matrix = build_coincidence([(0, 0), (0, 0)])
    with pytest.raises(UndefinedMeasureError, match="expected disagreement"):
        alpha(matrix, "interval")
    # accuracy and acc_within_1 remain defined
    assert accuracy(matrix) == 1.0
    assert acc_within_1(matrix) == 1.0


def test_f1_bar_needs_both_polar_classes() -> None:
    matrix = build_coincidence([(0, 0), (0, -1)])
    with pytest.raises(UndefinedMeasureError, match="polar"):
        f1_bar(matrix)


def test_extreme_disagreement_hurts_interval_more() -> None:
    agreements = [(-1, -1)] * 4 + [(0, 0)] * 4 + [(1, 1)] * 4
    # only corner confusions: interval counts them 4x
    matrix = build_coincidence(agreements + [(-1, 1)] * 2)
    assert alpha(matrix, "interval") < alpha(matrix, "nominal")
    # only neighbor confusions: interval is more forgiving
    matrix = build_coincidence(agreements + [(-1, 0), (0, 1)])
    assert alpha(matrix, "interval") > alpha(matrix, "nominal")


def test_real_valued_counts_accepted() -> None:
    counts = np.array([[2.5, 0.5, 0.0], [0.5, 3.0, 1.0], [0.0, 1.0, 2.0]])
    matrix = CoincidenceMatrix(counts)
    expected = oracles.alpha_brute(counts.tolist(), "interval")
    assert alpha(matrix, "interval") == pytest.approx(expected, abs=1e-12)


def test_matrix_validation() -> None:
    with pytest.raises(ValueError, match="symmetric"):
        CoincidenceMatrix(np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=float))
    with pytest.raises(ValueError, match="negative"):
        CoincidenceMatrix(np.full((3, 3), -1.0))
    with pytest.raises(ValueError, match="3x3"):
        CoincidenceMatrix(np.zeros((2, 2)))


def test_measures_match_brute_force_on_random_sets() -> None:
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(3, 60))
        pairs = [tuple(rng.integers(-1, 2, size=2)) for _ in range(n)]
        counts = oracles.coincidence_brute(pairs)
        matrix = build_coincidence(pairs)
        for name, brute in oracles.ALL_MEASURES.items():
            expected = brute(counts)
            if expected is None:
                with pytest.raises(UndefinedMeasureError):
                    compute_measure(matrix, name)
            else:
                assert compute_measure(matrix, name) == pytest.approx(expected, abs=1e-12)


def test_bootstrap_is_deterministic_and_ordered() -> None:
    rng = np.random.default_rng(5)
    pairs = [tuple(rng.integers(-1, 2, size=2)) for _ in range(400)]
    first = bootstrap_ci(pairs, Measure.ALPHA_INTERVAL, seed=11)
    second = bootstrap_ci(pairs, Measure.ALPHA_INTERVAL, seed=11)
    assert first == second
    assert first.low <= first.point <= first.high
    other_seed = bootstrap_ci(pairs, Measure.ALPHA_INTERVAL, seed=12)
    assert (other_seed.low, other_seed.high) != (first.low, first.high)


def test_bootstrap_interval_narrows_with_more_pairs() -> None:
    rng = np.random.default_rng(6)

    def make(n):
        draws = rng.integers(-1, 2, size=n)
        noisy = np.where(rng.random(n) < 0.2, rng.integers(-1, 2, size=n), draws)
        return list(zip(draws.tolist(), noisy.tolist()))

    small = bootstrap_ci(make(100), Measure.ALPHA_INTERVAL, seed=0)
    large = bootstrap_ci(make(10000), Measure.ALPHA_INTERVAL, seed=0)
    assert (large.high - large.low) < (small.high - small.low)


def test_bootstrap_counts_undefined_resamples() -> None:
    # two pairs, each single-label: half of all resamples are degenerate
    pairs = [(-1, -1), (1, 1)]
    ci = bootstrap_ci(pairs, Measure.ALPHA_INTERVAL, n_samples=200, seed=3, retry_cap=0)
    assert 0 < ci.undefined_resamples < 200
    assert np.isfinite(ci.low) and np.isfinite(ci.high)


def test_bootstrap_errors_when_everything_undefined() -> None:
    with pytest.raises(UndefinedMeasureError):
        bootstrap_ci([(0, 0), (0, 0)], Measure.ALPHA_INTERVAL)



def test_bootstrap_rejects_a_negative_retry_cap() -> None:
    with pytest.raises(ValueError, match="retry_cap"):
        bootstrap_ci(FIXTURE_PAIRS, Measure.ACCURACY, retry_cap=-1)


def skewed_pair_sets(count: int, seed: int) -> list[list[tuple[int, int]]]:
    """Small pair sets whose lopsided label mix leaves some resamples
    with one label or without a polar class."""
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(count):
        mix = rng.dirichlet([0.3, 0.3, 0.3])
        n = int(rng.integers(1, 12))
        sets.append([tuple(int(c) for c in rng.choice([-1, 0, 1], size=2, p=mix)) for _ in range(n)])
    return sets


def bootstrap_outcome(run, pairs, measure, **kwargs):
    try:
        return run(pairs, measure, **kwargs)
    except UndefinedMeasureError:
        return "undefined"


def test_bootstrap_matches_the_per_resample_reference() -> None:
    partly_undefined = 0
    rescued = 0
    for pairs in skewed_pair_sets(50, seed=31):
        for measure in Measure:
            by_cap = {}
            for cap in (0, 1, 3):
                kwargs = dict(n_samples=40, seed=len(pairs), retry_cap=cap)
                got = bootstrap_outcome(bootstrap_ci, pairs, measure, **kwargs)
                assert got == bootstrap_outcome(oracles.bootstrap_reference, pairs, measure, **kwargs), (
                    pairs, measure, cap)
                by_cap[cap] = got
            if by_cap[3] != "undefined" and by_cap[3].undefined_resamples:
                partly_undefined += 1
            if "undefined" not in by_cap.values() and by_cap[3].undefined_resamples < by_cap[0].undefined_resamples:
                rescued += 1
    # the sets exercise both retries that succeed and budgets that run out
    assert rescued > 0 and partly_undefined > 0


def test_bootstrap_budget_runs_out() -> None:
    pairs = [(-1, -1), (1, 1)]  # half of all draws hold a single label
    for cap in (0, 1, 3):
        ci = bootstrap_ci(pairs, Measure.ALPHA_NOMINAL, n_samples=200, seed=4, retry_cap=cap)
        assert ci.undefined_resamples > 0
        assert ci == oracles.bootstrap_reference(pairs, Measure.ALPHA_NOMINAL, n_samples=200, seed=4, retry_cap=cap)
    # at seed 64 all eight draws of the four indices hold a single label
    kwargs = dict(n_samples=4, seed=64, retry_cap=1)
    with pytest.raises(UndefinedMeasureError, match="all 4 bootstrap resamples were undefined"):
        bootstrap_ci(pairs, Measure.ALPHA_NOMINAL, **kwargs)
    with pytest.raises(UndefinedMeasureError):
        oracles.bootstrap_reference(pairs, Measure.ALPHA_NOMINAL, **kwargs)


def test_bootstrap_memo_never_serves_a_stale_entry() -> None:
    first, second = skewed_pair_sets(2, seed=8)
    first = first + [(-1, 0), (0, 1), (1, 1)]
    second = second + [(1, -1), (0, 0)]
    expected = {}
    # a Gray code over (pair set, seed, n_samples): every call changes
    # exactly one of them from the call before, and each one changes
    for step in range(17):
        code = step ^ (step >> 1)
        pairs = (first, second)[code & 1]
        seed = (code >> 1) & 1
        n_samples = (30, 45)[(code >> 2) & 1]
        measure = list(Measure)[step % len(Measure)]
        key = (id(pairs), seed, n_samples, measure)
        if key not in expected:
            expected[key] = bootstrap_outcome(
                oracles.bootstrap_reference, pairs, measure, n_samples=n_samples, seed=seed)
        got = bootstrap_outcome(bootstrap_ci, pairs, measure, n_samples=n_samples, seed=seed)
        assert got == expected[key], (step, seed, n_samples, measure)


def test_bootstrap_shares_read_only_first_draws_across_measures() -> None:
    agreement._first_draws.cache_clear()
    bootstrap_ci(FIXTURE_PAIRS, Measure.ALPHA_INTERVAL, n_samples=25, seed=2)
    bootstrap_ci(FIXTURE_PAIRS, Measure.ACCURACY, n_samples=25, seed=2)
    info = agreement._first_draws.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    stack = agreement._first_draws(pair_cells(FIXTURE_PAIRS).tobytes(), 25, 2)
    assert stack.shape == (25, 3, 3)
    assert stack.sum(axis=(1, 2)).tolist() == [len(FIXTURE_PAIRS)] * 25
    with pytest.raises(ValueError, match="read-only"):
        stack[0, 0, 0] = 1.0

def test_shuffled_pairs_have_near_zero_alpha() -> None:
    rng = np.random.default_rng(99)
    side = rng.integers(-1, 2, size=10000)
    shuffled = rng.permutation(side)
    matrix = build_coincidence(list(zip(side.tolist(), shuffled.tolist())))
    assert abs(alpha(matrix, "interval")) <= 0.05
    assert abs(alpha(matrix, "nominal")) <= 0.05


def test_ordering_diagnostics_against_brute_force() -> None:
    rng = np.random.default_rng(17)
    agree = [(c, c) for c in rng.integers(-1, 2, size=300)]
    confusions = [(-1, 0)] * 40 + [(0, 1)] * 25 + [(-1, 1)] * 5
    pairs = agree + confusions
    diag = ordering_diagnostics(pairs)

    def brute_alpha(subset):
        return oracles.alpha_brute(oracles.coincidence_brute(subset), "interval")

    full_int = brute_alpha(pairs)
    full_nom = oracles.alpha_brute(oracles.coincidence_brute(pairs), "nominal")
    keep = lambda labels: [p for p in pairs if p[0] in labels and p[1] in labels]
    extremes = brute_alpha(keep({-1, 1}))
    assert diag.relative_gain == pytest.approx((full_int - full_nom) / full_nom, abs=1e-12)
    assert diag.dist_neg_neutral == pytest.approx(brute_alpha(keep({-1, 0})) / extremes, abs=1e-12)
    assert diag.dist_pos_neutral == pytest.approx(brute_alpha(keep({0, 1})) / extremes, abs=1e-12)
    # neighbor confusion dominates, extremes agree: ratios below 1, gain positive
    assert diag.relative_gain > 0
    assert diag.dist_neg_neutral < 1
    assert diag.dist_pos_neutral < 1


def test_ordering_diagnostics_needs_all_subsets() -> None:
    pairs = [(-1, -1), (0, 0), (-1, 0)] * 5  # no positive pairs at all
    with pytest.raises(UndefinedMeasureError):
        ordering_diagnostics(pairs)


def test_sentiment_score() -> None:
    assert sentiment_score({-1: 1, 0: 0, 1: 3}) == pytest.approx(0.5)
    score = sentiment_score({-1: 6246, 0: 14217, 1: 3145})
    assert score == pytest.approx(-0.1313537783802101, abs=1e-12)
    with pytest.raises(UndefinedMeasureError):
        sentiment_score({-1: 0, 0: 0, 1: 0})
    with pytest.raises(ValueError, match="unknown label"):
        sentiment_score({2: 1})
    with pytest.raises(ValueError, match="negative"):
        sentiment_score({1: -3})
