"""Agreement measures, bootstrap intervals, and ordering diagnostics."""

from __future__ import annotations

import re

import numpy as np
import pytest

from sentagree import agreement
from sentagree.corpus import AnnotationRecord, PairTable, SentimentLabel, extract_pairs
from sentagree.agreement import (
    CoincidenceMatrix,
    Measure,
    bootstrap_ci,
    build_coincidence,
    compute_measure,
    ordering_diagnostics,
    pair_cells,
    sentiment_score,
)
from sentagree.errors import UndefinedMeasureError
from sentagree.evaluation import score_predictions

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
    assert compute_measure(matrix, Measure.ALPHA_INTERVAL) == pytest.approx(0.18181818, abs=1e-7)
    assert compute_measure(matrix, Measure.ALPHA_NOMINAL) == pytest.approx(0.68965517, abs=1e-7)
    assert compute_measure(matrix, Measure.ACCURACY) == pytest.approx(0.8)
    assert compute_measure(matrix, Measure.F1_BAR) == pytest.approx(0.4)
    assert compute_measure(matrix, Measure.ACC_WITHIN_1) == pytest.approx(0.8)


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
    assert compute_measure(matrix, Measure.ALPHA_INTERVAL) == pytest.approx(1.0)
    assert compute_measure(matrix, Measure.ALPHA_NOMINAL) == pytest.approx(1.0)


def test_alpha_one_iff_no_off_diagonal_mass() -> None:
    rng = np.random.default_rng(42)
    for _ in range(300):
        upper = rng.integers(0, 4, size=(3, 3))
        counts = (upper + upper.T).astype(float)
        matrix = CoincidenceMatrix(counts)
        try:
            value = compute_measure(matrix, Measure.ALPHA_INTERVAL)
        except UndefinedMeasureError:
            continue
        off_diag = counts.sum() - np.trace(counts)
        assert (value == pytest.approx(1.0)) == (off_diag == 0.0)


def test_single_label_alpha_undefined() -> None:
    matrix = build_coincidence([(0, 0), (0, 0)])
    with pytest.raises(UndefinedMeasureError, match="expected disagreement"):
        compute_measure(matrix, Measure.ALPHA_INTERVAL)
    # accuracy and acc_within_1 remain defined
    assert compute_measure(matrix, Measure.ACCURACY) == 1.0
    assert compute_measure(matrix, Measure.ACC_WITHIN_1) == 1.0


def test_f1_bar_needs_both_polar_classes() -> None:
    matrix = build_coincidence([(0, 0), (0, -1)])
    with pytest.raises(UndefinedMeasureError, match="polar"):
        compute_measure(matrix, Measure.F1_BAR)


EMPTY = CoincidenceMatrix(np.zeros((3, 3)))
UNDEFINED_CASES = [
    (Measure.ALPHA_INTERVAL, EMPTY, "alpha needs total mass > 1, got N = 0"),
    (Measure.ALPHA_NOMINAL, CoincidenceMatrix(np.diag([0.5, 0.0, 0.0])), "alpha needs total mass > 1, got N = 0.5"),
    (Measure.ALPHA_INTERVAL, build_coincidence([(0, 0), (0, 0)]),
     "alpha is undefined: expected disagreement is zero (fewer than two labels carry mass)"),
    (Measure.ALPHA_NOMINAL, build_coincidence([(1, 1)]),
     "alpha is undefined: expected disagreement is zero (fewer than two labels carry mass)"),
    (Measure.ACCURACY, EMPTY, "accuracy is undefined on an empty matrix"),
    (Measure.ACC_WITHIN_1, EMPTY, "acc_within_1 is undefined on an empty matrix"),
    (Measure.F1_BAR, build_coincidence([(0, 0), (0, -1)]),
     "f1_bar is undefined: a polar class has no mass (N(-) = 1, N(+) = 0)"),
    (Measure.F1_BAR, CoincidenceMatrix(np.diag([0.0, 1.0, 2.5])),
     "f1_bar is undefined: a polar class has no mass (N(-) = 0, N(+) = 2.5)"),
]


@pytest.mark.parametrize(("measure", "matrix", "message"), UNDEFINED_CASES)
def test_undefined_measure_says_why_in_its_own_words(measure, matrix, message) -> None:
    # the CLI prints these texts, so they are pinned character for character
    for evaluate in (lambda m: compute_measure(m, measure), lambda m: compute_measure(m, measure.value)):
        with pytest.raises(UndefinedMeasureError) as raised:
            evaluate(matrix)
        assert str(raised.value) == message


def test_alpha_rejects_an_unknown_metric() -> None:
    with pytest.raises(ValueError, match="^'alpha_ordinal' is not a valid Measure$"):
        compute_measure(build_coincidence(FIXTURE_PAIRS), "alpha_ordinal")


@pytest.mark.parametrize("bad", [(2, -1), (0, -2), (-128, 0), (1, 3)])
def test_every_pair_input_rejects_a_code_outside_the_labels_alike(bad) -> None:
    a, b = bad
    message = f"^pair \\({a}, {b}\\) is outside the label codes -1/0/\\+1$"
    table = PairTable(np.array([0, a, 1], dtype=np.int8), np.array([0, b, -3], dtype=np.int8),
                      np.zeros(3, dtype=bool), np.zeros(3, dtype=np.int64), ("p",))
    for given in (table, [(0, 0), bad, (1, -3)]):
        with pytest.raises(ValueError, match=message):
            pair_cells(given)
    with pytest.raises(ValueError, match=message):
        score_predictions([0, a, 1], [0, b, -3])


@pytest.mark.parametrize(
    ("bad", "shown"),
    [((1.5, -0.9), r"1\.5, -0\.9"), ((1.7, 0.2), r"1\.7, 0\.2"), ((2**70, 0), str(2**70) + ", 0"),
     ((float("nan"), 0), "nan, 0")],
    ids=["fractions", "rounding-to-codes", "beyond-int64", "nan"],
)
def test_a_code_that_is_not_exactly_a_label_is_rejected_before_any_cast(bad, shown) -> None:
    # a cast first would truncate 1.5 to 1 and -0.9 to 0, or overflow on 2**70
    message = rf"^pair \({shown}\) is outside the label codes -1/0/\+1$"
    with pytest.raises(ValueError, match=message):
        pair_cells([bad])
    with pytest.raises(ValueError, match=message):
        pair_cells([(0, 0), bad])
    with pytest.raises(ValueError, match=message):
        score_predictions([bad[0]], [bad[1]])


def test_whole_float_codes_still_count_as_labels() -> None:
    assert pair_cells([(1.0, -1.0), (0.0, 1)]).tolist() == pair_cells([(1, -1), (0, 1)]).tolist() == [6, 5]
    assert np.array_equal(score_predictions([1.0, 0.0], [1, -1]).counts, score_predictions([1, 0], [1, -1]).counts)


def test_extreme_disagreement_hurts_interval_more() -> None:
    agreements = [(-1, -1)] * 4 + [(0, 0)] * 4 + [(1, 1)] * 4
    # only corner confusions: interval counts them 4x
    matrix = build_coincidence(agreements + [(-1, 1)] * 2)
    assert compute_measure(matrix, Measure.ALPHA_INTERVAL) < compute_measure(matrix, Measure.ALPHA_NOMINAL)
    # only neighbor confusions: interval is more forgiving
    matrix = build_coincidence(agreements + [(-1, 0), (0, 1)])
    assert compute_measure(matrix, Measure.ALPHA_INTERVAL) > compute_measure(matrix, Measure.ALPHA_NOMINAL)


def test_real_valued_counts_accepted() -> None:
    counts = np.array([[2.5, 0.5, 0.0], [0.5, 3.0, 1.0], [0.0, 1.0, 2.0]])
    matrix = CoincidenceMatrix(counts)
    expected = oracles.alpha_brute(counts.tolist(), "interval")
    assert compute_measure(matrix, Measure.ALPHA_INTERVAL) == pytest.approx(expected, abs=1e-12)


def test_matrix_validation() -> None:
    with pytest.raises(ValueError, match="symmetric"):
        CoincidenceMatrix(np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=float))
    with pytest.raises(ValueError, match="negative"):
        CoincidenceMatrix(np.full((3, 3), -1.0))
    with pytest.raises(ValueError, match="3x3"):
        CoincidenceMatrix(np.zeros((2, 2)))


def test_matrix_with_an_infinite_count_is_rejected() -> None:
    counts = np.zeros((3, 3))
    counts[1, 1] = np.inf
    with pytest.raises(ValueError, match="^coincidence matrix contains non-finite counts$"):
        CoincidenceMatrix(counts)


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


def test_bootstrap_rejects_a_bad_seed_before_drawing(monkeypatch) -> None:
    monkeypatch.setattr(agreement, "_first_draws", None)  # a draw would raise TypeError
    for bad in (-1, 0.5):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            bootstrap_ci(FIXTURE_PAIRS[:3], "accuracy", n_samples=10, seed=bad)


@pytest.mark.parametrize("name, bad", [("n_samples", 2.5), ("n_samples", True), ("retry_cap", 1.5), ("retry_cap", True)])
def test_bootstrap_rejects_a_count_that_is_no_integer_before_drawing(monkeypatch, name, bad) -> None:
    monkeypatch.setattr(agreement, "_first_draws", None)  # a draw would raise TypeError
    with pytest.raises(ValueError, match=f"^{name} must be a (positive|non-negative) integer, got {bad!r}$"):
        bootstrap_ci(FIXTURE_PAIRS, "accuracy", **{name: bad})


def test_bootstrap_counts_are_python_integers_for_numpy_arguments() -> None:
    ci = bootstrap_ci(FIXTURE_PAIRS, "accuracy", n_samples=np.int64(20), seed=np.int64(1), retry_cap=np.int32(2))
    assert ci == bootstrap_ci(FIXTURE_PAIRS, "accuracy", n_samples=20, seed=1, retry_cap=2)
    assert type(ci.samples) is int and type(ci.undefined_resamples) is int


# Pair sets of 3 to 500 pairs; all but the last leave some of the nine cells empty.
MOMENT_FIXTURES = {
    "three pairs": [(-1, -1), (0, 1), (1, 0)],
    "one cell": [(0, 0)] * 7,
    "polar only": [(-1, -1)] * 50 + [(-1, 1)] * 20 + [(1, -1)] * 10 + [(1, 1)] * 40,
    "one pair in a cell": [(0, 0)] * 60 + [(1, 1)],
    "all nine cells": [(a, b) for a, b in np.random.default_rng(23).integers(-1, 2, size=(500, 2)).tolist()],
}
MOMENT_DRAWS = 4000
MOMENT_SE = 5.0  # Monte Carlo bound: every sample moment of MOMENT_DRAWS draws within 5 of its standard errors


@pytest.mark.parametrize("fixture", MOMENT_FIXTURES)
def test_cell_resampling_has_the_moments_of_pair_resampling(fixture) -> None:
    """Pairs drawn with replacement and counted by cell, and cells drawn
    as one multinomial, both have the exact moments of Multinomial(n, p)
    with p = c / n: means n p and covariances n (diag p - p p')."""
    cells = pair_cells(MOMENT_FIXTURES[fixture])
    n = cells.size
    counts = np.bincount(cells, minlength=9)
    p = counts / n
    mean = n * p
    cov = n * (np.diag(p) - np.outer(p, p))
    rng = np.random.default_rng(41)
    drawn = cells[rng.integers(0, n, size=(MOMENT_DRAWS, n))]  # the pair resampling of earlier versions
    by_pairs = np.bincount((drawn + 9 * np.arange(MOMENT_DRAWS)[:, None]).ravel(), minlength=9 * MOMENT_DRAWS)
    retries = np.random.default_rng((41, 0))
    samplers = {
        "pairs": by_pairs.reshape(MOMENT_DRAWS, 9),
        "cells, first draws": agreement._first_draws(counts, MOMENT_DRAWS, 41).reshape(MOMENT_DRAWS, 9),
        "cells, retries": np.stack([agreement._resample(retries, counts).ravel() for _ in range(MOMENT_DRAWS)]),
    }
    # the standard error of each mean is exact; that of each covariance, a mean of
    # products about the exact means, is estimated from the products themselves
    mean_se = np.sqrt(np.diag(cov) / MOMENT_DRAWS)
    for name, draws in samplers.items():
        assert (draws.sum(axis=1) == n).all(), name
        assert not draws[:, counts == 0].any(), f"{name}: mass in a cell that holds no pair"
        assert (np.abs(draws.mean(axis=0) - mean) <= MOMENT_SE * mean_se).all(), name
        centred = draws - mean
        products = centred[:, :, None] * centred[:, None, :]
        cov_se = products.std(axis=0) / np.sqrt(MOMENT_DRAWS)
        assert (np.abs(products.mean(axis=0) - cov) <= MOMENT_SE * cov_se + 1e-9).all(), name


def test_bootstrap_first_draws_share_no_stream_with_the_retries() -> None:
    # numpy pads a short seed key with zeros, so default_rng(seed) is the substream of index 0:
    # first draws from it would hand index 0 the first draws of indices 0, 1, ... as its retries
    counts = np.bincount(pair_cells(MOMENT_FIXTURES["all nine cells"]), minlength=9)
    first = agreement._first_draws(counts, 8, 9)
    for index in (0, 1):
        rng = np.random.default_rng((9, index))
        retries = [agreement._resample(rng, counts) for _ in range(8)]
        assert not any(np.array_equal(row, retry) for row in first for retry in retries), index


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
    # at seed 159 all eight draws of the four indices hold a single label (the first seed that does)
    kwargs = dict(n_samples=4, seed=159, retry_cap=1)
    with pytest.raises(UndefinedMeasureError, match="all 4 bootstrap resamples were undefined"):
        bootstrap_ci(pairs, Measure.ALPHA_NOMINAL, **kwargs)
    with pytest.raises(UndefinedMeasureError):
        oracles.bootstrap_reference(pairs, Measure.ALPHA_NOMINAL, **kwargs)


def codes(pairs):
    """The ``(first, second)`` code pairs of a pair table's columns, as a list."""
    return list(zip(pairs.first.tolist(), pairs.second.tolist()))


def test_columnar_pairs_give_the_results_of_their_list() -> None:
    rng = np.random.default_rng(17)
    records = [
        AnnotationRecord(f"p{post}", f"a{rng.integers(4)}", SentimentLabel(int(rng.choice([-1, 0, 1], p=[0.2, 0.5, 0.3]))),
                         seq)
        for seq, post in enumerate(rng.integers(0, 150, size=300))
    ]
    pairs = extract_pairs(records)
    assert np.array_equal(pair_cells(pairs), pair_cells(codes(pairs)))
    assert pair_cells(pairs).dtype == pair_cells(codes(pairs)).dtype
    assert ordering_diagnostics(pairs) == ordering_diagnostics(codes(pairs))
    undefined = 0
    # without retries, some resamples of the five-pair subset stay undefined
    for subset, cap in ((pairs, 100), (pairs[pairs.self], 100), (pairs[~pairs.self], 100), (pairs[:5], 0)):
        for measure in Measure:
            results = []
            for given in (subset, codes(subset)):
                results.append(bootstrap_outcome(bootstrap_ci, given, measure, n_samples=200, seed=5, retry_cap=cap))
            assert results[0] == results[1], (len(subset), measure)
            undefined += results[0] != "undefined" and results[0].undefined_resamples > 0
    assert undefined > 0


def test_shuffled_pairs_have_near_zero_alpha() -> None:
    rng = np.random.default_rng(99)
    side = rng.integers(-1, 2, size=10000)
    shuffled = rng.permutation(side)
    matrix = build_coincidence(list(zip(side.tolist(), shuffled.tolist())))
    assert abs(compute_measure(matrix, Measure.ALPHA_INTERVAL)) <= 0.05
    assert abs(compute_measure(matrix, Measure.ALPHA_NOMINAL)) <= 0.05


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


def test_ordering_diagnostics_of_a_zero_nominal_alpha_are_undefined() -> None:
    with pytest.raises(UndefinedMeasureError, match="^relative gain is undefined: nominal alpha is zero$"):
        ordering_diagnostics([(-1, 1)])


@pytest.mark.parametrize(
    ("function", "pairs", "message"),
    [
        (bootstrap_ci, [], "bootstrap_ci needs at least one pair"),
        (ordering_diagnostics, [], "ordering diagnostics need at least one pair"),
        (ordering_diagnostics, [(0, 0), (0, 1), (-1, 0), (0, 0)], "no pairs with both labels in {negative, positive}"),
        (ordering_diagnostics, [(-1, 1), (0, 0), (0, 0), (-1, 0), (0, 1)],
         "distinguishability ratios are undefined: alpha over {negative, positive} is zero"),
    ],
    ids=["bootstrap-no-pairs", "ordering-no-pairs", "ordering-no-extremes", "ordering-extremes-alpha-zero"],
)
def test_measures_without_the_pairs_they_need_say_why(function, pairs, message) -> None:
    args = (pairs, Measure.ACCURACY) if function is bootstrap_ci else (pairs,)
    with pytest.raises(UndefinedMeasureError, match=f"^{re.escape(message)}$"):
        function(*args)


def test_sentiment_score() -> None:
    assert sentiment_score({-1: 1, 0: 0, 1: 3}) == pytest.approx(0.5)
    score = sentiment_score({-1: 6246, 0: 14217, 1: 3145})
    assert score == pytest.approx(-0.1313537783802101, abs=1e-12)
    with pytest.raises(UndefinedMeasureError):
        sentiment_score({-1: 0, 0: 0, 1: 0})
    with pytest.raises(ValueError, match="unknown label"):
        sentiment_score({2: 1})
    # a key is checked before it is cast: int() would score {1.7: 3, 0.4: 1} as 0.75
    for counts, key in (({1.7: 3, 0.4: 1}, "1.7"), ({0.4: 1}, "0.4"), ({"1": 2}, "'1'"), ({float("nan"): 1}, "nan")):
        with pytest.raises(ValueError, match=f"^unknown label code {re.escape(key)}$"):
            sentiment_score(counts)
    assert sentiment_score({1.0: 3, 0.0: 1, SentimentLabel.NEGATIVE: 0}) == 0.75
    with pytest.raises(ValueError, match="negative"):
        sentiment_score({1: -3})
    for counts in ({1: float("nan"), 0: 1}, {1: float("inf"), -1: 1}, {-1: -float("inf")}, {0: np.nan}):
        with pytest.raises(ValueError, match="^non-finite count for label "):
            sentiment_score(counts)
