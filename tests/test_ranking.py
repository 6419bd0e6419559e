"""Friedman rank test and Nemenyi critical-distance comparison."""

from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from sentagree import ranking
from sentagree.ranking import (
    RankSummary,
    ScoreTable,
    compare_ranks,
    friedman,
    nemenyi_cd,
)

import oracles


def make_table(scores) -> ScoreTable:
    scores = np.asarray(scores, dtype=np.float64)
    n, k = scores.shape
    return ScoreTable(
        scores,
        tuple(f"data{i}" for i in range(n)),
        tuple(f"clf{j}" for j in range(k)),
    )


def make_summary(avg_ranks, n_datasets) -> RankSummary:
    ranks = np.asarray(avg_ranks, dtype=np.float64)
    return RankSummary(
        statistic=0.0,
        p_value=1.0,
        avg_ranks=ranks,
        classifier_names=tuple(f"clf{j}" for j in range(ranks.size)),
        n_datasets=n_datasets,
    )


def test_score_table_validation() -> None:
    with pytest.raises(ValueError, match="2-D"):
        ScoreTable(np.zeros(3), ("a", "b", "c"), ("x",))
    with pytest.raises(ValueError, match="non-finite"):
        make_table([[1.0, np.nan]])
    with pytest.raises(ValueError, match="at least 2 classifiers"):
        make_table([[1.0], [2.0]])
    with pytest.raises(ValueError, match="name tuples"):
        ScoreTable(np.zeros((2, 2)), ("only-one",), ("x", "y"))


def test_friedman_identical_scores_show_no_evidence() -> None:
    summary = friedman(make_table(np.ones((6, 4))))
    assert summary.statistic == 0.0
    assert summary.p_value == 1.0
    assert summary.avg_ranks.tolist() == [2.5] * 4


def test_friedman_k2_dominant_column() -> None:
    n = 10
    table = make_table(np.column_stack([np.full(n, 2.0), np.full(n, 1.0)]))
    summary = friedman(table)
    assert summary.avg_ranks.tolist() == [1.0, 2.0]
    assert summary.statistic == pytest.approx(float(n), abs=1e-12)
    assert summary.p_value == pytest.approx(float(sps.chi2.sf(n, 1)), abs=1e-15)


def test_friedman_matches_scipy_on_tie_free_tables() -> None:
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(4, 15))
        k = int(rng.integers(3, 7))
        scores = rng.random((n, k))
        summary = friedman(make_table(scores))
        reference = sps.friedmanchisquare(*(scores[:, j] for j in range(k)))
        assert summary.statistic == pytest.approx(reference.statistic, abs=1e-9)
        assert summary.p_value == pytest.approx(reference.pvalue, abs=1e-12)


def test_friedman_matches_scipy_exactly_on_tied_tables() -> None:
    rng = np.random.default_rng(23)
    for trial in range(60):
        n = int(rng.integers(1, 20))
        k = int(rng.integers(2, 9))
        # fewer score levels than columns force a tie in every row
        scores = rng.integers(0, min(3, k - 1), size=(n, k)).astype(np.float64)
        if trial % 4 == 0:
            scores[trial % n] = 0.5  # one all-equal row
        if trial % 10 == 0:
            scores[:] = 0.5  # every row all-equal: statistic 0
        table = make_table(scores)
        expected_ranks = sps.rankdata(-scores, axis=1).mean(axis=0)
        plain = friedman(table)
        assert np.array_equal(plain.avg_ranks, expected_ranks)
        assert plain.p_value == float(sps.chi2.sf(plain.statistic, k - 1))
        if trial % 10 == 0:
            assert plain.statistic == 0.0


def test_friedman_rank_one_is_best_and_ties_average() -> None:
    table = make_table([[3.0, 3.0, 1.0], [5.0, 4.0, 0.0]])
    summary = friedman(table)
    assert summary.avg_ranks.tolist() == [(1.5 + 1) / 2, (1.5 + 2) / 2, 3.0]
    total = summary.avg_ranks.sum()
    assert total == pytest.approx(3 * 4 / 2)  # complete rows always sum to k(k+1)/2


@pytest.mark.parametrize("row", [[0.9, 0.5, 0.1], [0.9, 0.5, 0.5]], ids=["tie-free", "tied"])
def test_friedman_on_one_dataset(row) -> None:
    plain = friedman(make_table([row]))
    assert plain.p_value == float(sps.chi2.sf(plain.statistic, 2))


def test_nemenyi_cd_values() -> None:
    assert nemenyi_cd(6, 13) == pytest.approx(2.091328249260227, abs=1e-12)
    assert abs(nemenyi_cd(6, 13) - 2.09) <= 0.01
    assert nemenyi_cd(3, 10) == pytest.approx(1.0478214542564015, abs=1e-12)


def test_nemenyi_cd_validation() -> None:
    with pytest.raises(ValueError, match="k must be"):
        nemenyi_cd(1, 13)
    with pytest.raises(ValueError, match="k must be"):
        nemenyi_cd(11, 13)
    with pytest.raises(ValueError, match="datasets"):
        nemenyi_cd(6, 1)
    # neither is read from the table: 2.5 datasets gave a distance, and k = 3.0 a TypeError
    with pytest.raises(ValueError, match=r"^n_datasets must be an integer at least 2, got 2\.5$"):
        nemenyi_cd(3, 2.5)
    with pytest.raises(ValueError, match=r"^k must be an integer between 2 and 10, got 3\.0$"):
        nemenyi_cd(3.0, 4)
    assert nemenyi_cd(np.int64(3), np.int64(10)) == nemenyi_cd(3, 10)


def test_score_table_needs_a_dataset_row() -> None:
    with pytest.raises(ValueError, match="^need at least 1 dataset row$"):
        ScoreTable(np.zeros((0, 3)), (), ("a", "b", "c"))


def test_compare_ranks_boundary_is_inclusive() -> None:
    cd = nemenyi_cd(2, 6)
    exactly = compare_ranks(make_summary([1.0, 1.0 + cd], 6))
    assert exactly.significant[0, 1]
    just_under = compare_ranks(make_summary([1.0, 1.0 + cd - 1e-9], 6))
    assert not just_under.significant[0, 1]


def test_compare_ranks_matrix_is_symmetric_irreflexive() -> None:
    report = compare_ranks(make_summary([1.0, 2.2, 3.9, 4.0], 10))
    assert np.array_equal(report.significant, report.significant.T)
    assert not report.significant.diagonal().any()


def test_compare_ranks_groups_are_maximal_runs() -> None:
    # cd(4, 10) ~ 1.483: [1.0, 1.5], [1.5, 2.8], [2.8, 4.0] chain
    report = compare_ranks(make_summary([1.0, 1.5, 2.8, 4.0], 10))
    assert report.groups == (
        ("clf0", "clf1"),
        ("clf1", "clf2"),
        ("clf2", "clf3"),
    )
    all_close = compare_ranks(make_summary([1.0, 1.2, 1.4], 10))
    assert all_close.groups == (("clf0", "clf1", "clf2"),)


@settings(max_examples=300, deadline=None)
@given(halves=st.lists(st.integers(2, 20), min_size=2, max_size=10), data=st.data())
def test_compare_ranks_groups_are_those_of_the_pairwise_rule(halves, data) -> None:
    ranks = [half / 2 for half in halves]  # whole and half ranks, often tied
    differences = sorted({abs(a - b) for a in ranks for b in ranks} - {0.0})
    # a distance equal to a rank difference puts that pair in two groups
    cd = data.draw(st.one_of(st.sampled_from(differences or [1.0]), st.floats(0.1, 10.0)))
    summary = make_summary(ranks, 10)
    with mock.patch.object(ranking, "nemenyi_cd", return_value=cd):
        report = compare_ranks(summary)
    assert report.cd == cd
    assert report.groups == oracles.rank_groups_reference(summary.avg_ranks, summary.classifier_names, cd)


def test_a_classifier_that_wins_on_every_dataset_differs_significantly() -> None:
    table = ScoreTable(np.array([[0.9, 0.4]] * 5), tuple(f"data{i}" for i in range(5)), ("A", "B"))
    report = compare_ranks(friedman(table)).to_dict()
    assert report["cd"] == pytest.approx(0.877, abs=5e-4) and report["ranks"] == {"A": 1.0, "B": 2.0}
    assert report["significant_pairs"] == [["A", "B"]] and report["groups"] == [["A"], ["B"]]


def test_compare_ranks_orders_groups_by_rank() -> None:
    # ranks deliberately unsorted in classifier order
    report = compare_ranks(make_summary([3.0, 1.0, 2.0], 4))
    flattened = [name for group in report.groups for name in group]
    assert flattened[0] == "clf1"  # the best-ranked classifier leads


def test_report_to_dict_is_json_ready() -> None:
    summary = friedman(make_table(np.random.default_rng(3).random((13, 6))))
    report = compare_ranks(summary)
    payload = report.to_dict()
    encoded = json.loads(json.dumps(payload))
    assert encoded["method"] == "chi2"
    assert encoded["f_statistic"] is None
    assert encoded["level"] == 0.05
    assert encoded["n_datasets"] == 13
    assert len(encoded["ranks"]) == 6
    ranks = list(encoded["ranks"].values())
    assert ranks == sorted(ranks)
    for left, right in encoded["significant_pairs"]:
        assert left in encoded["ranks"] and right in encoded["ranks"]
