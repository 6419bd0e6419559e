"""Blocked stratified cross-validation and learning curves."""

from __future__ import annotations

import inspect
import logging
import os
import time
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sentagree import classify, evaluation
from sentagree.agreement import Measure, build_coincidence
from sentagree.classify import TrainConfig, Variant
from sentagree.corpus import GoldPost, GoldTable, SentimentLabel
from sentagree.errors import CorpusFormatError, EvaluationError, FoldPlanError, VocabularyError
from sentagree.evaluation import (
    cross_validate,
    learning_curve,
    plan_folds,
    prepare,
    score_predictions,
)
from sentagree.features import CountRows, normalize, vocabulary_from_token_docs

from conftest import NEG_WORDS, NEU_WORDS, POS_WORDS, count_passes, count_planes, separable_corpus, shift_corpus

import oracles

CLASS_TEXTS = {
    -1: " ".join(NEG_WORDS[:3]),
    0: " ".join(NEU_WORDS[:3]),
    1: " ".join(POS_WORDS[:3]),
}


def make_gold(codes, texts=None):
    start = datetime(2014, 2, 1)
    posts = []
    for i, code in enumerate(codes):
        text = texts[i] if texts is not None else CLASS_TEXTS[code]
        posts.append(
            GoldPost(
                post_id=f"g{i}",
                label=SentimentLabel(code),
                timestamp=start + timedelta(minutes=i),
                text=text,
            )
        )
    return posts


# --- fold planning -----------------------------------------------------------


def test_plan_folds_blocks_are_consecutive_per_class() -> None:
    codes = [-1, 0, 1] * 11  # 11 posts per class
    plan = plan_folds(codes, k=3)
    assert [f.size for f in plan.folds] == [12, 12, 9]
    labels = np.array(codes)
    for code in (-1, 0, 1):
        blocks = [fold[labels[fold] == code] for fold in plan.folds]
        assert [b.size for b in blocks] == [4, 4, 3]
        for earlier, later in zip(blocks, blocks[1:]):
            assert earlier.max() < later.min()  # temporal contiguity per class
    everything = np.sort(np.concatenate(plan.folds))
    assert np.array_equal(everything, np.arange(len(codes)))
    for same in (labels, [SentimentLabel(code) for code in codes]):  # every form of label codes
        assert all(np.array_equal(a, b) for a, b in zip(plan_folds(same, k=3).folds, plan.folds))


def test_plan_folds_proportions_within_one() -> None:
    rng = np.random.default_rng(12)
    codes = rng.integers(-1, 2, size=157).tolist()
    k = 7
    plan = plan_folds(codes, k=k)
    labels = np.array(codes)
    for code in (-1, 0, 1):
        total = int((labels == code).sum())
        for fold in plan.folds:
            in_fold = int((labels[fold] == code).sum())
            assert in_fold in (total // k, total // k + 1)


def test_plan_folds_validation() -> None:
    codes = [-1, 0, 1] * 4
    with pytest.raises(FoldPlanError, match="at least 2"):
        plan_folds(codes, k=1)
    for k in (2.5, 2.0, True):
        with pytest.raises(FoldPlanError, match=f"^k must be an integer at least 2, got {k!r}$"):
            plan_folds(codes, k=k)
    with pytest.raises(FoldPlanError, match="cannot be split"):
        plan_folds(codes[:3], k=5)
    lopsided = [-1] * 5 + [0] * 5 + [1] * 2
    with pytest.raises(FoldPlanError, match="Positive"):
        plan_folds(lopsided, k=3)
    # a label is checked before it is cast: the 2s would be in no fold, 0.6 would be class 0
    for labels, bad, at in ((codes + [2, 2], "2", 12), (codes + [0.6], "0.6", 12), ([0.0, -1.5, *codes], "-1.5", 1)):
        with pytest.raises(FoldPlanError, match=f"^label {bad} at position {at} is not a label code -1/0/\\+1$"):
            plan_folds(labels, k=2)
    assert plan_folds([float(c) for c in codes], k=2).folds[1].tolist() == [6, 7, 8, 9, 10, 11]


def test_plan_folds_is_deterministic() -> None:
    codes = [-1, 0, 1, 1, 0] * 6
    a = plan_folds(codes, k=4)
    b = plan_folds(codes, k=4)
    for fa, fb in zip(a.folds, b.folds):
        assert np.array_equal(fa, fb)


def test_train_indices_are_the_complement() -> None:
    codes = [-1, 0, 1] * 4
    plan = plan_folds(codes, k=2)
    for fold in range(plan.k):
        train = plan.train_indices(fold)
        assert np.intersect1d(train, plan.folds[fold]).size == 0
        assert train.size + plan.folds[fold].size == len(codes)
        assert np.all(np.diff(train) > 0)


# --- scoring -----------------------------------------------------------------


def test_score_predictions_builds_the_pair_matrix() -> None:
    matrix = score_predictions([-1, 0, 1, 1], [-1, 0, -1, 1])
    expected = oracles.coincidence_brute([(-1, -1), (0, 0), (1, -1), (1, 1)])
    assert matrix.counts.tolist() == expected
    assert matrix.total == 8.0


def test_score_predictions_validation() -> None:
    with pytest.raises(EvaluationError, match="predictions"):
        score_predictions([1, 0], [1])
    with pytest.raises(EvaluationError, match="empty"):
        score_predictions([], [])


def test_score_predictions_takes_arrays_as_lists() -> None:
    predicted, gold = [1, 0, -1, -1], [1, 0, 0, -1]
    from_arrays = score_predictions(np.array(predicted), np.array(gold))
    assert from_arrays.counts.tolist() == score_predictions(predicted, gold).counts.tolist()
    with pytest.raises(EvaluationError, match="empty"):
        score_predictions(np.array([], dtype=np.int64), np.array([], dtype=np.int64))


def test_score_predictions_equals_build_coincidence_on_lists_and_arrays() -> None:
    predicted, gold = np.random.default_rng(7).integers(-1, 2, size=(2, 500))
    expected = build_coincidence(list(zip(predicted.tolist(), gold.tolist()))).counts
    labels = [SentimentLabel(code) for code in predicted.tolist()]
    for args in ((predicted, gold), (predicted.tolist(), gold.tolist()), (labels, gold)):
        assert np.array_equal(score_predictions(*args).counts, expected)
    with pytest.raises(ValueError, match=r"pair \(2, 0\) is outside the label codes"):
        score_predictions([1, 2], [0, 0])
    with pytest.raises(ValueError, match=r"pair \(0, -2\) is outside the label codes"):
        score_predictions(np.array([0]), np.array([-2]))


# --- cross-validation --------------------------------------------------------


@pytest.fixture(scope="module")
def separable_cv():
    gold = separable_corpus(240, seed=3)
    result = cross_validate(prepare(gold), Variant.TWO_PLANE, k=4)
    return gold, result


def test_cross_validate_separates_the_synthetic_corpus(separable_cv) -> None:
    gold, result = separable_cv
    assert result.k == 4
    assert sum(result.fold_sizes) == len(gold)
    assert result.summaries[Measure.ALPHA_INTERVAL].mean >= 0.9
    assert result.summaries[Measure.ACCURACY].mean >= 0.9
    assert result.pooled.total == 2.0 * len(gold)


def test_cross_validate_half_width_formula(separable_cv) -> None:
    _, result = separable_cv
    for summary in result.summaries.values():
        values = summary.per_fold
        assert summary.mean == pytest.approx(float(values.mean()))
        expected = 1.96 * float(np.std(values, ddof=1)) / np.sqrt(values.size)
        assert summary.half_width == pytest.approx(expected, abs=1e-15)


def test_cross_validate_builds_vocabulary_from_training_folds_only(monkeypatch) -> None:
    codes = [-1] * 20 + [0] * 20 + [1] * 20
    gold = make_gold(codes)
    start = datetime(2014, 3, 1)
    for i in range(5):  # the last neutral block carries a marker term
        gold.append(
            GoldPost(
                post_id=f"m{i}",
                label=SentimentLabel.NEUTRAL,
                timestamp=start + timedelta(minutes=i),
                text=CLASS_TEXTS[0] + " zzmarker",
            )
        )
    seen: dict[int, bool] = {}

    def fold_rows(corpus, plan, fold, real=evaluation._fold_rows):
        train_idx, keep = real(corpus, plan, fold)
        seen[fold] = "zzmarker" in [corpus.vocab.terms[i] for i in keep.tolist()]
        return train_idx, keep

    monkeypatch.setattr(evaluation, "_fold_rows", fold_rows)
    see_cpus(monkeypatch, 1)  # every fold in this process, where ``seen`` is
    result = cross_validate(prepare(gold, min_df=5), Variant.TWO_PLANE, k=5)
    assert seen == {0: True, 1: True, 2: True, 3: True, 4: False}
    assert result.summaries[Measure.ACCURACY].mean == 1.0


def test_count_corpus_from_posts() -> None:
    posts = make_gold([1, -1], texts=["good good day", "bad day"])
    prepared = prepare(posts, min_df=2)
    vocab, counts = prepared.vocab, prepared.counts
    assert vocab.terms == ("day",) and vocab.ngrams == (1, 2)
    assert (counts.indptr.tolist(), counts.indices.tolist(), counts.values.tolist()) == ([0, 1, 2], [0, 0], [1.0, 1.0])
    assert prepared.labels.tolist() == [1, -1] and prepared.vocab.min_df == 2
    with pytest.raises(CorpusFormatError, match="post '3' has no text"):
        prepare([GoldPost("3", SentimentLabel.NEUTRAL)], min_df=1)


def test_prefix_of_a_prepared_corpus_is_a_view() -> None:
    prepared = prepare(make_gold([-1, 0, 1] * 10), min_df=1)
    head = prepared.head(7)
    assert head.labels.tolist() == prepared.labels[:7].tolist()
    assert head.vocab is prepared.vocab and head.vocab.min_df == 1 and len(head.counts) == 7
    assert np.shares_memory(head.labels, prepared.labels)
    for name in ("indptr", "indices", "values"):
        assert np.shares_memory(getattr(head.counts, name), getattr(prepared.counts, name))
    expected = prepared.counts.select(np.arange(7))
    assert np.array_equal(head.counts.indices, expected.indices)
    assert np.array_equal(head.counts.values, expected.values)
    assert len(prepared.head(0).counts) == 0 and len(prepared.head(30).counts) == 30
    for n in (-1, 31, 2.0, True, np.float64(3)):
        with pytest.raises(ValueError, match="prefix size"):
            prepared.head(n)


def _same_prepared(a, b) -> bool:
    arrays = ("indptr", "indices", "values")
    return (a.vocab.terms == b.vocab.terms and a.labels.tolist() == b.labels.tolist()
            and all(np.array_equal(getattr(a.counts, name), getattr(b.counts, name)) for name in arrays))


def four_posts(dates):
    """Four posts of distinct labels and texts, dated ``dates``."""
    texts = ["good day", "bad day", "fine day", "good night"]
    return [GoldPost(f"p{i}", SentimentLabel(code), date, text)
            for i, (code, date, text) in enumerate(zip([1, -1, 0, 1], dates, texts))]


def test_prepare_puts_the_posts_in_time_order() -> None:
    posts = four_posts([datetime(2014, 2, 1, hour) for hour in (3, 1, 2, 0)])
    in_order = prepare([posts[i] for i in (3, 1, 2, 0)], min_df=1)
    table = GoldTable(tuple(p.post_id for p in posts), np.array([int(p.label) for p in posts], dtype=np.int8),
                      tuple(p.timestamp for p in posts), tuple(p.text for p in posts), np.ones(4, dtype=np.int64))
    for gold in (posts, table, posts[::-1]):
        assert _same_prepared(prepare(gold, min_df=1), in_order)


@pytest.mark.parametrize("dates", [
    [None] * 4,
    [datetime(2014, 2, 1, hour) for hour in (3, 2, 1)] + [None],  # one post without a date
    [datetime(2014, 2, 1)] * 4,
])
def test_prepare_keeps_the_given_order_of_undated_posts_and_of_equal_dates(dates) -> None:
    posts = four_posts(dates)
    prepared = prepare(posts, min_df=1)
    assert prepared.labels.tolist() == [1, -1, 0, 1]
    assert _same_rows(prepared.counts, [normalize(post.text) for post in posts], prepared.vocab)


def see_cpus(monkeypatch, n: int) -> None:
    """Let cross-validation see ``n`` CPUs, so it trains in up to ``n`` processes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.fixture()
def forks(monkeypatch) -> list[int]:
    """The pids of the processes forked during the test, as they are forked."""
    pids = []

    def fork(real=os.fork):
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_reaped(pids: list[int]) -> None:
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_variants_on_one_prepared_corpus_train_each_distinct_plane_once(monkeypatch) -> None:
    gold, k = separable_corpus(240, seed=3), 4
    planes = count_planes(monkeypatch)  # workers forked by cross_validate train planes too
    see_cpus(monkeypatch, 3)
    fresh = [cross_validate(prepare(gold), variant, k=k) for variant in Variant]
    assert planes.value == 10 * k
    planes.value = 0
    [shared] = evaluation._cross_validate([prepare(gold)], list(Variant), TrainConfig(), k, evaluation.DEFAULT_MEASURES)
    for result, alone in zip(shared, fresh, strict=True):
        assert result.variant is alone.variant
        assert np.array_equal(result.pooled.counts, alone.pooled.counts)
        for measure, summary in alone.summaries.items():
            assert np.array_equal(result.summaries[measure].per_fold, summary.per_fold)
    # the tuned NeutralZoneSVM plane, two TwoPlaneSVM planes (shared by
    # TwoPlaneSVMbin), CascadingSVM's two (its polarity plane shared by
    # ThreePlaneSVM) and ThreePlaneSVM's other two
    assert planes.value == 7 * k


@pytest.mark.parametrize("cpus", [2, 3])
def test_the_caller_loads_the_epoch_kernel_once_before_it_forks(cpus, tmp_path, monkeypatch) -> None:
    events = tmp_path / "events"  # appended to by the caller and by every worker

    def note(event: str) -> None:
        with open(events, "a", encoding="utf-8") as handle:
            handle.write(f"{event} {os.getpid()}\n")

    def load(real=classify._load_kernel):
        note("load")
        return real()

    def fork(real=os.fork):
        note("fork")
        return real()

    monkeypatch.setattr(classify, "_load_kernel", load)
    monkeypatch.setattr(os, "fork", fork)
    see_cpus(monkeypatch, cpus)
    classify._epoch_kernel.cache_clear()
    cross_validate(prepare(separable_corpus(120, seed=4)), Variant.THREE_PLANE, k=3)
    caller = os.getpid()
    assert events.read_text(encoding="utf-8").splitlines() == [f"load {caller}"] + [f"fork {caller}"] * (cpus - 1)


@given(st.lists(st.integers(1, 1000), min_size=1, max_size=40), st.integers(1, 8))
def test_planes_are_dealt_in_contiguous_runs_of_about_equal_cost(costs, processes) -> None:
    runs = evaluation._deal(costs, processes)
    assert len(runs) == processes
    # every pair dealt exactly once, each run a contiguous stretch of the pairs in their (fold) order
    assert [i for run in runs for i in range(len(costs))[run]] == list(range(len(costs)))
    share = sum(costs) / processes
    for run in runs:
        assert abs(sum(costs[run]) - share) <= max(costs)


def test_a_plane_costs_its_folds_training_rows_of_its_labels(monkeypatch) -> None:
    # the deal prices a fold, whose planes all draw on its training rows, at those rows
    dealt = []

    def deal(costs, processes, real=evaluation._deal):
        dealt.append((costs, processes))
        return real(costs, processes)

    monkeypatch.setattr(evaluation, "_deal", deal)
    see_cpus(monkeypatch, 3)
    corpus, k, measures = prepare(separable_corpus(120, seed=4)), 3, (Measure.ACCURACY,)
    evaluation._cross_validate([corpus], [Variant.NEUTRAL_ZONE, Variant.CASCADING], TrainConfig(), k, measures)
    plan = plan_folds(corpus.labels, k)
    assert dealt == [([int(plan.train_indices(fold).size) for fold in range(k)], 3)]
    # one deal over two prefixes, each fold costing its own prefix's training rows
    evaluation._cross_validate([corpus.head(60), corpus], [Variant.CASCADING, Variant.THREE_PLANE], TrainConfig(), k,
                               measures)
    expected = [int(plan_folds(corpus.labels[:size], k).train_indices(fold).size)
                for size in (60, 120) for fold in range(k)]
    assert dealt[1:] == [(expected, 3)]
    assert plan_folds(corpus.labels[:60], k).folds[0].size < plan.folds[0].size  # the prefix's folds, not the corpus's


@pytest.mark.parametrize("cpus", [2, 3])
def test_folds_trained_in_several_processes_equal_those_of_one(cpus, forks, monkeypatch) -> None:
    gold = separable_corpus(240, seed=3)
    runs = []
    for n in (1, cpus):
        see_cpus(monkeypatch, n)
        runs.append([cross_validate(prepare(gold), variant, k=4) for variant in Variant])
        # one process forks nothing; several fork for every variant, NaiveBayes too
        assert len(forks) == (0 if n == 1 else len(Variant) * (n - 1))
        assert_reaped(forks)
        forks.clear()
    for a, b in zip(*runs, strict=True):
        assert (a.variant, a.fold_sizes) == (b.variant, b.fold_sizes)
        assert np.array_equal(a.pooled.counts, b.pooled.counts)
        for measure, summary in a.summaries.items():
            assert np.array_equal(b.summaries[measure].per_fold, summary.per_fold)
            assert (b.summaries[measure].mean, b.summaries[measure].half_width) == (summary.mean, summary.half_width)


def uneven_folds_gold():
    """21 posts whose five folds hold 6, 5, 4, 3 and 3 posts, so a fold
    is known by its training size: 15, 16, 17, 18 or 18."""
    return make_gold([-1] * 6 + [0] * 7 + [1] * 8)


def failing_at(sizes: set[int]):
    """``classify._train_plane``, which every process trains its planes
    with, failing on training sets of ``sizes`` rows."""
    def train_plane(rows, *args, real=classify._train_plane, **kwargs):
        if len(rows) in sizes:
            raise EvaluationError(f"boom on {len(rows)} rows")
        return real(rows, *args, **kwargs)
    return train_plane


@pytest.mark.parametrize(("sizes", "message"), [
    ({16, 17}, "fold 1: boom on 16 rows"),  # planes of two processes fail, with 3 CPUs
    ({17}, "fold 2: boom on 17 rows"),
    ({18}, "fold 3: boom on 18 rows"),  # folds 3 and 4, both in workers' runs with 2 or 3 CPUs
    ({15, 18}, "fold 0: boom on 15 rows"),
])
def test_the_lowest_failing_fold_is_reported_from_any_number_of_processes(sizes, message, forks, monkeypatch) -> None:
    monkeypatch.setattr(classify, "_train_plane", failing_at(sizes))
    for cpus in (1, 2, 3):
        see_cpus(monkeypatch, cpus)
        with pytest.raises(EvaluationError, match=f"^{message}$") as caught:
            cross_validate(prepare(uneven_folds_gold(), min_df=1), Variant.TWO_PLANE, k=5)
        assert str(caught.value.__cause__) == message.split(": ", 1)[1]
        assert len(forks) == cpus - 1
        assert_reaped(forks)
        forks.clear()


def test_folds_of_a_worker_that_sends_nothing_are_trained_by_the_caller(forks, monkeypatch, caplog) -> None:
    caller = os.getpid()

    def train_plane(*args, real=classify._train_plane, **kwargs):
        if os.getpid() != caller:
            os._exit(3)
        return real(*args, **kwargs)

    gold = separable_corpus(120, seed=4)
    see_cpus(monkeypatch, 1)
    serial = cross_validate(prepare(gold), Variant.CASCADING, k=4)
    monkeypatch.setattr(classify, "_train_plane", train_plane)
    see_cpus(monkeypatch, 2)
    with caplog.at_level(logging.WARNING, logger="sentagree.evaluation"):
        result = cross_validate(prepare(gold), Variant.CASCADING, k=4)
    assert len(forks) == 1 and [record.getMessage() for record in caplog.records] == [
        f"training process {forks[0]} ended with exit code 3; the caller runs its folds"
    ]
    assert np.array_equal(result.pooled.counts, serial.pooled.counts)
    for measure, summary in serial.summaries.items():
        assert np.array_equal(result.summaries[measure].per_fold, summary.per_fold)


def test_an_interrupted_caller_stops_and_reaps_its_workers(forks, monkeypatch) -> None:
    caller = os.getpid()

    def train_plane(*args, **kwargs):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(60)  # a worker still training when the caller stops

    monkeypatch.setattr(classify, "_train_plane", train_plane)
    see_cpus(monkeypatch, 3)
    started = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        cross_validate(prepare(uneven_folds_gold(), min_df=1), Variant.TWO_PLANE, k=5)
    assert time.perf_counter() - started < 30
    assert len(forks) == 2
    assert_reaped(forks)


def _same_rows(rows: CountRows, docs, vocab) -> bool:
    expected = oracles.count_rows_brute(docs, vocab.terms, vocab.ngrams)
    arrays = ("indptr", "indices", "values")
    return rows.dim == vocab.dim and all(np.array_equal(getattr(rows, a), e) for a, e in zip(arrays, expected))


def _spy(real, seen: list, position: int):
    """``real``, recording its argument at ``position`` in ``seen``."""
    def call(*args, **kwargs):
        seen.append(args[position])
        return real(*args, **kwargs)
    return call


def test_fold_features_equal_those_built_from_the_training_posts_alone(monkeypatch) -> None:
    """Every fold of the gate-8 corpora, the curve's prefixes included:
    the vocabulary selected from the corpus counts equals the one built
    from the fold's training documents, and every row its count row."""
    kept, train_rows, test_rows = [], [], []

    def fold_rows(corpus, plan, fold, real=evaluation._fold_rows):
        train_idx, keep = real(corpus, plan, fold)
        kept.append((corpus.vocab, keep))
        return train_idx, keep

    monkeypatch.setattr(evaluation, "_fold_rows", fold_rows)
    monkeypatch.setattr(evaluation, "train_sentiment", _spy(evaluation.train_sentiment, train_rows, 0))
    monkeypatch.setattr(evaluation, "predict_batch", _spy(evaluation.predict_batch, test_rows, 1))
    see_cpus(monkeypatch, 1)  # every fold in this process, where the spies record
    separable, shifted = separable_corpus(3000, seed=3), shift_corpus(3000, shift_at=1500, seed=3)
    cross_validate(prepare(separable, min_df=5), Variant.NAIVE_BAYES, k=10)
    curve = learning_curve(prepare(shifted, min_df=5), Variant.NAIVE_BAYES, step=500, k=10)
    sizes = [point.prefix_size for point in curve.points]
    assert sizes == [500, 1000, 1500, 2000, 2500, 3000]
    folds = [(separable, fold) for fold in range(10)] + [(shifted[:n], fold) for n in sizes for fold in range(10)]
    assert len(kept) == len(train_rows) == len(test_rows) == len(folds) == 70
    docs = {id(post): normalize(post.text) for post in separable + shifted}
    for (gold, fold), (vocab, keep), train, test in zip(folds, kept, train_rows, test_rows):
        plan = plan_folds([int(post.label) for post in gold], k=10)
        train_docs = [docs[id(gold[i])] for i in plan.train_indices(fold)]
        direct = vocabulary_from_token_docs(train_docs, min_df=5)
        terms, doc_freq = oracles.vocabulary_brute(train_docs, 5, (1, 2))
        assert tuple(vocab.terms[i] for i in keep.tolist()) == direct.terms == terms
        # a row holds each column at most once, so the training rows' column counts are document frequencies
        assert np.bincount(train.indices, minlength=train.dim).tolist() == direct.doc_freq.tolist() == doc_freq
        assert (len(train), vocab.min_df, vocab.ngrams) == (direct.n_docs, direct.min_df, direct.ngrams)
        assert _same_rows(train, train_docs, direct)
        assert _same_rows(test, [docs[id(gold[i])] for i in plan.folds[fold]], direct)


def test_cross_validate_models_carry_no_vocabulary(monkeypatch) -> None:
    # the fold models, never saved, are trained without a vocabulary, so they hold none
    seen = []

    def train_sentiment(*args, real=evaluation.train_sentiment, **kwargs):
        model = real(*args, **kwargs)
        seen.append((inspect.signature(real).bind(*args, **kwargs).arguments.get("vocab"), model.vocab))
        return model

    monkeypatch.setattr(evaluation, "train_sentiment", train_sentiment)
    see_cpus(monkeypatch, 1)  # every fold in this process, where ``seen`` is
    cross_validate(prepare(make_gold([-1, 0, 1] * 10), min_df=1), Variant.TWO_PLANE, k=3)
    assert seen == [(None, None)] * 3


def test_cross_validate_attaches_fold_context_to_errors(monkeypatch) -> None:
    gold = make_gold([-1, 0, 1] * 10)

    def predict_batch(model, rows):
        raise ValueError("boom")

    monkeypatch.setattr(evaluation, "predict_batch", predict_batch)
    with pytest.raises(EvaluationError, match="fold 0: boom"):
        cross_validate(prepare(gold, min_df=1), Variant.TWO_PLANE, k=3)


def test_cross_validate_requires_text() -> None:
    gold = make_gold([-1, 0, 1] * 10)
    gold[3] = GoldPost("g3", SentimentLabel.POSITIVE, timestamp=gold[3].timestamp)
    with pytest.raises(CorpusFormatError, match="post 'g3' has no text"):
        cross_validate(prepare(gold, min_df=1), Variant.TWO_PLANE, k=3)


def test_cross_validate_accepts_string_arguments() -> None:
    gold = make_gold([-1, 0, 1] * 10)
    result = cross_validate(prepare(gold, min_df=1), "NaiveBayes", k=3, measures=("accuracy",))
    assert result.variant is Variant.NAIVE_BAYES
    assert set(result.summaries) == {Measure.ACCURACY}
    with pytest.raises(ValueError):
        cross_validate(prepare(gold), "Perceptron", k=3)


@pytest.mark.parametrize("min_df", [0, -1, 2.5, True, "5"])
def test_prepare_checks_min_df_before_counting(min_df, monkeypatch) -> None:
    passes = count_passes(monkeypatch)
    with pytest.raises(VocabularyError, match=f"^min_df must be a positive integer, got {min_df!r}$"):
        prepare(make_gold([-1, 0, 1] * 3), min_df=min_df)
    assert passes == [[]]  # refused before the counter read a post


def test_prepare_checks_the_counts_once_per_corpus(monkeypatch) -> None:
    """One check of the stacked block, none per post; folds and prefixes
    slice checked rows without checking them again."""
    checked = []
    monkeypatch.setattr(CountRows, "__post_init__", _spy(CountRows.__post_init__, checked, 0))
    prepared = prepare(separable_corpus(300, seed=3), min_df=2)
    assert checked == [prepared.counts]
    cross_validate(prepared.head(150), Variant.NAIVE_BAYES, k=3)
    cross_validate(prepared, Variant.NAIVE_BAYES, k=10)
    assert len(checked) == 1


# --- learning curve ----------------------------------------------------------


def test_learning_curve_counts_each_post_once(monkeypatch) -> None:
    # prepare counts the corpus in one pass; the curve's prefixes are views of its rows and count nothing
    passes = count_passes(monkeypatch)
    gold = make_gold([-1, 0, 1] * 23 + [0])  # 70 posts
    curve = learning_curve(prepare(gold, min_df=1), Variant.NAIVE_BAYES, step=20, k=3)
    assert [p.prefix_size for p in curve.points] == [20, 40, 60, 70]
    assert [len(read) for read in passes] == [len(gold)]


def test_learning_curve_checks_its_options_before_any_prefix(monkeypatch) -> None:
    corpus = prepare(make_gold([-1, 0, 1] * 2 + [0, 1]), min_df=1)  # 8 posts: every prefix is skipped at k = 3
    monkeypatch.setattr(evaluation, "plan_folds", None)  # a prefix split would call None
    with pytest.raises(TypeError, match="min_df"):  # min_df is prepare's
        learning_curve(corpus, step=5, k=3, min_df=1)
    for k in (1, 2.5, True, "3"):
        with pytest.raises(FoldPlanError, match=f"^k must be an integer at least 2, got {k!r}$"):
            learning_curve(corpus, step=0, k=k)
    for step in (0, -5, 2.5, True, "5"):
        with pytest.raises(FoldPlanError, match=f"^step must be a positive integer, got {step!r}$"):
            learning_curve(corpus, step=step, k=3)
    monkeypatch.undo()
    curve = learning_curve(corpus, step=5, k=3)
    assert curve.points == () and [size for size, _ in curve.skipped] == [5, 8]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_a_curve_whose_every_prefix_is_skipped_forks_nothing(cpus, forks, monkeypatch) -> None:
    see_cpus(monkeypatch, cpus)
    curve = learning_curve(prepare(make_gold([-1, 0, 1] * 2 + [0, 1]), min_df=1), Variant.TWO_PLANE, step=5, k=3)
    assert curve.points == () and [size for size, _ in curve.skipped] == [5, 8] and forks == []


@pytest.mark.parametrize("cpus", [2, 3])
def test_learning_curve_deals_the_planes_of_all_its_prefixes_at_once(cpus, forks, monkeypatch) -> None:
    gold, k = make_gold([-1, 0, 1] * 13 + [0]), 4  # 40 posts: the prefix of 10 is skipped, 20, 30 and 40 kept
    planes = count_planes(monkeypatch)
    see_cpus(monkeypatch, cpus)
    curve = learning_curve(prepare(gold, min_df=1), Variant.TWO_PLANE, step=10, k=k)
    assert [size for size, _ in curve.skipped] == [10] and [p.prefix_size for p in curve.points] == [20, 30, 40]
    assert len(forks) == cpus - 1
    assert_reaped(forks)
    assert planes.value == 2 * k * len(curve.points)


def test_learning_curve_prefixes_and_final_point() -> None:
    gold = make_gold([-1, 0, 1] * 23 + [0])  # 70 posts
    config = TrainConfig()
    curve = learning_curve(prepare(gold, min_df=1), Variant.TWO_PLANE, config, step=20, k=3)
    assert [p.prefix_size for p in curve.points] == [20, 40, 60, 70]
    assert curve.skipped == ()
    full = cross_validate(prepare(gold, min_df=1), Variant.TWO_PLANE, config, k=3)
    last = curve.points[-1].result
    assert last.fold_sizes == full.fold_sizes
    assert np.array_equal(last.pooled.counts, full.pooled.counts)
    for measure, summary in full.summaries.items():
        assert last.summaries[measure].mean == summary.mean


def test_learning_curve_skips_small_and_unsplittable_prefixes() -> None:
    codes = [-1] * 10 + [0] * 5 + [1] * 5 + [-1, 0, 1] * 10
    gold = make_gold(codes)
    curve = learning_curve(prepare(gold, min_df=1), Variant.TWO_PLANE, step=5, k=3)
    sizes = [size for size, _ in curve.skipped]
    assert sizes == [5, 10, 15]
    assert "smaller than" in curve.skipped[0][1]
    assert "cannot be split" in curve.skipped[1][1]
    assert "cannot be split" in curve.skipped[2][1]
    assert [p.prefix_size for p in curve.points] == [20, 25, 30, 35, 40, 45, 50]
