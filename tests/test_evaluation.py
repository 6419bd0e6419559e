"""Blocked stratified cross-validation and learning curves."""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from datetime import datetime, timedelta

import numpy as np
import pytest

from sentagree import classify, evaluation
from sentagree.agreement import Measure, build_coincidence
from sentagree.classify import TrainConfig, Variant
from sentagree.corpus import GoldPost, SentimentLabel
from sentagree.errors import CorpusFormatError, EvaluationError, FoldPlanError, VocabularyError
from sentagree.evaluation import (
    cross_validate,
    learning_curve,
    plan_folds,
    prepare,
    score_predictions,
)
from sentagree.features import CountRows, count_vector, normalize, vocabulary_from_token_docs

from conftest import NEG_WORDS, NEU_WORDS, POS_WORDS, separable_corpus, shift_corpus

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


def test_cross_validate_builds_vocabulary_from_training_folds_only() -> None:
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

    def hook(fold, vocab, model):
        seen[fold] = "zzmarker" in vocab.index

    result = cross_validate(prepare(gold, min_df=5), Variant.TWO_PLANE, k=5, on_fold=hook)
    assert seen == {0: True, 1: True, 2: True, 3: True, 4: False}
    assert result.summaries[Measure.ACCURACY].mean == 1.0


def test_count_corpus_from_posts() -> None:
    posts = make_gold([1, -1], texts=["good good day", "bad day"])
    prepared = prepare(posts, min_df=2)
    vocab, counts = prepared.vocab, prepared.counts
    assert vocab.terms == ("day",) and vocab.ngrams == (1, 2)
    assert (counts.indptr.tolist(), counts.indices.tolist(), counts.values.tolist()) == ([0, 1, 2], [0, 0], [1.0, 1.0])
    assert prepared.labels.tolist() == [1, -1] and prepared.min_df == 2
    with pytest.raises(CorpusFormatError, match="post '3' has no text"):
        prepare([GoldPost("3", SentimentLabel.NEUTRAL)], min_df=1)


def test_prefix_of_a_prepared_corpus_is_a_view() -> None:
    prepared = prepare(make_gold([-1, 0, 1] * 10), min_df=1)
    head = prepared.head(7)
    assert head.labels.tolist() == prepared.labels[:7].tolist()
    assert head.vocab is prepared.vocab and head.min_df == 1 and len(head.counts) == 7
    assert np.shares_memory(head.labels, prepared.labels)
    for name in ("indptr", "indices", "values"):
        assert np.shares_memory(getattr(head.counts, name), getattr(prepared.counts, name))
    expected = prepared.counts.select(np.arange(7))
    assert np.array_equal(head.counts.indices, expected.indices)
    assert np.array_equal(head.counts.values, expected.values)
    assert len(prepared.head(0).counts) == 0 and len(prepared.head(30).counts) == 30
    for n in (-1, 31):
        with pytest.raises(ValueError, match="prefix size"):
            prepared.head(n)


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
    # workers forked by cross_validate train planes too: count them in memory
    # shared with every process, set up before any fork
    planes = multiprocessing.Value("i", 0)

    def train_binary(*args, real=classify.train_binary, **kwargs):
        with planes.get_lock():
            planes.value += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(classify, "train_binary", train_binary)
    see_cpus(monkeypatch, 3)
    fresh = {variant: cross_validate(prepare(gold), variant, k=k) for variant in Variant}
    assert planes.value == 10 * k
    planes.value = 0
    shared = prepare(gold)
    for variant in Variant:
        result = cross_validate(shared, variant, k=k)
        assert np.array_equal(result.pooled.counts, fresh[variant].pooled.counts)
        for measure, summary in fresh[variant].summaries.items():
            assert np.array_equal(result.summaries[measure].per_fold, summary.per_fold)
    # the tuned NeutralZoneSVM plane, two TwoPlaneSVM planes (shared by
    # TwoPlaneSVMbin), CascadingSVM's two (its polarity plane shared by
    # ThreePlaneSVM) and ThreePlaneSVM's other two
    assert planes.value == 7 * k


def _fold_record(fold, vocab, model) -> tuple:
    """What ``on_fold`` sees, as plain values: the fold's vocabulary, its
    model's planes and its variant's table."""
    planes = {name: (plane.weights.tolist(), plane.bias, plane.dual_objectives) for name, plane in model.planes.items()}
    bins, subspaces, nb = model.bins, model.subspaces, model.nb
    tables = [
        model.neutral_zone,
        bins and (bins.edges_a.tolist(), bins.edges_b.tolist(), bins.counts.tolist()),
        subspaces and subspaces.counts.tolist(),
        nb and (nb.doc_counts.tolist(), nb.term_counts.tolist()),
    ]
    return fold, vocab.terms, vocab.doc_freq.tolist(), planes, tables


@pytest.mark.parametrize("cpus", [2, 3])
def test_folds_trained_in_several_processes_equal_those_of_one(cpus, forks, monkeypatch) -> None:
    gold = separable_corpus(240, seed=3)
    runs = []
    for n in (1, cpus):
        see_cpus(monkeypatch, n)
        shared, seen = prepare(gold), []
        results = [
            cross_validate(shared, variant, k=4, on_fold=lambda *args: seen.append(_fold_record(*args)))
            for variant in Variant
        ]
        memo = {key: {sides: plane.weights.tolist() for sides, plane in planes.items()}
                for key, planes in shared._planes.items()}
        runs.append((results, seen, memo))
        # one process forks nothing; several fork for the four variants that train planes
        # (TwoPlaneSVMbin finds every plane memoized, NaiveBayes has none)
        assert len(forks) == (0 if n == 1 else 4 * (n - 1))
        assert_reaped(forks)
        forks.clear()
    (one, one_seen, one_memo), (several, several_seen, several_memo) = runs
    assert several_seen == one_seen and [record[0] for record in one_seen] == list(range(4)) * len(Variant)
    assert several_memo == one_memo
    for a, b in zip(one, several):
        assert np.array_equal(a.pooled.counts, b.pooled.counts)
        for measure, summary in a.summaries.items():
            assert np.array_equal(b.summaries[measure].per_fold, summary.per_fold)
            assert (b.summaries[measure].mean, b.summaries[measure].half_width) == (summary.mean, summary.half_width)


def uneven_folds_gold():
    """21 posts whose five folds hold 6, 5, 4, 3 and 3 posts, so a fold
    is known by its training size: 15, 16, 17, 18 or 18."""
    return make_gold([-1] * 6 + [0] * 7 + [1] * 8)


def failing_at(sizes: set[int]):
    """``train_sentiment``, failing on training sets of ``sizes`` rows."""
    def train_sentiment(rows, *args, real=evaluation.train_sentiment, **kwargs):
        if len(rows) in sizes:
            raise EvaluationError(f"boom on {len(rows)} rows")
        return real(rows, *args, **kwargs)
    return train_sentiment


@pytest.mark.parametrize(("sizes", "message"), [
    ({16, 17}, "fold 1: boom on 16 rows"),  # two workers' folds fail, with 3 CPUs
    ({17}, "fold 2: boom on 17 rows"),
    ({18}, "fold 3: boom on 18 rows"),  # the caller's fold 3 and a worker's fold 4
    ({15, 18}, "fold 0: boom on 15 rows"),
])
def test_the_lowest_failing_fold_is_reported_from_any_number_of_processes(sizes, message, forks, monkeypatch) -> None:
    monkeypatch.setattr(evaluation, "train_sentiment", failing_at(sizes))
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

    def train_sentiment(*args, real=evaluation.train_sentiment, **kwargs):
        if os.getpid() != caller:
            os._exit(3)
        return real(*args, **kwargs)

    gold = separable_corpus(120, seed=4)
    see_cpus(monkeypatch, 1)
    serial = cross_validate(prepare(gold), Variant.CASCADING, k=4)
    monkeypatch.setattr(evaluation, "train_sentiment", train_sentiment)
    see_cpus(monkeypatch, 2)
    with caplog.at_level(logging.WARNING, logger="sentagree.evaluation"):
        result = cross_validate(prepare(gold), Variant.CASCADING, k=4)
    assert len(forks) == 1 and [record.getMessage() for record in caplog.records] == [
        f"training process {forks[0]} ended with exit code 3; the caller trains its folds"
    ]
    assert np.array_equal(result.pooled.counts, serial.pooled.counts)
    for measure, summary in serial.summaries.items():
        assert np.array_equal(result.summaries[measure].per_fold, summary.per_fold)


def test_an_interrupted_caller_stops_and_reaps_its_workers(forks, monkeypatch) -> None:
    caller = os.getpid()

    def train_sentiment(*args, **kwargs):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(60)  # a worker still training when the caller stops

    monkeypatch.setattr(evaluation, "train_sentiment", train_sentiment)
    see_cpus(monkeypatch, 3)
    started = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        cross_validate(prepare(uneven_folds_gold(), min_df=1), Variant.TWO_PLANE, k=5)
    assert time.perf_counter() - started < 30
    assert len(forks) == 2
    assert_reaped(forks)


def _same_rows(rows: CountRows, docs, vocab) -> bool:
    expected = CountRows.stack([count_vector(doc, vocab) for doc in docs])
    arrays = ("indptr", "indices", "values")
    return rows.dim == vocab.dim and all(np.array_equal(getattr(rows, a), getattr(expected, a)) for a in arrays)


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
    train_rows, test_rows, vocabularies = [], [], []
    monkeypatch.setattr(evaluation, "train_sentiment", _spy(evaluation.train_sentiment, train_rows, 0))
    monkeypatch.setattr(evaluation, "predict_batch", _spy(evaluation.predict_batch, test_rows, 1))
    options = dict(k=10, on_fold=lambda fold, vocab, model: vocabularies.append(vocab))
    separable, shifted = separable_corpus(3000, seed=3), shift_corpus(3000, shift_at=1500, seed=3)
    cross_validate(prepare(separable, min_df=5), Variant.NAIVE_BAYES, **options)
    curve = learning_curve(shifted, Variant.NAIVE_BAYES, step=500, min_df=5, **options)
    sizes = [point.prefix_size for point in curve.points]
    assert sizes == [500, 1000, 1500, 2000, 2500, 3000]
    folds = [(separable, fold) for fold in range(10)] + [(shifted[:n], fold) for n in sizes for fold in range(10)]
    assert len(vocabularies) == len(train_rows) == len(test_rows) == len(folds) == 70
    docs = {id(post): normalize(post.text) for post in separable + shifted}
    for (gold, fold), vocab, train, test in zip(folds, vocabularies, train_rows, test_rows):
        plan = plan_folds([int(post.label) for post in gold], k=10)
        train_docs = [docs[id(gold[i])] for i in plan.train_indices(fold)]
        direct = vocabulary_from_token_docs(train_docs, min_df=5)
        terms, doc_freq = oracles.vocabulary_brute(train_docs, 5, (1, 2))
        assert vocab.terms == direct.terms == terms
        assert vocab.doc_freq.tolist() == direct.doc_freq.tolist() == doc_freq
        assert (vocab.n_docs, vocab.min_df, vocab.ngrams) == (direct.n_docs, direct.min_df, direct.ngrams)
        assert _same_rows(train, train_docs, vocab)
        assert _same_rows(test, [docs[id(gold[i])] for i in plan.folds[fold]], vocab)


def test_cross_validate_models_carry_no_vocabulary() -> None:
    # the hook gets each fold's vocabulary; the fold models, never saved, hold none
    prepared = prepare(make_gold([-1, 0, 1] * 10), min_df=1)
    seen = []
    cross_validate(prepared, Variant.TWO_PLANE, k=3, on_fold=lambda fold, vocab, model: seen.append((vocab, model)))
    assert len(seen) == 3 and all(vocab.dim > 0 and model.vocab is None for vocab, model in seen)


def test_cross_validate_attaches_fold_context_to_errors() -> None:
    gold = make_gold([-1, 0, 1] * 10)

    def hook(fold, vocab, model):
        raise ValueError("boom")

    with pytest.raises(EvaluationError, match="fold 0: boom"):
        cross_validate(prepare(gold, min_df=1), Variant.TWO_PLANE, k=3, on_fold=hook)


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
    counted = []
    monkeypatch.setattr(evaluation, "count_vector", _spy(evaluation.count_vector, counted, 0))
    gold = make_gold([-1, 0, 1] * 23 + [0])  # 70 posts
    curve = learning_curve(gold, Variant.NAIVE_BAYES, step=20, k=3, min_df=1)
    assert [p.prefix_size for p in curve.points] == [20, 40, 60, 70]
    assert len(counted) == len(gold)


def test_learning_curve_checks_its_options_before_any_prefix() -> None:
    gold = make_gold([-1, 0, 1] * 2 + [0, 1])  # 8 posts: every prefix is skipped at k = 3
    with pytest.raises(TypeError, match="min_dff"):
        learning_curve(gold, step=5, k=3, min_dff=1, on_fold=1)
    with pytest.raises(VocabularyError, match="min_df"):
        learning_curve(gold, step=5, k=3, min_df=0)
    curve = learning_curve(gold, step=5, k=3, min_df=1)
    assert curve.points == () and [size for size, _ in curve.skipped] == [5, 8]


def test_learning_curve_prefixes_and_final_point() -> None:
    gold = make_gold([-1, 0, 1] * 23 + [0])  # 70 posts
    config = TrainConfig()
    curve = learning_curve(gold, Variant.TWO_PLANE, config, step=20, k=3, min_df=1)
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
    curve = learning_curve(gold, Variant.TWO_PLANE, step=5, k=3, min_df=1)
    sizes = [size for size, _ in curve.skipped]
    assert sizes == [5, 10, 15]
    assert "smaller than" in curve.skipped[0][1]
    assert "cannot be split" in curve.skipped[1][1]
    assert "cannot be split" in curve.skipped[2][1]
    assert [p.prefix_size for p in curve.points] == [20, 25, 30, 35, 40, 45, 50]
