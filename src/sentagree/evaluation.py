"""Blocked stratified cross-validation and learning curves.

Folds respect time: within each class, the corpus-ordered label codes
are cut into k consecutive blocks, and fold i is the union of block i
across classes.  Per-fold class counts therefore differ from the global
proportions by at most one item.  Every fold retrains from scratch --
vocabulary, per-plane term statistics, and planes all come from the
training folds only, so no test-fold document leaks into feature
construction.

A prepared corpus keeps only its counts against its vocabulary at
``min_df``, its label codes, that vocabulary and ``min_df``.  A fold
selects from the counts the columns that at least ``min_df`` of its
training rows contain, which is exact since every such term is in that
vocabulary.  All variants and learning-curve prefixes share the counts;
a plane is trained once per (training rows, sides, config).

Reported per measure: per-fold values, their mean, and the normal 95%
half-width ``1.96 * sd / sqrt(k)`` (sample standard deviation), plus
the pooled coincidence matrix summed over folds.
"""

from __future__ import annotations

import logging
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .agreement import CoincidenceMatrix, Measure, _cells, compute_measure, matrix_from_cells
from .classify import LinearModel, SentimentModel, TrainConfig, Variant, predict_batch, train_sentiment
from .corpus import GoldPost, SentimentLabel, _gold_table, _not_codes, time_ordered_chunks
from .errors import CorpusFormatError, EvaluationError, FoldPlanError, _check_count
from .features import CountRows, Vocabulary, count_vector, normalize, vocabulary_from_token_docs

__all__ = [
    "DEFAULT_MEASURES",
    "FoldPlan",
    "PreparedCorpus",
    "MeasureSummary",
    "CrossValResult",
    "CurvePoint",
    "LearningCurve",
    "plan_folds",
    "prepare",
    "score_predictions",
    "cross_validate",
    "learning_curve",
]

logger = logging.getLogger(__name__)

#: Reporting order of the standard evaluation measures.
DEFAULT_MEASURES: tuple[Measure, ...] = (
    Measure.ACC_WITHIN_1,
    Measure.ACCURACY,
    Measure.F1_BAR,
    Measure.ALPHA_INTERVAL,
)


@dataclass(frozen=True)
class FoldPlan:
    """A blocked stratified split: ``folds[i]`` holds corpus indices."""

    k: int
    folds: tuple[np.ndarray, ...]

    def train_indices(self, fold: int) -> np.ndarray:
        others = [f for i, f in enumerate(self.folds) if i != fold]
        return np.sort(np.concatenate(others))


def plan_folds(labels: Sequence[SentimentLabel | int], k: int = 10) -> FoldPlan:
    """Split a time-ordered corpus, given by its label codes, into k blocked stratified folds.

    Within each class the items are cut, in corpus order, into k
    consecutive blocks; the first ``n_c mod k`` blocks get the extra
    item.  Deterministic function of (labels, k): no shuffling.

    Raises
    ------
    FoldPlanError
        If ``k`` is not an integer of at least 2, a label is not exactly
        -1, 0 or +1 (checked before any cast, so 0.6 is no code), the
        corpus is smaller than ``k``, or any class has fewer than ``k``
        members (missing classes included).
    """
    _check_count("k", k, 2, FoldPlanError)
    codes = np.asarray(labels)
    outside = _not_codes(codes)
    if outside.any():
        at = int(outside.argmax())
        raise FoldPlanError(f"label {codes[at]} at position {at} is not a label code -1/0/+1")
    codes = codes.astype(np.int64)
    if codes.size < k:
        raise FoldPlanError(f"corpus of {codes.size} posts cannot be split into {k} folds")
    folds: list[list[np.ndarray]] = [[] for _ in range(k)]
    for code in (-1, 0, 1):
        members = np.flatnonzero(codes == code)
        if members.size < k:
            name = SentimentLabel(code).to_string()
            raise FoldPlanError(
                f"class {name} has {members.size} posts, fewer than k = {k}"
            )
        base, extra = divmod(members.size, k)
        start = 0
        for i in range(k):
            size = base + (1 if i < extra else 0)
            folds[i].append(members[start : start + size])
            start += size
    return FoldPlan(k=k, folds=tuple(np.sort(np.concatenate(parts)) for parts in folds))


def score_predictions(
    predicted: Sequence[SentimentLabel | int],
    gold: Sequence[SentimentLabel | int],
) -> CoincidenceMatrix:
    """Coincidence matrix of (predicted, gold) label pairs.

    Each item enters as a double-counted pair, exactly like an
    annotator pair, so every agreement measure applies unchanged.
    """
    if len(predicted) != len(gold):
        raise EvaluationError(
            f"{len(predicted)} predictions for {len(gold)} gold labels"
        )
    if not len(predicted):
        raise EvaluationError("cannot score an empty prediction set")
    return matrix_from_cells(_cells(predicted, gold))


@dataclass(frozen=True)
class MeasureSummary:
    """Per-fold values of one measure with mean and 95% half-width."""

    per_fold: np.ndarray
    mean: float
    half_width: float


@dataclass(frozen=True)
class CrossValResult:
    variant: Variant
    k: int
    summaries: dict[Measure, MeasureSummary]
    pooled: CoincidenceMatrix
    fold_sizes: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class PreparedCorpus:
    """A corpus normalized, given a vocabulary and counted once.

    ``counts`` holds one row per post against ``vocab``, the vocabulary
    of the whole corpus at ``min_df``, and ``labels`` their label codes.
    :func:`cross_validate` memoizes its planes here by (k, fold, sides,
    config); the corpus's fold plan at ``k`` fixes each fold's rows.
    """

    vocab: Vocabulary
    counts: CountRows
    labels: np.ndarray
    min_df: int
    _planes: dict[tuple, dict[tuple, LinearModel]] = field(default_factory=dict, init=False, repr=False)

    def head(self, n: int) -> PreparedCorpus:
        """The first ``n`` posts, keeping this corpus's vocabulary; their
        counts and labels are views of this corpus's arrays, not copies."""
        if not 0 <= n <= len(self.labels):
            raise ValueError(f"prefix size must be in [0, {len(self.labels)}], got {n}")
        counts, end = self.counts, int(self.counts.indptr[n])
        # the first rows of checked counts are valid rows
        rows = CountRows._trusted(counts.indptr[: n + 1], counts.indices[:end], counts.values[:end], counts.dim)
        return PreparedCorpus(self.vocab, rows, self.labels[:n], self.min_df)


def prepare(gold: Sequence[GoldPost], min_df: int = 5) -> PreparedCorpus:
    """Normalize every post once, without stemming, build the unigram
    and bigram vocabulary of the whole corpus at ``min_df`` and count
    every post against it once; the first post without text raises
    :class:`CorpusFormatError`."""
    table = _gold_table(gold)
    if None in table.texts:
        raise CorpusFormatError(f"post {table.post_ids[table.texts.index(None)]!r} has no text")
    docs = [normalize(text) for text in table.texts]
    vocab = vocabulary_from_token_docs(docs, min_df=min_df)
    counts = CountRows.stack([count_vector(doc, vocab) for doc in docs])
    return PreparedCorpus(vocab, counts, table.label.astype(np.int64), min_df)


def cross_validate(
    corpus: PreparedCorpus,
    variant: Variant | str = Variant.TWO_PLANE,
    config: TrainConfig = TrainConfig(),
    k: int = 10,
    measures: Sequence[Measure | str] = DEFAULT_MEASURES,
    on_fold: Callable[[int, Vocabulary, SentimentModel], None] | None = None,
) -> CrossValResult:
    """Evaluate one classifier variant by blocked stratified k-fold CV.

    The corpus, made by :func:`prepare`, must already be in time order
    (as produced by the gold merger).  Every fold takes its vocabulary
    and per-plane term statistics from the training folds alone; a plane
    an earlier run on the same corpus trained is reused.  ``on_fold`` is a
    diagnostics hook called with ``(fold_index, vocabulary, model)``
    after each fold trains; only it gets a fold vocabulary built, and the
    models, never saved, carry no vocabulary.

    Any failure inside a fold -- training, prediction, or an undefined
    measure -- is re-raised with the fold index attached.
    """
    variant = Variant(variant)
    measures = tuple(Measure(m) for m in measures)
    plan = plan_folds(corpus.labels, k)
    vocab, counts, labels, min_df = corpus.vocab, corpus.counts, corpus.labels, corpus.min_df

    per_fold = {measure: np.empty(plan.k) for measure in measures}
    pooled = np.zeros((3, 3))
    row_nnz = np.diff(counts.indptr)
    for fold, test_idx in enumerate(plan.folds):
        train_idx = plan.train_indices(fold)
        try:
            # a row holds each column at most once, so its training entries count documents
            in_train = np.zeros(len(counts), dtype=bool)
            in_train[train_idx] = True
            doc_freq = np.bincount(counts.indices[np.repeat(in_train, row_nnz)], minlength=vocab.dim)
            keep = np.flatnonzero(doc_freq >= min_df)
            planes = corpus._planes.setdefault((plan.k, fold, config), {})
            model = train_sentiment(counts.select(train_idx, keep), labels[train_idx], variant, config, memo=planes)
            if on_fold is not None:
                terms = tuple(vocab.terms[i] for i in keep.tolist())
                on_fold(fold, Vocabulary(terms, doc_freq[keep], int(train_idx.size), min_df, vocab.ngrams), model)
            matrix = score_predictions(predict_batch(model, counts.select(test_idx, keep)), labels[test_idx])
            for measure in measures:
                per_fold[measure][fold] = compute_measure(matrix, measure)
        except Exception as exc:
            raise EvaluationError(f"fold {fold}: {exc}") from exc
        pooled += matrix.counts

    summaries = {}
    for measure, values in per_fold.items():  # plan_folds makes k >= 2
        half_width = 1.96 * float(np.std(values, ddof=1)) / np.sqrt(plan.k)
        summaries[measure] = MeasureSummary(per_fold=values, mean=float(values.mean()), half_width=half_width)
    return CrossValResult(variant, plan.k, summaries, CoincidenceMatrix(pooled), tuple(int(f.size) for f in plan.folds))


@dataclass(frozen=True)
class CurvePoint:
    prefix_size: int
    result: CrossValResult


@dataclass(frozen=True)
class LearningCurve:
    points: tuple[CurvePoint, ...]
    skipped: tuple[tuple[int, str], ...]


def learning_curve(
    gold: Sequence[GoldPost],
    variant: Variant | str = Variant.TWO_PLANE,
    config: TrainConfig = TrainConfig(),
    step: int = 10000,
    k: int = 10,
    measures: Sequence[Measure | str] = DEFAULT_MEASURES,
    min_df: int = 5,
    on_fold: Callable[[int, Vocabulary, SentimentModel], None] | None = None,
) -> LearningCurve:
    """Cross-validate growing time-ordered prefixes of the corpus.

    Prefix sizes are ``step, 2*step, ...`` up to the full corpus (the
    final point always covers the whole corpus, so it equals a direct
    :func:`cross_validate` run).  The corpus is put in time order and
    prepared once, before any prefix is tried, and each prefix is a view
    of its first rows.  Prefixes smaller than ``k * (number of classes)`` or
    otherwise unsplittable are skipped with a logged notice and
    reported in ``skipped``.
    """
    posts, sizes = time_ordered_chunks(gold, step)
    corpus = prepare(posts, min_df)
    points: list[CurvePoint] = []
    skipped: list[tuple[int, str]] = []
    for size in sizes:
        reason = f"prefix of {size} posts is smaller than k * 3 = {k * 3}" if size < k * 3 else None
        if reason is None:
            try:
                result = cross_validate(corpus.head(size), variant, config, k, measures, on_fold)
                points.append(CurvePoint(size, result))
                continue
            except FoldPlanError as exc:
                reason = f"prefix of {size} posts cannot be split: {exc}"
        logger.info("skipping %s", reason)
        skipped.append((size, reason))
    return LearningCurve(points=tuple(points), skipped=tuple(skipped))
