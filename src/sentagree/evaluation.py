"""Blocked stratified cross-validation and learning curves.

Folds respect time: within each class, the corpus-ordered items are cut
into k consecutive blocks, and fold i is the union of block i across
classes.  Per-fold class counts therefore differ from the global
proportions by at most one item.  Every fold retrains from scratch --
vocabulary, per-plane term statistics, and planes all come from the
training folds only, so no test-fold document leaks into feature
construction.

Each cross-validation counts every post once, against the vocabulary
of the whole corpus at ``min_df``; a fold keeps the columns that at
least ``min_df`` of its training rows contain and selects its rows and
columns from those counts.  This is exact, since every such term is in
the corpus vocabulary.

Reported per measure: per-fold values, their mean, and the normal 95%
half-width ``1.96 * sd / sqrt(k)`` (sample standard deviation), plus
the pooled coincidence matrix summed over folds.
"""

from __future__ import annotations

import logging
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .agreement import CoincidenceMatrix, Measure, build_coincidence, compute_measure
from .classify import SentimentModel, TrainConfig, Variant, predict_batch, train_sentiment
from .corpus import GoldPost, SentimentLabel, time_ordered_chunks
from .errors import CorpusFormatError, EvaluationError, FoldPlanError
from .features import CountRows, Vocabulary, count_vector, normalize, vocabulary_from_token_docs

__all__ = [
    "DEFAULT_MEASURES",
    "FoldPlan",
    "MeasureSummary",
    "CrossValResult",
    "CurvePoint",
    "LearningCurve",
    "plan_folds",
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


def plan_folds(gold: Sequence[GoldPost], k: int = 10) -> FoldPlan:
    """Split a time-ordered corpus into k blocked stratified folds.

    Within each class the items are cut, in corpus order, into k
    consecutive blocks; the first ``n_c mod k`` blocks get the extra
    item.  Deterministic function of (corpus, k): no shuffling.

    Raises
    ------
    FoldPlanError
        If ``k < 2``, the corpus is smaller than ``k``, or any class
        has fewer than ``k`` members (missing classes included).
    """
    if k < 2:
        raise FoldPlanError(f"k must be at least 2, got {k}")
    n = len(gold)
    if n < k:
        raise FoldPlanError(f"corpus of {n} posts cannot be split into {k} folds")
    labels = np.array([int(p.label) for p in gold], dtype=np.int64)
    folds: list[list[np.ndarray]] = [[] for _ in range(k)]
    for code in (-1, 0, 1):
        members = np.flatnonzero(labels == code)
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
    return build_coincidence([(int(p), int(g)) for p, g in zip(predicted, gold)])


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


def _count_corpus(
    gold: Sequence[GoldPost],
    min_df: int = 5,
    ngrams: tuple[int, ...] = (1, 2),
    stemmer: Callable[[str], str] | None = None,
) -> tuple[Vocabulary, CountRows]:
    """Normalize every post once, build the vocabulary of the whole
    corpus at ``min_df`` and count every post against it once."""
    docs = []
    for post in gold:
        if post.text is None:
            raise CorpusFormatError(f"post {post.post_id!r} has no text")
        docs.append(normalize(post.text, stemmer))
    vocab = vocabulary_from_token_docs(docs, min_df=min_df, ngrams=ngrams)
    return vocab, CountRows.stack([count_vector(doc, vocab) for doc in docs])


def cross_validate(
    gold: Sequence[GoldPost],
    variant: Variant | str = Variant.TWO_PLANE,
    config: TrainConfig = TrainConfig(),
    k: int = 10,
    measures: Sequence[Measure | str] = DEFAULT_MEASURES,
    min_df: int = 5,
    ngrams: tuple[int, ...] = (1, 2),
    stemmer: Callable[[str], str] | None = None,
    on_fold: Callable[[int, Vocabulary, SentimentModel], None] | None = None,
) -> CrossValResult:
    """Evaluate one classifier variant by blocked stratified k-fold CV.

    The corpus must already be in time order (as produced by the gold
    merger).  Every fold takes its vocabulary and per-plane term
    statistics from the training folds alone.  ``on_fold`` is a
    diagnostics hook called with ``(fold_index, vocabulary, model)``
    after each fold trains.

    Any failure inside a fold -- training, prediction, or an undefined
    measure -- is re-raised with the fold index attached.
    """
    variant = Variant(variant)
    measures = tuple(Measure(m) for m in measures)
    plan = plan_folds(gold, k)
    vocab, counts = _count_corpus(gold, min_df, ngrams, stemmer)
    labels = np.array([int(p.label) for p in gold], dtype=np.int64)

    per_fold = {measure: np.empty(plan.k) for measure in measures}
    pooled = np.zeros((3, 3))
    fold_sizes = []
    for fold, test_idx in enumerate(plan.folds):
        train_idx = plan.train_indices(fold)
        try:
            doc_freq = np.bincount(counts.select(train_idx).indices, minlength=vocab.dim)
            keep = np.flatnonzero(doc_freq >= min_df)
            fold_vocab = Vocabulary(
                terms=tuple(vocab.terms[i] for i in keep.tolist()),
                doc_freq=doc_freq[keep],
                n_docs=int(train_idx.size),
                min_df=min_df,
                ngrams=vocab.ngrams,
            )
            model = train_sentiment(counts.select(train_idx, keep), labels[train_idx], variant, config, fold_vocab)
            if on_fold is not None:
                on_fold(fold, fold_vocab, model)
            matrix = score_predictions(predict_batch(model, counts.select(test_idx, keep)), labels[test_idx])
            for measure in measures:
                per_fold[measure][fold] = compute_measure(matrix, measure)
        except Exception as exc:
            raise EvaluationError(f"fold {fold}: {exc}") from exc
        pooled += matrix.counts
        fold_sizes.append(int(test_idx.size))

    summaries = {}
    for measure in measures:
        values = per_fold[measure]
        sd = float(np.std(values, ddof=1)) if plan.k > 1 else 0.0
        summaries[measure] = MeasureSummary(
            per_fold=values,
            mean=float(values.mean()),
            half_width=1.96 * sd / np.sqrt(plan.k),
        )
    return CrossValResult(
        variant=variant,
        k=plan.k,
        summaries=summaries,
        pooled=CoincidenceMatrix(pooled),
        fold_sizes=tuple(fold_sizes),
    )


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
    **feature_options,
) -> LearningCurve:
    """Cross-validate growing time-ordered prefixes of the corpus.

    Prefix sizes are ``step, 2*step, ...`` up to the full corpus (the
    final point always covers the whole corpus, so it equals a direct
    :func:`cross_validate` run).  Prefixes smaller than ``k *
    (number of classes)`` or otherwise unsplittable are skipped with a
    logged notice and reported in ``skipped``.
    """
    points: list[CurvePoint] = []
    skipped: list[tuple[int, str]] = []
    for prefix in time_ordered_chunks(gold, step):
        size = len(prefix)
        if size < k * 3:
            reason = f"prefix of {size} posts is smaller than k * 3 = {k * 3}"
            logger.info("skipping %s", reason)
            skipped.append((size, reason))
            continue
        try:
            result = cross_validate(
                prefix, variant=variant, config=config, k=k, measures=measures, **feature_options
            )
        except FoldPlanError as exc:
            reason = f"prefix of {size} posts cannot be split: {exc}"
            logger.info("skipping %s", reason)
            skipped.append((size, reason))
            continue
        points.append(CurvePoint(prefix_size=size, result=result))
    return LearningCurve(points=tuple(points), skipped=tuple(skipped))
