"""Blocked stratified cross-validation and learning curves.

Folds respect time: within each class, the corpus-ordered label codes
are cut into k consecutive blocks, and fold i is the union of block i
across classes.  Per-fold class counts therefore differ from the global
proportions by at most one item.  Every fold retrains from scratch --
vocabulary, per-plane term statistics, and planes all come from the
training folds only, so no test-fold document leaks into feature
construction.

A prepared corpus keeps only its posts' counts, in time order, against
its vocabulary, their label codes and that vocabulary, which holds the
one ``min_df``.  A fold selects from the counts the columns that at
least ``min_df`` of its training rows contain, which is exact since
every such term is in that vocabulary.  :func:`prepare` makes the
corpus that :func:`cross_validate` and :func:`learning_curve` take, and
learning-curve prefixes are views of its first rows.

The fold is the one unit of work.  :func:`_fold_codes` selects a
fold's rows once and trains every variant on them with one plane memo,
so variants that share a plane train it once.  :func:`_cross_validate`
deals a command's (corpus, fold) pairs in order as contiguous runs of
about equal training rows, one per CPU the process may run on
(``os.sched_getaffinity``), with no setting.  The caller loads the C
epoch kernel of ``classify`` first when a variant has planes, so that
no worker compiles it, and runs the first run; forked workers run the
others and send back, pickled, each variant's predicted codes (int8)
of each fold or the exceptions raised.  The caller also runs any fold
a dead worker never sent; with one CPU or without ``os.fork`` it runs
every fold and starts no process.  Each command deals once:
:func:`cross_validate` its folds, :func:`learning_curve` those of all
its prefixes, and ``compare`` those of every dataset for all six
variants.  Once every worker is reaped, the caller alone scores every
fold and computes the measures in (corpus, variant, fold) order, which
raises the lowest failing fold's error, and sums the pooled matrices in
fold order, so every result is the same to the bit on any number of
processes.  On Linux the kernel kills a worker whose caller ends first.

Reported per measure: per-fold values, their mean, and the normal 95%
half-width ``1.96 * sd / sqrt(k)`` (sample standard deviation), plus
the pooled coincidence matrix summed over folds.
"""

from __future__ import annotations

import ctypes
import logging
import os
import pickle
import signal
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from . import _EXPORTS, classify
from .agreement import CoincidenceMatrix, Measure, _cells, compute_measure, matrix_from_cells
from .classify import TrainConfig, Variant, predict_batch, train_sentiment
from .corpus import GoldPost, SentimentLabel, _gold_table, _not_codes, _time_ordered, time_ordered_chunks
from .errors import CorpusFormatError, EvaluationError, FoldPlanError, _check_count
# no code here calls time_ordered_chunks, count_vector or vocabulary_from_token_docs: they stay imported
# because the traced benchmark (perfbench/spans.py) wraps them here, as tests/test_bench_wraps.py checks,
# until its spans move into the package (ROADMAP item 1(c))
from .features import CountRows, Vocabulary, _count_corpus, count_vector, normalize, vocabulary_from_token_docs

__all__ = _EXPORTS["evaluation"].split()

logger = logging.getLogger(__name__)

_PR_SET_PDEATHSIG = 1  # prctl(2): the signal a process gets when the thread that forked it ends

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

    ``counts`` holds one row per post, in time order, against ``vocab``,
    the vocabulary of the whole corpus, and ``labels`` their label codes;
    each fold selects its rows and columns from them.
    """

    vocab: Vocabulary
    counts: CountRows
    labels: np.ndarray

    def head(self, n: int) -> PreparedCorpus:
        """The first ``n`` posts, keeping this corpus's vocabulary; their
        counts and labels are views of this corpus's arrays."""
        _check_count("prefix size", n, 0)
        if n > len(self.labels):
            raise ValueError(f"prefix size must be in [0, {len(self.labels)}], got {n}")
        counts, end = self.counts, int(self.counts.indptr[n])
        # the first rows of checked counts are valid rows
        rows = CountRows._trusted(counts.indptr[: n + 1], counts.indices[:end], counts.values[:end], counts.dim)
        return PreparedCorpus(self.vocab, rows, self.labels[:n])


def prepare(gold: Sequence[GoldPost], min_df: int = 5) -> PreparedCorpus:
    """Put the posts in time order (by date when every post has one,
    equal dates in their given order, otherwise as given) and count them
    in one pass: each post is normalized once, without stemming, and its
    unigrams and bigrams are counted as they come, giving the vocabulary
    of the whole corpus at ``min_df`` and one row per post against it; no
    token list outlives its post.  The first post without text raises
    :class:`CorpusFormatError`."""
    table = _time_ordered(_gold_table(gold))
    if None in table.texts:
        raise CorpusFormatError(f"post {table.post_ids[table.texts.index(None)]!r} has no text")
    vocab, counts = _count_corpus(map(normalize, table.texts), min_df=min_df)
    return PreparedCorpus(vocab, counts, table.label.astype(np.int64))


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fold_rows(corpus: PreparedCorpus, plan: FoldPlan, fold: int) -> tuple[np.ndarray, np.ndarray]:
    """The fold's training rows and the columns it keeps."""
    counts = corpus.counts
    train_idx = plan.train_indices(fold)
    in_train = np.zeros(len(counts), dtype=bool)
    in_train[train_idx] = True
    # a row holds each column at most once, so its training entries count documents
    doc_freq = np.bincount(counts.indices[np.repeat(in_train, np.diff(counts.indptr))], minlength=corpus.vocab.dim)
    return train_idx, np.flatnonzero(doc_freq >= corpus.vocab.min_df)


def _deal(costs: Sequence[int], processes: int) -> list[slice]:
    """Cut positive ``costs``, in order, into ``processes`` contiguous runs
    of about equal sum: an item joins the run in whose ``1/processes`` of
    the total its midpoint lies, so each run's sum is within the largest
    cost of ``total / processes``.  A run may be empty."""
    costs = np.asarray(costs, dtype=np.int64)
    ends = np.cumsum(costs)
    # twice each midpoint, so the run index is exact in integers
    runs = (2 * ends - costs) * processes // (2 * ends[-1])
    bounds = np.searchsorted(runs, np.arange(processes + 1)).tolist()
    return [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]


def _fork_worker(solve: Callable[[], dict]) -> tuple[int, BinaryIO] | None:
    """Fork a worker that sends back, pickled, what ``solve`` returns;
    return its pid and the read end of its pipe, or ``None`` if no
    process could be forked."""
    caller = os.getpid()
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid:
        os.close(write_end)
        return pid, open(read_end, "rb")
    # the worker never returns into the caller's stack, and exits 0 only once it has sent everything
    status = 1
    try:
        os.close(read_end)
        if sys.platform == "linux":  # the kernel kills the worker when the caller ends, however it ends
            ctypes.CDLL(None).prctl(ctypes.c_int(_PR_SET_PDEATHSIG), ctypes.c_ulong(signal.SIGKILL))
        if os.getppid() == caller:  # else the caller ended before that took hold
            data = pickle.dumps(solve(), pickle.HIGHEST_PROTOCOL)
            with open(write_end, "wb") as pipe:
                pipe.write(data)
            status = 0
    finally:
        os._exit(status)


def _fold_codes(
    corpus: PreparedCorpus, plan: FoldPlan, fold: int, variants: Sequence[Variant], config: TrainConfig
) -> list[np.ndarray | Exception]:
    """Each variant's predicted codes (int8) of ``fold``'s test rows, or
    the exception its training or prediction raised; the variants train
    on rows selected once, with one plane memo."""
    (train_idx, keep), test_idx = _fold_rows(corpus, plan, fold), plan.folds[fold]
    rows, test_rows = corpus.counts.select(train_idx, keep), corpus.counts.select(test_idx, keep)
    labels = corpus.labels[train_idx]
    memo: dict = {}
    codes = []
    for variant in variants:
        try:
            model = train_sentiment(rows, labels, variant, config, memo=memo)
            codes.append(predict_batch(model, test_rows).astype(np.int8))
        except Exception as exc:
            codes.append(exc)
    return codes


def _summarize(
    variant: Variant, plan: FoldPlan, labels: np.ndarray, codes: Sequence[np.ndarray | Exception],
    measures: Sequence[Measure],
) -> CrossValResult:
    """The result of ``variant`` from its folds' predicted codes, in fold
    order, scored against the corpus's ``labels``; the first failing fold
    raises, with its index attached."""
    per_fold = {measure: np.empty(plan.k) for measure in measures}
    matrices = []
    for fold, predicted in enumerate(codes):
        try:
            if isinstance(predicted, Exception):
                raise predicted
            matrices.append(score_predictions(predicted, labels[plan.folds[fold]]))
            for measure in measures:
                per_fold[measure][fold] = compute_measure(matrices[-1], measure)
        except Exception as exc:
            raise EvaluationError(f"fold {fold}: {exc}") from exc
    summaries = {}
    for measure, values in per_fold.items():  # plan_folds makes k >= 2
        half_width = 1.96 * float(np.std(values, ddof=1)) / np.sqrt(plan.k)
        summaries[measure] = MeasureSummary(per_fold=values, mean=float(values.mean()), half_width=half_width)
    pooled = CoincidenceMatrix(sum((matrix.counts for matrix in matrices), np.zeros((3, 3))))
    return CrossValResult(variant, plan.k, summaries, pooled, tuple(int(f.size) for f in plan.folds))


def _cross_validate(
    corpora: Sequence[PreparedCorpus], variants: Sequence[Variant | str], config: TrainConfig, k: int,
    measures: Sequence[Measure | str],
) -> list[list[CrossValResult]]:
    """Each of ``variants`` cross-validated on each of ``corpora`` at ``k``
    folds, as ``[corpus][variant]``, in one deal of every (corpus, fold)
    pair (see the module docstring).  Every corpus is split before any
    fold trains, so the first that cannot be raises its FoldPlanError."""
    variants = [Variant(variant) for variant in variants]
    measures = [Measure(measure) for measure in measures]
    plans = [plan_folds(corpus.labels, k) for corpus in corpora]
    pairs = [(c, fold) for c, plan in enumerate(plans) for fold in range(plan.k)]
    if not pairs:
        return []

    def solve(share: Sequence[tuple[int, int]]) -> dict[tuple[int, int], list]:
        return {(c, fold): _fold_codes(corpora[c], plans[c], fold, variants, config) for c, fold in share}

    # a fold costs its training rows
    costs = [len(corpora[c].labels) - plans[c].folds[fold].size for c, fold in pairs]
    processes = min(_cpus(), len(pairs)) if hasattr(os, "fork") else 1
    shares = [pairs[run] for run in _deal(costs, processes) if run.stop > run.start]
    if any(variant in classify._PLANE_SIDES for variant in variants):
        classify._epoch_kernel()  # loaded here, so that the workers inherit it and none compiles
    workers, reaped = [], set()
    try:
        for share in shares[1:]:
            if (worker := _fork_worker(lambda share=share: solve(share))) is not None:
                workers.append(worker)
        predicted = solve(shares[0])
        for pid, pipe in workers:
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped.add(pid)
            if code != 0:
                logger.warning("training process %d ended with exit code %d; the caller runs its folds", pid, code)
                continue
            predicted.update(pickle.loads(data))
    finally:
        for pid, pipe in workers:
            pipe.close()
            if pid not in reaped:  # the caller stopped early
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    predicted.update(solve([pair for pair in pairs if pair not in predicted]))  # the folds no worker sent
    return [[_summarize(variant, plan, corpora[c].labels, [predicted[c, fold][v] for fold in range(plan.k)], measures)
             for v, variant in enumerate(variants)] for c, plan in enumerate(plans)]


def cross_validate(
    corpus: PreparedCorpus,
    variant: Variant | str = Variant.TWO_PLANE,
    config: TrainConfig = TrainConfig(),
    k: int = 10,
    measures: Sequence[Measure | str] = DEFAULT_MEASURES,
) -> CrossValResult:
    """Evaluate one classifier variant by blocked stratified k-fold CV.

    The corpus is made by :func:`prepare`, which puts it in time order.
    Every fold takes its vocabulary and per-plane term statistics from
    the training folds alone, and its models, never saved, carry no
    vocabulary.  The folds are trained across the CPUs the process may
    run on (see the module docstring).

    Any failure inside a fold -- training, prediction, or an undefined
    measure -- is re-raised with the index of the lowest failing fold
    attached.
    """
    [[result]] = _cross_validate([corpus], [variant], config, k, measures)
    return result


@dataclass(frozen=True)
class CurvePoint:
    prefix_size: int
    result: CrossValResult


@dataclass(frozen=True)
class LearningCurve:
    points: tuple[CurvePoint, ...]
    skipped: tuple[tuple[int, str], ...]


def learning_curve(
    corpus: PreparedCorpus,
    variant: Variant | str = Variant.TWO_PLANE,
    config: TrainConfig = TrainConfig(),
    step: int = 10000,
    k: int = 10,
    measures: Sequence[Measure | str] = DEFAULT_MEASURES,
) -> LearningCurve:
    """Cross-validate growing time-ordered prefixes of the corpus.

    The corpus is made by :func:`prepare`, in time order, and each
    prefix is a view of its first rows.  Prefix sizes are ``step,
    2*step, ...`` up to the full corpus (the final point always covers
    the whole corpus, so it equals :func:`cross_validate` of ``corpus``).
    Prefixes smaller than ``k * (number of classes)`` or otherwise
    unsplittable are skipped with a logged notice and reported in
    ``skipped``; the others are cross-validated in one deal of their
    folds.  A bad ``k`` or ``step`` raises :class:`FoldPlanError`.
    """
    _check_count("k", k, 2, FoldPlanError)
    _check_count("step", step, 1, FoldPlanError)
    n = len(corpus.labels)
    kept: list[int] = []
    skipped: list[tuple[int, str]] = []
    for size in (*range(step, n, step), n):
        reason = f"prefix of {size} posts is smaller than k * 3 = {k * 3}" if size < k * 3 else None
        if reason is None:
            try:
                plan_folds(corpus.labels[:size], k)
                kept.append(size)
                continue
            except FoldPlanError as exc:
                reason = f"prefix of {size} posts cannot be split: {exc}"
        logger.info("skipping %s", reason)
        skipped.append((size, reason))
    results = _cross_validate([corpus.head(size) for size in kept], [variant], config, k, measures)
    points = [CurvePoint(size, result) for size, [result] in zip(kept, results)]
    return LearningCurve(points=tuple(points), skipped=tuple(skipped))
