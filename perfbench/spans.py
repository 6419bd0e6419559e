"""Span recorder for the traced benchmark run.

The tracer replaces the public functions through which ``sentagree.cli``
and ``sentagree.evaluation`` call into the other modules with wrappers
that record spans.  Nothing under ``src/`` changes: the wrappers are set
as module attributes around each traced round and removed after it.

A span has a name (``<module>.<function>``), a start, an end, the span
that was open when it started (its parent), its busy time and its call
count.  Hot leaf functions called once per document (``normalize``,
``count_vector``, per-fold ``compute_measure``) would record tens of
thousands of spans per round, so consecutive calls of the same leaf
under the same parent are merged into one span: ``start`` is the first
call's start, ``end`` the last call's end, ``busy`` the sum of the call
durations and ``calls`` their number.  Every self time below is computed
from ``busy``, so the caller's own work between merged calls is not
charged to the leaf.

Counters (records loaded, terms kept, nonzeros, epochs, ...) are taken
at the same boundaries, from each call's arguments and result, and are
stored on the span that made the call.  Spans stay in memory and are
written out once, by :meth:`Tracer.dump`, when the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "busy", "calls", "counters")

    def __init__(self, span_id: int, name: str, start: float, parent: int | None):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.busy = 0.0
        self.calls = 0
        self.counters: dict[str, float] = defaultdict(float)

    def as_list(self, origin: float) -> list:
        return [
            self.id, self.name, round(self.start - origin, 7), round(self.end - origin, 7),
            self.parent, round(self.busy, 7), self.calls, dict(self.counters),
        ]


class Tracer:
    """Records spans and counters around patched module functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.origin = time.perf_counter()
        self.distinct: dict[str, set] = defaultdict(set)  # reset per round
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- recording -----------------------------------------------------

    def _open(self, name: str, merge: bool) -> Span:
        parent = self._stack[-1].id if self._stack else None
        last = self.spans[-1] if self.spans else None
        if (
            merge
            and last is not None
            and last.name == name
            and last.parent == parent
            and (not self._stack or self._stack[-1] is not last)
        ):
            span = last
        else:
            span = Span(len(self.spans), name, time.perf_counter(), parent)
            self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span, started: float) -> None:
        span.end = time.perf_counter()
        span.busy += span.end - started
        span.calls += 1
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, count=None, merge: bool = False) -> None:
        """Record a span named ``name`` around ``module.attr``.

        ``count(counters, args, kwargs, result)`` adds the call's
        counters.  A missing entry point raises ``AttributeError``, so a
        renamed function fails the traced run instead of reading zero.
        """
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer._open(name, merge)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                if count is not None:
                    count(span.counters, args, kwargs, result)
                return result
            finally:
                tracer._close(span, started)

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def tally(self, module, attr: str, counter: str) -> None:
        """Count calls of ``module.attr`` on the enclosing span, without
        a span of its own."""
        original = getattr(module, attr)
        stack = self._stack

        @functools.wraps(original)
        def counted(*args, **kwargs):
            if stack:
                stack[-1].counters[counter] += 1
            return original(*args, **kwargs)

        setattr(module, attr, counted)
        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def dump(self, path: Path, meta: dict) -> None:
        payload = {
            **meta,
            "span_fields": ["id", "name", "start", "end", "parent", "busy", "calls", "counters"],
            "spans": [span.as_list(self.origin) for span in self.spans],
        }
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")


# --- what is traced -------------------------------------------------------------


def _records(counters, args, kwargs, result) -> None:
    counters["records"] += len(result)


def _undefined(counters, args, kwargs, result) -> None:
    counters["undefined_resamples"] += result.undefined_resamples


def _folds(counters, args, kwargs, result) -> None:
    counters["folds"] += result.k


def _vocab_terms(counters, args, kwargs, result) -> None:
    counters["terms"] += result.dim


def install(tracer: Tracer) -> None:
    """Wrap every entry point the benchmark attributes time to."""
    from sentagree import agreement, classify, cli, corpus, evaluation, ranking

    def texts(counters, args, kwargs, result) -> None:
        tracer.distinct["texts"].add(args[0])

    def vectors(counters, args, kwargs, result) -> None:
        counters["nnz"] += result.nnz
        tracer.distinct["token_docs"].add(tuple(args[0]))

    max_epochs = classify.TrainConfig().max_epochs

    def planes(counters, args, kwargs, result) -> None:
        config = args[2] if len(args) > 2 else kwargs.get("config")
        cap = config.max_epochs if config is not None else max_epochs
        rows = len(args[0])
        counters["rows"] += rows
        counters["epochs"] += result.epochs_run
        counters["coord_visits"] += rows * result.epochs_run
        counters["at_epoch_cap"] += result.epochs_run >= cap
        digest = hashlib.blake2b(result.weights.tobytes(), digest_size=16)
        digest.update(repr(result.bias).encode())
        tracer.distinct["planes"].add(digest.digest())

    tracer.wrap(cli, "main", "cli.main")
    for name in ("load_annotations", "load_gold"):
        tracer.wrap(corpus, name, f"corpus.{name}", count=_records)
    tracer.wrap(corpus, "extract_pairs", "corpus.extract_pairs")
    tracer.wrap(corpus, "merge_gold", "corpus.merge_gold")
    tracer.wrap(corpus, "save_gold", "corpus.save_gold")
    tracer.wrap(evaluation, "time_ordered_chunks", "corpus.time_ordered_chunks")

    tracer.wrap(agreement, "bootstrap_ci", "agreement.bootstrap_ci", count=_undefined)
    tracer.tally(agreement, "compute_measure", "measure_calls")
    tracer.wrap(agreement, "ordering_diagnostics", "agreement.ordering_diagnostics")

    tracer.wrap(evaluation, "normalize", "features.normalize", count=texts, merge=True)
    tracer.wrap(evaluation, "vocabulary_from_token_docs", "features.vocabulary_from_token_docs",
                count=_vocab_terms)
    tracer.wrap(evaluation, "count_vector", "features.count_vector", count=vectors, merge=True)

    tracer.wrap(evaluation, "train_sentiment", "classify.train_sentiment")
    tracer.wrap(classify, "train_binary", "classify.train_binary", count=planes)
    tracer.wrap(evaluation, "predict_batch", "classify.predict_batch")

    tracer.wrap(evaluation, "cross_validate", "evaluation.cross_validate", count=_folds)
    tracer.wrap(evaluation, "learning_curve", "evaluation.learning_curve")
    tracer.wrap(evaluation, "score_predictions", "evaluation.score_predictions")
    tracer.wrap(evaluation, "compute_measure", "evaluation.compute_measure", merge=True)

    tracer.wrap(ranking, "friedman", "ranking.friedman")
    tracer.wrap(ranking, "compare_ranks", "ranking.compare_ranks")


# --- per-layer metrics ----------------------------------------------------------

#: Per-layer metric name -> (unit, which direction is better); the traced
#: run reports exactly these.  Work counts are better lower, reuse ratios
#: (distinct items over items processed) better higher.
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "corpus.load_s": ("s", "lower"),
    "corpus.pairs_s": ("s", "lower"),
    "corpus.merge_s": ("s", "lower"),
    "corpus.records": ("count", "lower"),
    "agreement.bootstrap_s": ("s", "lower"),
    "agreement.ordering_s": ("s", "lower"),
    "agreement.resamples": ("count", "lower"),
    "agreement.undefined_resamples": ("count", "lower"),
    "agreement.us_per_resample": ("us", "lower"),
    "features.tokenize_s": ("s", "lower"),
    "features.vocab_s": ("s", "lower"),
    "features.vectorize_s": ("s", "lower"),
    "features.docs_tokenized": ("count", "lower"),
    "features.docs_vectorized": ("count", "lower"),
    "features.vocab_terms": ("count", "lower"),
    "features.nnz": ("count", "lower"),
    "features.tokenize_reuse": ("ratio", "higher"),
    "features.vectorize_reuse": ("ratio", "higher"),
    "classify.train_s": ("s", "lower"),
    "classify.solver_s": ("s", "lower"),
    "classify.plane_prep_s": ("s", "lower"),
    "classify.predict_s": ("s", "lower"),
    "classify.planes_trained": ("count", "lower"),
    "classify.planes_distinct": ("count", "lower"),
    "classify.plane_reuse": ("ratio", "higher"),
    "classify.epochs": ("count", "lower"),
    "classify.coord_visits": ("count", "lower"),
    "classify.planes_at_epoch_cap": ("count", "lower"),
    "classify.us_per_visit": ("us", "lower"),
    "evaluation.score_s": ("s", "lower"),
    "evaluation.folds": ("count", "lower"),
    "evaluation.self_s": ("s", "lower"),
    "ranking.friedman_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_times(spans: list[Span]) -> dict[str, float]:
    """Busy time minus the busy time of direct children, per span name."""
    child_busy: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_busy[span.parent] += span.busy
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        out[span.name] += span.busy - child_busy[span.id]
    return out


def round_metrics(spans: list[Span], distinct: dict[str, set]) -> dict[str, float]:
    """Per-layer metrics of one round, from that round's spans."""
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counters: dict[str, float] = defaultdict(float)
    for span in spans:
        busy[span.name] += span.busy
        calls[span.name] += span.calls
        layer = span.name.split(".", 1)[0]
        for key, value in span.counters.items():
            counters[f"{layer}.{key}"] += value
    own = self_times(spans)

    resamples = counters["agreement.measure_calls"] - calls["agreement.bootstrap_ci"]
    solver = busy["classify.train_binary"]
    train = busy["classify.train_sentiment"]
    trained = calls["classify.train_binary"]
    tokenized = calls["features.normalize"]
    vectorized = calls["features.count_vector"]
    return {
        "corpus.load_s": busy["corpus.load_annotations"] + busy["corpus.load_gold"],
        "corpus.pairs_s": busy["corpus.extract_pairs"],
        "corpus.merge_s": busy["corpus.merge_gold"] + busy["corpus.save_gold"],
        "corpus.records": counters["corpus.records"],
        "agreement.bootstrap_s": busy["agreement.bootstrap_ci"],
        "agreement.ordering_s": busy["agreement.ordering_diagnostics"],
        "agreement.resamples": resamples,
        "agreement.undefined_resamples": counters["agreement.undefined_resamples"],
        "agreement.us_per_resample": 1e6 * _ratio(busy["agreement.bootstrap_ci"], resamples),
        "features.tokenize_s": busy["features.normalize"],
        "features.vocab_s": busy["features.vocabulary_from_token_docs"],
        "features.vectorize_s": busy["features.count_vector"],
        "features.docs_tokenized": tokenized,
        "features.docs_vectorized": vectorized,
        "features.vocab_terms": counters["features.terms"],
        "features.nnz": counters["features.nnz"],
        "features.tokenize_reuse": _ratio(len(distinct["texts"]), tokenized),
        "features.vectorize_reuse": _ratio(len(distinct["token_docs"]), vectorized),
        "classify.train_s": train,
        "classify.solver_s": solver,
        "classify.plane_prep_s": train - solver,
        "classify.predict_s": busy["classify.predict_batch"],
        "classify.planes_trained": trained,
        "classify.planes_distinct": len(distinct["planes"]),
        "classify.plane_reuse": _ratio(len(distinct["planes"]), trained),
        "classify.epochs": counters["classify.epochs"],
        "classify.coord_visits": counters["classify.coord_visits"],
        "classify.planes_at_epoch_cap": counters["classify.at_epoch_cap"],
        "classify.us_per_visit": 1e6 * _ratio(solver, counters["classify.coord_visits"]),
        "evaluation.score_s": busy["evaluation.score_predictions"] + busy["evaluation.compute_measure"],
        "evaluation.folds": counters["evaluation.folds"],
        "evaluation.self_s": own["evaluation.cross_validate"] + own["evaluation.learning_curve"],
        "ranking.friedman_s": busy["ranking.friedman"] + busy["ranking.compare_ranks"],
        "cli.self_s": own["cli.main"],
    }


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer (the span name's module part)."""
    out: dict[str, float] = defaultdict(float)
    for name, value in self_times(spans).items():
        out[name.split(".", 1)[0]] += value
    return dict(out)


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
