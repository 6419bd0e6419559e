"""Linear-SVM sentiment classifiers over three ordinal classes.

The shared building block is a binary L1-hinge SVM trained in the dual
by coordinate descent.  The primal problem is

    min_w  1/2 ||w||^2 + C * sum_i max(0, 1 - y_i * (w . x_i + b))

with the bias handled as an appended constant feature of value 1 (and
therefore regularized).  The dual has one box-constrained variable per
example; a coordinate step on example ``i`` computes the projected
gradient of ``G = y_i * (w . x_i + b) - 1``, clips
``alpha_i - G / ||x~_i||^2`` into ``[0, C]``, and updates ``w``
incrementally.  Examples are visited in a freshly seeded random
permutation each epoch; training stops when the largest projected
gradient magnitude of an epoch falls below ``tol`` or after
``max_epochs``.  The dual objective ``sum(alpha) - ||w||^2 / 2`` is
recorded per epoch as a running sum of the steps' exact gains,
``d * (-G - ||x~_i||^2 * d / 2)`` for a step ``d`` of ``alpha_i``;
each gain is non-negative in floating point, so the recorded sequence
never decreases.

Every function here takes its examples as one
:class:`~sentagree.features.CountRows` block; a plane slices its rows
out of the block with ``select``, and its term weights scale the
stored ``values`` array in one numpy op (the row layout of LIBLINEAR).
``||x~_i||^2``, like every decision value ``w . x`` of prediction, is
summed sequentially per row with ``np.bincount``, not by a BLAS dot,
whose kernel varies by CPU.  The coordinate loop runs on plain Python
floats, not numpy: rows are lists of ``(index, value)`` pairs, ``w``
and ``alpha`` are lists and ``C`` is one float, because numpy's
per-call overhead dwarfs the arithmetic on rows of a few nonzeros.  ``w . x`` is summed left to right in an
explicit loop (not ``sum()``, which compensates since Python 3.12, nor
a BLAS dot), so a plane does not depend on the interpreter version.  A
coordinate at a bound whose gradient points out of its box has
projected gradient 0 and is skipped at once.  Each plane records
whether it converged and its last epoch's largest projected gradient;
a plane that stops at ``max_epochs`` without converging is logged at
DEBUG level with its sides.

Six multiclass architectures combine such planes.  Input rows are raw
term counts; every plane reweights them with class-ratio weights
computed from its own binary training split, and the learned plane
weights returned to the caller absorb that reweighting, so prediction
consumes raw count rows directly.

Prediction works on a block of rows: each plane's decision values
``w . x + b``, like the NaiveBayes log-likelihoods, are one sequential
sum per row of the block, and the variant's label rule maps them to
labels for all rows at once.  Training builds the bin and subspace
tables and tunes the neutral zone with the same rules, and
:func:`predict` is a block of one row.

``NeutralZoneSVM``    one negative-vs-positive plane; decision values
                      within a neutral zone around 0 predict neutral.
                      The zone half-width is tuned on a held-out 10%
                      validation split by maximizing interval alpha
                      against the gold labels.
``TwoPlaneSVM``       plane A separates negative from {neutral,
                      positive}, plane B separates {negative, neutral}
                      from positive; the side picked by both planes
                      wins and a contradiction is resolved by the
                      larger decision magnitude.
``TwoPlaneSVMbin``    the two planes index a (grid+2)^2 histogram over
                      their training decision values (one overflow bin
                      past each edge); a cell predicts its training
                      majority label with the cell's label share as
                      confidence, and empty cells fall back to the
                      geometric TwoPlaneSVM rule.
``CascadingSVM``      plane 1 separates neutral ("objective") from the
                      polar classes; only inputs it sends to the polar
                      side reach plane 2, so neutral is predicted
                      exactly when plane 1 says objective.
``ThreePlaneSVM``     all three one-vs-one planes; the sign triple of
                      the decision values indexes one of 8 subspaces
                      labeled by training majority, and an empty
                      subspace falls back to one-vs-one voting with
                      ties broken by summed decision magnitudes.
``NaiveBayes``        multinomial baseline on the raw counts with
                      add-1 smoothing and training-frequency priors.

A model is saved as one UTF-8 text file of ``key value ...`` lines
(format version 2): ``sentagree-model 2`` first, then ``variant``,
``dim`` and ``planes``; per plane ``plane``, ``bias`` and ``weights``;
the variant's table (``neutral_zone``; ``bin_grid``, ``edges_a``,
``edges_b``, ``bins`` and one ``bin i j`` line of three label counts
per filled cell; ``subspaces 8`` and ``subspace s`` lines; ``nb_docs``
and ``nb_counts c`` lines); and, for a model trained with its
vocabulary, ``n_docs``, ``min_df``, ``ngrams`` (comma-separated) and
``terms`` followed by one ``term<TAB>index<TAB>doc_freq`` row per term,
in index order.  Only term rows hold a tab.  Floats are written with
``repr`` and reload bit-exactly.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .agreement import _STACKED, Measure, _cells
from .corpus import SentimentLabel, _not_codes
from .errors import EvaluationError, ModelFormatError, VocabularyError, _check_count, _is_integer
from .features import CountRows, Vocabulary, delta_weights

__all__ = [
    "Variant",
    "TrainConfig",
    "LinearModel",
    "BinTable",
    "SubspaceTable",
    "NaiveBayesTable",
    "SentimentModel",
    "train_binary",
    "train_sentiment",
    "predict",
    "predict_batch",
    "save_model",
    "load_model",
]

logger = logging.getLogger(__name__)


class Variant(str, Enum):
    """The six classifier architectures."""

    NEUTRAL_ZONE = "NeutralZoneSVM"
    TWO_PLANE = "TwoPlaneSVM"
    TWO_PLANE_BIN = "TwoPlaneSVMbin"
    CASCADING = "CascadingSVM"
    THREE_PLANE = "ThreePlaneSVM"
    NAIVE_BAYES = "NaiveBayes"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters shared by all variants.

    ``bin_grid`` is the per-axis cell count of ``TwoPlaneSVMbin``, from
    1 to 1000 (its dense table holds ``(bin_grid + 2)**2 * 3`` counts,
    about 24 MB at 1000).  ``cost`` is the box bound ``C`` of every dual
    variable of every plane; it and ``tol`` must be positive and finite.
    ``max_epochs``, ``seed`` and ``bin_grid`` must be integers, Python's
    or numpy's (a bool or a float is not one), ``max_epochs`` positive
    and ``seed`` non-negative, as :func:`~sentagree.agreement.bootstrap_ci`
    checks its counts.
    """

    cost: float = 1.0
    tol: float = 1e-3
    max_epochs: int = 50
    seed: int = 0
    bin_grid: int = 10

    def __post_init__(self) -> None:
        # written so that nan fails too
        if not 0 < self.cost < math.inf:
            raise ValueError(f"cost must be positive and finite, got {self.cost}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        _check_count("max_epochs", self.max_epochs, 1)
        _check_count("seed", self.seed, 0)
        if not _is_integer(self.bin_grid):
            raise ValueError(f"bin_grid must be an integer, got {self.bin_grid!r}")
        if self.bin_grid < 1:
            raise ValueError(f"bin_grid must be >= 1, got {self.bin_grid}")
        if self.bin_grid > 1000:
            raise ValueError(f"bin_grid must be <= 1000, got {self.bin_grid}")


@dataclass(frozen=True)
class LinearModel:
    """A trained hyperplane: dense weights over the vocabulary plus bias.

    ``dual_objectives`` holds the dual objective after every epoch run,
    kept as a running sum of the coordinate steps' gains, each of which
    is non-negative, so the sequence is nondecreasing exactly.
    ``converged`` says whether the last epoch's largest projected-gradient
    magnitude, ``max_projected_gradient``, fell below ``tol``; both are
    ``None`` for a plane that was not trained here (a loaded model).
    """

    weights: np.ndarray
    bias: float
    dual_objectives: tuple[float, ...] = ()
    epochs_run: int = 0
    converged: bool | None = None
    max_projected_gradient: float | None = None


def _row_sums(rows: CountRows, tables: Sequence[np.ndarray]) -> np.ndarray:
    """``x . t`` for every row ``x`` of ``rows`` and every dense ``t`` of
    ``tables``, one row per table, each summed left to right over the
    row's entries."""
    row_of = rows.row_ids()
    return np.array([np.bincount(row_of, weights=rows.values * t[rows.indices], minlength=len(rows)) for t in tables])


def _decision_values(planes: Sequence[LinearModel], rows: CountRows) -> np.ndarray:
    """Decision values ``w . x + b``: one row per plane, one column per row."""
    return _row_sums(rows, [p.weights for p in planes]) + np.array([[p.bias] for p in planes])


def train_binary(
    rows: CountRows,
    y: Sequence[int],
    config: TrainConfig = TrainConfig(),
    term_weights: np.ndarray | None = None,
) -> LinearModel:
    """Train one binary plane by dual coordinate descent.

    ``y`` holds +1/-1 side labels, one per row; both sides must be
    present.  Every dual variable lies in ``[0, config.cost]``.
    ``term_weights``, if given, holds one finite weight per dimension:
    the plane is trained on the rows scaled term by term (coordinates
    whose product is 0 dropped), and the returned weights are
    multiplied by it, so they apply to the unscaled rows.  Training is
    a pure function of (data, config): the per-epoch visiting order
    comes from a generator seeded with ``config.seed``.
    """
    n = len(rows)
    if n == 0:
        raise EvaluationError("cannot train on an empty example set")
    y_arr = np.asarray(y, dtype=np.float64)
    if y_arr.shape != (n,) or not np.all(np.isin(y_arr, (-1.0, 1.0))):
        raise EvaluationError("side labels must be +1/-1, one per example")
    if np.all(y_arr == y_arr[0]):
        raise EvaluationError("cannot train a plane with a single class")
    dim = rows.dim
    if term_weights is not None:
        term_weights = np.asarray(term_weights, dtype=np.float64)
        if term_weights.shape != (dim,) or not np.isfinite(term_weights).all():
            raise EvaluationError(f"term weights must be {dim} finite values, one per dimension")
    bound = float(config.cost)

    # every row's pairs from the stored arrays; ||x~_i||^2 summed in order
    indices, values, row_of = rows.indices, rows.values, rows.row_ids()
    if term_weights is not None:
        values = values * term_weights[indices]
        keep = values != 0.0
        indices, values, row_of = indices[keep], values[keep], row_of[keep]
    q_diag = (np.bincount(row_of, weights=values * values, minlength=n) + 1.0).tolist()
    ends = np.cumsum(np.bincount(row_of, minlength=n)).tolist()
    pairs = list(zip(indices.tolist(), values.tolist()))
    pair_rows = [pairs[start:end] for start, end in zip([0] + ends[:-1], ends)]

    # plain Python floats from here on (see the module docstring)
    ys = y_arr.tolist()
    w = [0.0] * dim
    b = 0.0
    alphas = [0.0] * n
    gained = 0.0  # the dual objective, 0 at alpha = 0
    objectives: list[float] = []
    epochs_run = 0
    rng = np.random.default_rng(config.seed)

    for _ in range(config.max_epochs):
        worst = 0.0
        for i in rng.permutation(n).tolist():
            row = pair_rows[i]
            yi = ys[i]
            wx = 0.0
            for j, v in row:
                wx += v * w[j]
            grad = yi * (wx + b) - 1.0
            ai = alphas[i]
            # projected gradient 0: a bounded coordinate pushed out of its box
            if ai <= 0.0:
                if grad >= 0.0:
                    continue
            elif ai >= bound:
                if grad <= 0.0:
                    continue
            elif grad == 0.0:
                continue
            magnitude = -grad if grad < 0.0 else grad
            if magnitude > worst:
                worst = magnitude
            qi = q_diag[i]
            new_ai = ai - grad / qi
            if new_ai < 0.0:
                new_ai = 0.0
            if new_ai > bound:
                new_ai = bound
            d = new_ai - ai
            if d != 0.0:
                # the step's exact dual increase: d has the sign of -grad
                # and |d| <= |grad| / qi, so it is never negative
                gained += d * (-grad - 0.5 * qi * d)
                step = d * yi
                for j, v in row:
                    w[j] += step * v
                b += step
                alphas[i] = new_ai
        epochs_run += 1
        objectives.append(gained)
        if worst < config.tol:
            break

    weights = np.array(w)
    return LinearModel(
        weights=weights if term_weights is None else weights * term_weights,
        bias=float(b),
        dual_objectives=tuple(objectives),
        epochs_run=epochs_run,
        converged=worst < config.tol,
        max_projected_gradient=worst,
    )


@dataclass(frozen=True)
class BinTable:
    """Decision-value histogram of ``TwoPlaneSVMbin``.

    Each axis has ``grid`` equal-width cells spanning the training
    range plus one overflow cell on each side, indexed 0 (below) to
    ``grid + 1`` (above).  ``counts[i, j, c]`` is the number of
    training examples of label code ``c - 1`` that landed in cell
    ``(i, j)``.
    """

    grid: int
    edges_a: np.ndarray
    edges_b: np.ndarray
    counts: np.ndarray

    def cell(self, d_a: np.ndarray, d_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cell indices of decision values on both axes (arrays or scalars)."""
        cells = []
        for values, edges in ((d_a, self.edges_a), (d_b, self.edges_b)):
            # the top edge closes the last inner cell, which on a degenerate
            # axis (all training mass at one value) is cell 1
            top_cell = 1 if edges[0] == edges[-1] else self.grid
            cells.append(np.where(
                values < edges[-1],
                np.searchsorted(edges, values, side="right"),
                np.where(values == edges[-1], top_cell, self.grid + 1),
            ))
        return cells[0], cells[1]


@dataclass(frozen=True)
class SubspaceTable:
    """Sign-triple lookup of ``ThreePlaneSVM``.

    ``counts[s, c]`` counts training examples of label code ``c - 1``
    whose decision signs index subspace ``s`` (bit order: neg_vs_neu,
    neu_vs_pos, neg_vs_pos; a non-negative decision sets the bit).
    """

    counts: np.ndarray


@dataclass(frozen=True)
class NaiveBayesTable:
    """Sufficient statistics of the multinomial baseline (raw counts)."""

    doc_counts: np.ndarray
    term_counts: np.ndarray


@dataclass(frozen=True)
class SentimentModel:
    """A trained three-class sentiment classifier.

    ``planes`` maps plane names to hyperplanes whose weights already
    absorb the per-plane term reweighting, so prediction takes raw
    count rows.  ``vocab`` is the vocabulary the rows were counted
    against, saved with the model (``None`` when trained without one).
    """

    variant: Variant
    dim: int
    vocab: Vocabulary | None = None
    planes: dict[str, LinearModel] = field(default_factory=dict)
    neutral_zone: float | None = None
    bins: BinTable | None = None
    subspaces: SubspaceTable | None = None
    nb: NaiveBayesTable | None = None


_PLANE_SIDES: dict[Variant, dict[str, tuple[tuple[int, ...], tuple[int, ...]]]] = {
    Variant.NEUTRAL_ZONE: {"polarity": ((-1,), (1,))},
    Variant.TWO_PLANE: {"neg_vs_rest": ((-1,), (0, 1)), "rest_vs_pos": ((-1, 0), (1,))},
    Variant.TWO_PLANE_BIN: {"neg_vs_rest": ((-1,), (0, 1)), "rest_vs_pos": ((-1, 0), (1,))},
    Variant.CASCADING: {"subjectivity": ((0,), (-1, 1)), "polarity": ((-1,), (1,))},
    Variant.THREE_PLANE: {
        "neg_vs_neu": ((-1,), (0,)),
        "neu_vs_pos": ((0,), (1,)),
        "neg_vs_pos": ((-1,), (1,)),
    },
}


def _solves(variant: Variant, memo: dict[tuple, LinearModel]) -> bool:
    """Whether :func:`train_sentiment` of ``variant`` with ``memo`` trains a plane."""
    if variant is Variant.NEUTRAL_ZONE:  # its plane, trained on a validation subset, is never memoized
        return True
    return any(sides not in memo for sides in _PLANE_SIDES.get(variant, {}).values())


# --- label rules: decision values of a block of rows -> label codes ----------


def _zone_labels(values: np.ndarray, zone: float) -> np.ndarray:
    return np.where(np.abs(values) <= zone, 0, np.where(values > 0, 1, -1))


def _two_plane_labels(d_a: np.ndarray, d_b: np.ndarray) -> np.ndarray:
    """Plane A's negative side predicts negative, plane B's positive side
    positive, the middle region neutral; in the contradictory corner the
    plane with the larger decision magnitude wins (ties: negative)."""
    says_neg, says_pos = d_a < 0.0, d_b > 0.0
    corner = np.where(np.abs(d_a) >= np.abs(d_b), -1, 1)
    return np.where(says_neg & says_pos, corner, says_pos.astype(np.int64) - says_neg)


def _table_majority(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Majority code (ties: the smaller) and its share for each row of
    label counts; the share is NaN for a row without training mass."""
    totals = counts.sum(axis=1)
    share = np.divide(counts.max(axis=1), totals, out=np.full(totals.shape, np.nan), where=totals > 0)
    return counts.argmax(axis=1) - 1, share


def _subspace_index(values: np.ndarray) -> np.ndarray:
    signs = values >= 0.0
    return signs[0] * 4 + signs[1] * 2 + signs[2]


def _vote_labels(values: np.ndarray) -> np.ndarray:
    """One-vs-one voting: each plane backs one class with its magnitude;
    most votes win, then the larger summed magnitude, then the smaller code."""
    backing = np.where(values >= 0.0, [[0], [1], [1]], [[-1], [0], [-1]])  # each plane's two sides
    votes = np.stack([(backing == code).sum(axis=0) for code in (-1, 0, 1)])
    mass = np.stack([np.where(backing == code, np.abs(values), 0.0).sum(axis=0) for code in (-1, 0, 1)])
    mass[votes < votes.max(axis=0)] = -np.inf
    return mass.argmax(axis=0) - 1


def _predict_block(model: SentimentModel, rows: CountRows) -> tuple[np.ndarray, np.ndarray]:
    """Label codes and confidences (NaN where the variant defines none)."""
    if rows.dim != model.dim:
        raise EvaluationError(f"row dimension {rows.dim} != model dimension {model.dim}")
    variant = model.variant
    if variant is Variant.NAIVE_BAYES:
        nb = model.nb
        n_docs = nb.doc_counts.sum()
        if n_docs == 0:
            raise EvaluationError("NaiveBayes model has no training mass")
        # add-1 smoothed log term probabilities, once for the whole block
        log_theta = np.log((nb.term_counts + 1.0) / (nb.term_counts.sum(axis=1, keepdims=True) + model.dim))
        log_post = np.log(nb.doc_counts / n_docs) + _row_sums(rows, log_theta).T
        probs = np.exp(log_post - log_post.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        best = probs.argmax(axis=1)
        return best - 1, probs[np.arange(best.size), best]

    values = _decision_values([model.planes[name] for name in _PLANE_SIDES[variant]], rows)
    no_confidence = np.full(len(rows), np.nan)
    if variant is Variant.NEUTRAL_ZONE:
        return _zone_labels(values[0], model.neutral_zone or 0.0), no_confidence
    if variant is Variant.CASCADING:  # neutral exactly when plane 1 says objective
        return np.where(values[0] <= 0.0, 0, np.where(values[1] >= 0.0, 1, -1)), no_confidence
    if variant is Variant.THREE_PLANE:
        codes, share = _table_majority(model.subspaces.counts[_subspace_index(values)])
        return np.where(np.isnan(share), _vote_labels(values), codes), no_confidence
    codes = _two_plane_labels(values[0], values[1])
    if variant is Variant.TWO_PLANE_BIN:
        cell_codes, share = _table_majority(model.bins.counts[model.bins.cell(values[0], values[1])])
        return np.where(np.isnan(share), codes, cell_codes), share
    return codes, no_confidence


def _train_plane(
    rows: CountRows,
    labels: np.ndarray,
    neg_side: tuple[int, ...],
    pos_side: tuple[int, ...],
    config: TrainConfig,
) -> LinearModel:
    """Train one binary plane on its label subset with its own weights.

    The raw count rows of the plane's examples go to
    :func:`train_binary` with the class-ratio weights computed from this
    plane's split as ``term_weights``; the returned plane carries those
    weights in ``weights``, so its decision function applies to raw
    count rows.
    """
    members = np.flatnonzero(np.isin(labels, neg_side + pos_side))
    if members.size == 0:
        raise EvaluationError(f"no examples for plane {neg_side} vs {pos_side}")
    plane_rows = rows.select(members)
    positive = np.isin(labels[members], pos_side)
    gamma = delta_weights(plane_rows, positive)
    model = train_binary(plane_rows, np.where(positive, 1.0, -1.0), config, term_weights=gamma)
    if not model.converged:
        logger.debug(
            "plane %s vs %s stopped at max_epochs=%d without converging (max projected gradient %.3g)",
            neg_side, pos_side, model.epochs_run, model.max_projected_gradient,
        )
    return model


def _validation_split(labels: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded stratified 10% split; classes with one example stay in training."""
    rng = np.random.default_rng((seed, len(labels)))
    val: list[np.ndarray] = []
    for code in (-1, 0, 1):
        members = np.flatnonzero(labels == code)
        if members.size < 2:
            continue
        take = max(1, int(round(0.1 * members.size)))
        take = min(take, members.size - 1)
        val.append(rng.permutation(members)[:take])
    val_idx = np.sort(np.concatenate(val)) if val else np.empty(0, dtype=np.intp)
    mask = np.ones(labels.size, dtype=bool)
    mask[val_idx] = False
    return np.flatnonzero(mask), val_idx


def _tune_neutral_zone(
    rows: CountRows,
    labels: np.ndarray,
    config: TrainConfig,
) -> tuple[float, LinearModel]:
    """Pick the neutral-zone half-width maximizing interval alpha on a
    held-out split; ties prefer the narrower zone."""
    train_idx, val_idx = _validation_split(labels, config.seed)
    plane = _train_plane(rows.select(train_idx), labels[train_idx], (-1,), (1,), config)
    values = _decision_values([plane], rows.select(val_idx))[0]
    candidates = np.unique(np.concatenate(([0.0], np.abs(values))))
    if candidates.size > 200:
        candidates = np.unique(np.quantile(candidates, np.linspace(0.0, 1.0, 201)))
    # one (3, 3) block of one-sided counts per candidate, all from one bincount
    cells = _cells(_zone_labels(values, candidates[:, None]), labels[val_idx])
    cells += 9 * np.arange(candidates.size)[:, None]
    one_sided = np.bincount(cells.ravel(), minlength=9 * candidates.size).reshape(-1, 3, 3)
    scores, why = _STACKED[Measure.ALPHA_INTERVAL](one_sided + one_sided.transpose(0, 2, 1))
    defined = np.flatnonzero(why == 0)
    if not defined.size:
        return 0.0, plane
    return float(candidates[defined[scores[defined].argmax()]]), plane  # the first maximum: the narrowest zone


def train_sentiment(
    rows: CountRows,
    labels: Sequence[SentimentLabel | int],
    variant: Variant | str = Variant.TWO_PLANE,
    config: TrainConfig = TrainConfig(),
    vocab: Vocabulary | None = None,
    memo: dict[tuple, LinearModel] | None = None,
) -> SentimentModel:
    """Train one classifier variant on raw count rows.

    ``labels`` holds one code of -1, 0 or +1 per row (checked before
    any cast, so 1.7 is no code), and all three classes must appear.
    ``vocab``, the vocabulary of the rows' ``dim`` columns, is kept on
    the model, which then saves with it.  ``memo``, if given, maps
    (negative side, positive side) to a plane trained on these rows,
    labels and config; a plane found there is reused and each plane
    trained is added.  ``NeutralZoneSVM``
    trains its plane on a validation subset and never uses it.
    """
    variant = Variant(variant)
    if not len(rows):
        raise EvaluationError("cannot train on an empty corpus")
    label_arr = np.asarray(labels)
    if label_arr.shape != (len(rows),):
        raise EvaluationError("rows and labels differ in length")
    if (bad := label_arr[_not_codes(label_arr)]).size:
        raise EvaluationError(f"label code {bad[0]} is not -1, 0 or +1")
    label_arr = label_arr.astype(np.int64)
    if vocab is not None and vocab.dim != rows.dim:
        raise EvaluationError(f"vocabulary of {vocab.dim} terms for rows of dimension {rows.dim}")
    missing = [c for c in (-1, 0, 1) if not np.any(label_arr == c)]
    if missing:
        raise EvaluationError(f"training data is missing class(es) {missing}")
    dim = rows.dim
    base = dict(variant=variant, dim=dim, vocab=vocab)

    if variant is Variant.NAIVE_BAYES:
        term_counts = np.zeros((3, dim), dtype=np.float64)
        np.add.at(term_counts, (label_arr[rows.row_ids()] + 1, rows.indices), rows.values)
        return SentimentModel(nb=NaiveBayesTable(np.bincount(label_arr + 1, minlength=3), term_counts), **base)

    if variant is Variant.NEUTRAL_ZONE:
        zone, plane = _tune_neutral_zone(rows, label_arr, config)
        return SentimentModel(planes={"polarity": plane}, neutral_zone=zone, **base)

    memo = {} if memo is None else memo
    planes = {}
    for name, sides in _PLANE_SIDES[variant].items():
        if sides not in memo:
            memo[sides] = _train_plane(rows, label_arr, *sides, config)
        planes[name] = memo[sides]
    if variant is Variant.TWO_PLANE_BIN:
        d_a, d_b = _decision_values(list(planes.values()), rows)
        grid = config.bin_grid
        bins = BinTable(
            grid=grid,
            edges_a=np.linspace(d_a.min(), d_a.max(), grid + 1),
            edges_b=np.linspace(d_b.min(), d_b.max(), grid + 1),
            counts=np.zeros((grid + 2, grid + 2, 3), dtype=np.int64),
        )
        np.add.at(bins.counts, (*bins.cell(d_a, d_b), label_arr + 1), 1)
        return SentimentModel(planes=planes, bins=bins, **base)
    if variant is Variant.THREE_PLANE:
        counts = np.zeros((8, 3), dtype=np.int64)
        values = _decision_values(list(planes.values()), rows)
        np.add.at(counts, (_subspace_index(values), label_arr + 1), 1)
        return SentimentModel(planes=planes, subspaces=SubspaceTable(counts), **base)
    return SentimentModel(planes=planes, **base)


def predict(model: SentimentModel, x: CountRows) -> tuple[SentimentLabel, float | None]:
    """Predict the label of a one-row ``x``; the second element is a
    confidence when the variant defines one (bin label share, posterior
    probability)."""
    if len(x) != 1:
        raise EvaluationError(f"predict takes one row, got {len(x)}")
    codes, confidence = _predict_block(model, x)
    share = float(confidence[0])
    return SentimentLabel(int(codes[0])), None if np.isnan(share) else share


def predict_batch(model: SentimentModel, rows: CountRows) -> np.ndarray:
    """Predicted label codes of every row, as one block."""
    return _predict_block(model, rows)[0].astype(np.int64, copy=False)


# --- serialization ----------------------------------------------------------

_MODEL_MAGIC = "sentagree-model"
_MODEL_VERSION = 2
#: The keys of a saved vocabulary's lines; its terms are the tab-separated rows.
_VOCAB_KEYS = {"n_docs", "min_df", "ngrams", "terms"}


def _fmt_floats(values: np.ndarray) -> str:
    return " ".join(repr(float(v)) for v in values)


def save_model(model: SentimentModel, path: str | Path) -> None:
    """Write a model, and its vocabulary if it has one, as one versioned
    text file (layout in the module docstring).  A term holding a tab or
    a line break raises :class:`VocabularyError` before anything is written.
    """
    vocab = model.vocab
    for term in vocab.terms if vocab is not None else ():
        if "\t" in term or "".join(term.splitlines()) != term:
            raise VocabularyError(f"term {term!r} contains a delimiter character")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"{_MODEL_MAGIC} {_MODEL_VERSION}\n")
        handle.write(f"variant {model.variant.value}\n")
        handle.write(f"dim {model.dim}\n")
        handle.write(f"planes {len(model.planes)}\n")
        for name in sorted(model.planes):
            plane = model.planes[name]
            handle.write(f"plane {name}\n")
            handle.write(f"bias {float(plane.bias)!r}\n")
            handle.write("weights " + _fmt_floats(plane.weights) + "\n")
        if model.neutral_zone is not None:
            handle.write(f"neutral_zone {float(model.neutral_zone)!r}\n")
        if model.bins is not None:
            bins = model.bins
            handle.write(f"bin_grid {bins.grid}\n")
            handle.write("edges_a " + _fmt_floats(bins.edges_a) + "\n")
            handle.write("edges_b " + _fmt_floats(bins.edges_b) + "\n")
            filled = np.argwhere(bins.counts.sum(axis=2) > 0)
            handle.write(f"bins {len(filled)}\n")
            for i, j in filled:
                c = bins.counts[i, j]
                handle.write(f"bin {i} {j} {c[0]} {c[1]} {c[2]}\n")
        if model.subspaces is not None:
            handle.write("subspaces 8\n")
            for idx in range(8):
                c = model.subspaces.counts[idx]
                handle.write(f"subspace {idx} {c[0]} {c[1]} {c[2]}\n")
        if model.nb is not None:
            nb = model.nb
            handle.write("nb_docs " + " ".join(str(int(c)) for c in nb.doc_counts) + "\n")
            for c in range(3):
                handle.write(f"nb_counts {c} " + _fmt_floats(nb.term_counts[c]) + "\n")
        if vocab is not None:
            ngrams = ",".join(map(str, vocab.ngrams))
            handle.write(f"n_docs {vocab.n_docs}\nmin_df {vocab.min_df}\nngrams {ngrams}\nterms {vocab.dim}\n")
            for i, (term, df) in enumerate(zip(vocab.terms, vocab.doc_freq.tolist())):
                handle.write(f"{term}\t{i}\t{df}\n")


#: The calibration table each variant needs: its model field and line keys.
_VARIANT_TABLE = {
    Variant.NEUTRAL_ZONE: ("neutral_zone", {"neutral_zone"}),
    Variant.TWO_PLANE_BIN: ("bins", {"bin_grid", "edges_a", "edges_b", "bins", "bin"}),
    Variant.THREE_PLANE: ("subspaces", {"subspaces", "subspace"}),
    Variant.NAIVE_BAYES: ("nb", {"nb_docs", "nb_counts"}),
}


def _counts(values, shape: tuple[int, ...]) -> np.ndarray:
    counts = np.array(values)  # integers past 64 bits make an object array
    if counts.dtype == object or counts.shape != shape or not np.all((counts >= 0) & (counts < math.inf)):
        raise ValueError(f"expected finite non-negative 64-bit counts of shape {shape}")
    return counts


class _KeyedLines:
    """The lines after a model file's first line: a line holding a tab is
    a row of tab-separated fields, any other is ``key value ...``, split
    at its first space.  Lookups raise ``ValueError``."""

    def __init__(self, lines: list[str]) -> None:
        self.fields: dict[str, list[str]] = {}
        self.tab_rows = [line.split("\t") for line in lines if "\t" in line]
        for key, _, value in (line.partition(" ") for line in lines if "\t" not in line):
            self.fields.setdefault(key, []).append(value)

    def rows(self, key: str, kind: type = str) -> list[list]:
        return [[kind(v) for v in value.split()] for value in self.fields.get(key, [])]

    def one(self, key: str, kind: type = str):
        values = self.rows(key, kind)
        if [len(row) for row in values] != [1]:
            raise ValueError(f"expected one {key!r} line with one value")
        return values[0][0]


def _parse_vocabulary(keyed: _KeyedLines, dim: int) -> Vocabulary | None:
    """The vocabulary block of a model file, ``None`` if it has none; it
    must hold all four keyed lines and ``dim`` term rows in index order."""
    terms, one = keyed.tab_rows, keyed.one
    if not (terms or _VOCAB_KEYS & set(keyed.fields)):
        return None
    if not one("terms", int) == len(terms) == dim:
        raise ValueError(f"a vocabulary needs terms {dim} and {dim} term rows, one per dimension")
    if [int(idx) for _, idx, _ in terms] != list(range(dim)):
        raise ValueError("term indices out of order")
    return Vocabulary(
        terms=tuple(term for term, _, _ in terms),
        doc_freq=[int(df) for _, _, df in terms],
        n_docs=one("n_docs", int),
        min_df=one("min_df", int),
        ngrams=tuple(int(n) for n in one("ngrams").split(",")),
    )


def _parse_model(keyed: _KeyedLines) -> SentimentModel:
    """Parse the keyed lines of a model file and check that they hold
    exactly the planes and the table of its variant, in range, and at
    most one vocabulary.

    Every fault raises ``ValueError`` or ``OverflowError``.
    """
    fields, rows, one = keyed.fields, keyed.rows, keyed.one
    variant, dim = one("variant", Variant), one("dim", int)
    table, table_keys = _VARIANT_TABLE.get(variant, (None, set()))
    stray = set(fields) - {"variant", "dim", "planes", "plane", "bias", "weights"} - _VOCAB_KEYS - table_keys
    if stray or (table and not table_keys & set(fields)):
        raise ValueError(f"a {variant.value} model needs table {table}, found {sorted(stray) or 'none'}")
    names, biases, weights = [name for name, in rows("plane")], rows("bias", float), rows("weights", float)
    needed = sorted(_PLANE_SIDES.get(variant, {}))
    if sorted(names) != needed or not one("planes", int) == len(names) == len(biases) == len(weights):
        raise ValueError(f"{variant.value} needs planes {needed}, found {sorted(names)}")
    planes: dict[str, LinearModel] = {}
    for name, (bias,), values in zip(names, biases, weights):
        if len(values) != dim or not np.all(np.isfinite([bias, *values])):
            raise ValueError(f"plane {name} needs {dim} finite weights")
        planes[name] = LinearModel(weights=np.array(values), bias=bias)

    tables: dict[str, object] = {}
    if table == "neutral_zone":
        zone = one("neutral_zone", float)
        if not 0.0 <= zone < math.inf:  # written so that nan fails too
            raise ValueError(f"neutral_zone must be non-negative and finite, got {zone}")
        tables[table] = zone
    elif table == "bins":
        grid, cells = one("bin_grid", int), rows("bin", int)
        (edges_a,), (edges_b,) = rows("edges_a", float), rows("edges_b", float)
        if grid < 1 or not len(edges_a) == len(edges_b) == grid + 1 or one("bins", int) != len(cells):
            raise ValueError(f"bin table does not fit a grid of {grid}")
        counts = np.zeros((grid + 2, grid + 2, 3), dtype=np.int64)
        for i, j, *cell in cells:
            if not (0 <= i <= grid + 1 and 0 <= j <= grid + 1):
                raise ValueError(f"bin ({i}, {j}) is outside a grid of {grid}")
            counts[i, j] = cell
        tables[table] = BinTable(grid, np.array(edges_a), np.array(edges_b), _counts(counts, counts.shape))
    elif table == "subspaces":
        cells = rows("subspace", int)
        if one("subspaces", int) != 8 or [cell[:1] for cell in cells] != [[k] for k in range(8)]:
            raise ValueError("expected subspaces 0..7 in order")
        tables[table] = SubspaceTable(_counts([cell[1:] for cell in cells], (8, 3)))
    elif table == "nb":
        (docs,), terms = rows("nb_docs", int), rows("nb_counts", float)
        if [row[:1] for row in terms] != [[0], [1], [2]]:
            raise ValueError("expected nb_counts 0..2 in order")
        docs = _counts(docs, (3,))
        if not docs.all():  # as training, which refuses a missing class
            raise ValueError(f"nb_docs needs a document of every class, got {' '.join(map(str, docs))}")
        tables[table] = NaiveBayesTable(docs, _counts([row[1:] for row in terms], (3, dim)))
    return SentimentModel(variant=variant, dim=dim, vocab=_parse_vocabulary(keyed, dim), planes=planes, **tables)


def load_model(path: str | Path) -> SentimentModel:
    """Read a model written by :func:`save_model`, with its vocabulary
    (``None`` for a model saved without one).

    Bytes that are not UTF-8, another first line or format version, and
    a file that does not hold exactly its variant's planes and table, in
    range, and a vocabulary of ``dim`` terms if any, raise
    :class:`ModelFormatError`; I/O errors propagate unchanged.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            first, *lines = handle.read().splitlines() or [""]
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{path}: not UTF-8 text (cannot decode byte 0x{exc.object[exc.start]:02x})") from None
    if not first.startswith(_MODEL_MAGIC):
        raise ModelFormatError(f"{path}: not a model file")
    if (found := first.removeprefix(_MODEL_MAGIC).strip()) != str(_MODEL_VERSION):
        raise ModelFormatError(f"{path}: unsupported model version {found!r}")
    try:
        return _parse_model(_KeyedLines(lines))
    except (ValueError, OverflowError) as exc:
        raise ModelFormatError(f"{path}: malformed model file ({exc})") from None
