"""Chance-corrected agreement measures over label-pair coincidence matrices.

All measures in this module are computed from a single data structure,
the 3x3 *coincidence matrix* over the ordinal label codes (-1, 0, +1).
Every unordered label pair ``(a, b)`` drawn from the same post is
entered twice, once as ``(a, b)`` and once as ``(b, a)``, so the matrix
is symmetric by construction, its total mass ``N`` equals twice the
number of pairs, and a pair of equal labels adds 2 to a diagonal cell.
Real-valued (weighted) counts are permitted.

The reliability coefficient is ``alpha = 1 - Do/De`` with

* observed disagreement   ``Do = (1/N) * sum_cc' counts(c, c') * delta2(c, c')``
* expected disagreement   ``De = (1/(N*(N-1))) * sum_cc' N(c) * N(c') * delta2(c, c')``

where ``N(c)`` is the marginal mass of label ``c``.  Two distance
metrics are supported: *nominal* (``delta2 = 1`` iff the labels differ)
and *interval* on the codes (``delta2 = (a - b)**2``), which penalizes
a negative/positive confusion four times as heavily as a confusion
between a polar label and neutral.

Companion measures on the same matrix: observed agreement
(``accuracy``), agreement within one scale point (``acc_within_1``),
and ``f1_bar``, the mean of the one-vs-rest F1 scores of the two polar
classes (for a symmetric matrix ``F1(c)`` reduces to
``counts(c, c) / N(c)``).

Measures that are undefined on a degenerate matrix (for example alpha
when fewer than two labels carry mass, or ``f1_bar`` when a polar class
is absent) raise :class:`UndefinedMeasureError` instead of returning a
sentinel value.

Each measure's arithmetic is written once, over a ``(..., 3, 3)`` stack
of count matrices, so the single-matrix functions and the percentile
bootstrap share it.  :func:`bootstrap_ci` resamples the nine cells of a
pair set, not its pairs: ``n`` pairs drawn with replacement and counted
by cell are Multinomial(``n``, ``c / n``) over the set's cell counts
``c`` (the multinomial form of the nonparametric bootstrap; Efron &
Tibshirani, *An Introduction to the Bootstrap*, 1993), so one
multinomial call draws every resample's counts, and a measure is
evaluated on all of them in one vectorized pass.  The counts are whole
numbers, so the stacked results are bit-identical to evaluating one
matrix at a time.

Each decision on the way from label pairs to a measure is written once
too: :func:`_cells` checks and encodes every pair of codes, annotator
pairs and (prediction, gold) pairs alike, and :func:`compute_measure`
evaluates any measure on one matrix, turning a stack function's nonzero
code into the measure's one reason it is undefined.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _EXPORTS
from .corpus import PairTable, SentimentLabel, _not_codes
from .errors import UndefinedMeasureError, _check_count

__all__ = _EXPORTS["agreement"].split()

#: Fixed label order of matrix axes; label code -1 maps to index 0.
LABEL_ORDER: tuple[int, int, int] = (-1, 0, 1)

_CODES = np.array(LABEL_ORDER, dtype=np.float64)
#: Squared distances between label codes under the two metrics.
DELTA2_INTERVAL = (_CODES[:, None] - _CODES[None, :]) ** 2
DELTA2_NOMINAL = (DELTA2_INTERVAL > 0).astype(np.float64)


class Measure(str, Enum):
    """Agreement/performance measures computable from a coincidence matrix."""

    ALPHA_NOMINAL = "alpha_nominal"
    ALPHA_INTERVAL = "alpha_interval"
    F1_BAR = "f1_bar"
    ACCURACY = "accuracy"
    ACC_WITHIN_1 = "acc_within_1"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class CoincidenceMatrix:
    """Symmetric 3x3 matrix of label-pair coincidences.

    Attributes
    ----------
    counts:
        ``(3, 3)`` float array indexed by ``label code + 1`` on both
        axes.  Must be symmetric, finite, and non-negative; counts may
        be real-valued.
    """

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.float64)
        if counts.shape != (3, 3):
            raise ValueError(f"coincidence matrix must be 3x3, got shape {counts.shape}")
        if not np.all(np.isfinite(counts)):
            raise ValueError("coincidence matrix contains non-finite counts")
        if np.any(counts < 0):
            raise ValueError("coincidence matrix contains negative counts")
        if not np.allclose(counts, counts.T):
            raise ValueError("coincidence matrix must be symmetric")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> float:
        """Total mass ``N`` (twice the number of pairs entered)."""
        return float(self.counts.sum())

    @property
    def marginals(self) -> np.ndarray:
        """Label masses ``N(c)`` in :data:`LABEL_ORDER`."""
        return self.counts.sum(axis=1)


def _cells(first: object, second: object) -> np.ndarray:
    """Flat cell indices of two broadcast arrays of label codes; the
    first pair with a code that is not exactly -1, 0 or +1 (1.0 is +1,
    1.5 is no code) raises :class:`ValueError`.  The codes are checked
    before they are cast, so no cast can round or overflow one into range."""
    first, second = np.broadcast_arrays(np.asarray(first), np.asarray(second))
    outside = _not_codes(first) | _not_codes(second)
    if outside.any():
        at = int(outside.argmax())
        raise ValueError(f"pair ({first.flat[at]}, {second.flat[at]}) is outside the label codes -1/0/+1")
    return (first.astype(np.intp) + 1) * 3 + (second.astype(np.intp) + 1)


def pair_cells(pairs: PairTable | Iterable[tuple[int, int]]) -> np.ndarray:
    """Map pairs to flat cell indices ``(first+1)*3 + (second+1)``.

    The ``bincount`` of the flat cells is what :func:`bootstrap_ci`
    resamples.  A :class:`~sentagree.corpus.PairTable` is mapped from
    its code columns, pairs of codes from one array of them.
    """
    if isinstance(pairs, PairTable):
        return _cells(pairs.first, pairs.second)
    first, second = np.array([(p[0], p[1]) for p in pairs], dtype=object).reshape(-1, 2).T
    return _cells(first, second)


def matrix_from_cells(cells: np.ndarray) -> CoincidenceMatrix:
    """Build the double-entry coincidence matrix from flat cell indices."""
    one_sided = np.bincount(cells, minlength=9).reshape(3, 3).astype(np.float64)
    return CoincidenceMatrix(one_sided + one_sided.T)


def build_coincidence(pairs: PairTable | Iterable[tuple[int, int]]) -> CoincidenceMatrix:
    """Accumulate label pairs into a coincidence matrix.

    Every pair is entered in both orders, so equal-label pairs
    contribute 2 to a diagonal cell and the result is symmetric no
    matter how the input pairs are oriented or ordered.
    """
    return matrix_from_cells(pair_cells(pairs))


# Each ``_*_stack`` function evaluates one measure over a ``(..., 3, 3)``
# count stack and returns the values with a code per matrix that is 0
# where the measure is defined: :func:`compute_measure` turns a nonzero
# code into its reason, and the bootstrap retries those draws.


def _alpha_stack(counts: np.ndarray, delta2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``1 - Do/De``; code 1 where ``N <= 1``, 2 where ``De`` is zero."""
    total = counts.sum(axis=(-2, -1))
    marginals = counts.sum(axis=-1)
    expected = marginals[..., :, None] * marginals[..., None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        d_obs = (counts * delta2).sum(axis=(-2, -1)) / total
        d_exp = (expected * delta2).sum(axis=(-2, -1)) / (total * (total - 1.0))
        values = 1.0 - d_obs / d_exp
    return values, np.where(total <= 1.0, 1, np.where(d_exp <= 0.0, 2, 0))


def _accuracy_stack(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal mass over total mass; code 1 on an empty matrix."""
    total = counts.sum(axis=(-2, -1))
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.trace(counts, axis1=-2, axis2=-1) / total
    return values, total <= 0.0


def _acc_within_1_stack(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One minus the corner-cell share; code 1 on an empty matrix."""
    total = counts.sum(axis=(-2, -1))
    with np.errstate(divide="ignore", invalid="ignore"):
        values = 1.0 - (counts[..., 0, 2] + counts[..., 2, 0]) / total
    return values, total <= 0.0


def _f1_bar_stack(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean of ``counts(c, c) / N(c)`` over the polar classes; code 1
    where either polar class has no mass."""
    marginals = counts.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        f1_neg = counts[..., 0, 0] / marginals[..., 0]
        f1_pos = counts[..., 2, 2] / marginals[..., 2]
    return 0.5 * (f1_neg + f1_pos), (marginals[..., 0] <= 0.0) | (marginals[..., 2] <= 0.0)


_STACKED = {
    Measure.ALPHA_NOMINAL: lambda counts: _alpha_stack(counts, DELTA2_NOMINAL),
    Measure.ALPHA_INTERVAL: lambda counts: _alpha_stack(counts, DELTA2_INTERVAL),
    Measure.F1_BAR: _f1_bar_stack,
    Measure.ACCURACY: _accuracy_stack,
    Measure.ACC_WITHIN_1: _acc_within_1_stack,
}


#: Why each measure is undefined, by the nonzero code of its stack function;
#: formatted with the matrix's total mass and its polar marginals.
_ALPHA_UNDEFINED = {
    1: "alpha needs total mass > 1, got N = {total:g}",
    2: "alpha is undefined: expected disagreement is zero (fewer than two labels carry mass)",
}
_UNDEFINED = {
    Measure.ALPHA_NOMINAL: _ALPHA_UNDEFINED,
    Measure.ALPHA_INTERVAL: _ALPHA_UNDEFINED,
    Measure.F1_BAR: {1: "f1_bar is undefined: a polar class has no mass (N(-) = {neg:g}, N(+) = {pos:g})"},
    Measure.ACCURACY: {1: "accuracy is undefined on an empty matrix"},
    Measure.ACC_WITHIN_1: {1: "acc_within_1 is undefined on an empty matrix"},
}


def compute_measure(matrix: CoincidenceMatrix, measure: Measure | str) -> float:
    """Evaluate one :class:`Measure` on a coincidence matrix, or raise
    :class:`UndefinedMeasureError` saying why it is undefined there."""
    measure = Measure(measure)
    value, why = _STACKED[measure](matrix.counts)
    if why:
        neg, _, pos = matrix.marginals
        raise UndefinedMeasureError(_UNDEFINED[measure][int(why)].format(total=matrix.total, neg=neg, pos=pos))
    return float(value)


@dataclass(frozen=True)
class ConfidenceInterval:
    """Percentile bootstrap 95% interval for one measure on one pair set.

    ``undefined_resamples`` counts bootstrap draws that stayed undefined
    after the per-slot retry budget and were excluded from the
    percentiles.  The interval always contains the point estimate.
    """

    point: float
    low: float
    high: float
    samples: int
    undefined_resamples: int = 0


def _resample(rng: np.random.Generator, counts: np.ndarray, size: int | None = None) -> np.ndarray:
    """One-sided ``(3, 3)`` counts of a resample of the pair set whose
    nine cells hold ``counts``, or a ``(size, 3, 3)`` stack of them.

    Only the cells that hold a pair are drawn, so the last of them takes
    what is left.  Over all nine, numpy would draw the last held cell
    with its probability over a running remainder that rounding leaves
    just above it (a ratio as low as ``1 - 2e-14``), and the pairs it
    missed would land in the ninth cell although no pair is there.
    """
    held = np.flatnonzero(counts)
    n = int(counts.sum())
    shape = (9,) if size is None else (size, 9)
    draws = np.zeros(shape)
    draws[..., held] = rng.multinomial(n, counts[held] / n, size=size)
    return draws.reshape(shape[:-1] + (3, 3))


def _first_draws(counts: np.ndarray, n_samples: int, seed: int) -> np.ndarray:
    """One-sided counts of the first draw of every resample index, row
    ``index`` of one ``(n_samples, 3, 3)`` draw from the stream
    ``(seed, n_samples)``."""
    return _resample(np.random.default_rng((seed, n_samples)), counts, n_samples)


def bootstrap_ci(
    pairs: PairTable | Sequence[tuple[int, int]],
    measure: Measure | str = Measure.ALPHA_INTERVAL,
    n_samples: int = 1000,
    seed: int = 0,
    retry_cap: int = 100,
) -> ConfidenceInterval:
    """Percentile bootstrap 95% interval over pair resampling.

    Pairs are resampled with replacement ``n_samples`` times and the
    measure recomputed on each resampled coincidence matrix; the
    interval runs from the 2.5th to the 97.5th percentile of the
    defined resamples.  A resample is drawn as its nine cell counts,
    Multinomial(``n``, ``c / n``) over the ``n`` pairs' cell counts
    ``c``, which is how ``n`` pairs drawn with replacement fall into
    the cells; cells that hold no pair get none.  A fixed seed
    reproduces the interval exactly.

    The first draws of all resamples are one multinomial call on the
    stream ``default_rng((seed, n_samples))``.  A resample on which the
    measure is undefined is redrawn up to ``retry_cap`` times from its
    own substream ``default_rng((seed, index))``, so its result does not
    depend on the order in which resamples or measures are evaluated;
    if it stays undefined, it is counted in ``undefined_resamples`` and
    dropped.  The batch stream is never one of the substreams: no index
    reaches ``n_samples``, and numpy's ``SeedSequence`` gives distinct
    keys distinct streams, except that it pads a short key with zeros,
    so ``default_rng(seed)`` would be the substream of index 0.  If every
    resample stays undefined, :class:`UndefinedMeasureError` is raised;
    so does an undefined point estimate.

    ``n_samples`` must be a positive integer, and ``seed`` and
    ``retry_cap`` non-negative integers, Python's or numpy's; anything
    else (a bool, a float) raises :class:`ValueError` before any draw.
    """
    _check_count("n_samples", n_samples, 1)
    _check_count("retry_cap", retry_cap, 0)
    _check_count("seed", seed, 0)
    n_samples = int(n_samples)  # a numpy integer would make the interval's counts numpy scalars
    measure = Measure(measure)
    cells = pair_cells(pairs)
    if cells.shape[0] == 0:
        raise UndefinedMeasureError("bootstrap_ci needs at least one pair")
    point = compute_measure(matrix_from_cells(cells), measure)

    evaluate = _STACKED[measure]
    counts = np.bincount(cells, minlength=9)
    one_sided = _first_draws(counts, n_samples, seed)
    values, why = evaluate(one_sided + one_sided.transpose(0, 2, 1))
    defined = why == 0
    for index in np.flatnonzero(~defined).tolist():
        rng = np.random.default_rng((seed, index))
        for _ in range(retry_cap):
            one_sided = _resample(rng, counts)
            value, why = evaluate(one_sided + one_sided.T)
            if why == 0:
                values[index] = value
                defined[index] = True
                break
    kept = values[defined]
    if kept.size == 0:
        raise UndefinedMeasureError(
            f"all {n_samples} bootstrap resamples were undefined for {measure}"
        )
    tail = (1.0 - 0.95) / 2.0  # 0.025000000000000022, not 0.025: the quantiles depend on it
    low, high = np.quantile(kept, [tail, 1.0 - tail])
    return ConfidenceInterval(
        point=point,
        low=min(float(low), point),
        high=max(float(high), point),
        samples=n_samples,
        undefined_resamples=n_samples - int(kept.size),
    )


@dataclass(frozen=True)
class OrderingDiagnostics:
    """Evidence that the label scale behaves ordinally.

    ``relative_gain`` is ``(alpha_interval - alpha_nominal) /
    alpha_nominal`` on the full pair set: the fraction of reliability
    recovered by treating polar/neutral confusions as half mistakes.
    The ``dist_*`` ratios divide the alpha of pairs restricted to a
    neighbor label pair ({-,0} or {0,+}) by the alpha of pairs
    restricted to the extremes ({-,+}); values well below 1 mean
    annotators separate the extremes far better than neighbors.
    """

    relative_gain: float
    dist_neg_neutral: float
    dist_pos_neutral: float


def _restricted_alpha(one_sided: np.ndarray, keep: tuple[int, int], what: str) -> float:
    """Interval alpha of the pairs of ``one_sided`` counts whose both labels are in ``keep``."""
    inside = np.isin(LABEL_ORDER, keep)
    kept = one_sided * (inside[:, None] & inside[None, :])
    if not kept.any():
        raise UndefinedMeasureError(f"no pairs with both labels in {what}")
    try:
        return compute_measure(CoincidenceMatrix(kept + kept.T), Measure.ALPHA_INTERVAL)
    except UndefinedMeasureError as exc:
        raise UndefinedMeasureError(f"pairs restricted to {what} are degenerate: {exc}") from None


def ordering_diagnostics(pairs: PairTable | Sequence[tuple[int, int]]) -> OrderingDiagnostics:
    """Compute the ordinality diagnostics on a pooled pair set.

    Restricting to a two-label subset keeps only the cells of the
    coincidence matrix whose both labels fall in the subset; on two
    labels the interval and nominal metrics coincide, so each
    restricted alpha is metric-free.

    Raises
    ------
    UndefinedMeasureError
        If the full set or any restricted subset is degenerate, or a
        ratio denominator (nominal alpha, extremes alpha) is zero.
    """
    cells = pair_cells(pairs)
    if cells.shape[0] == 0:
        raise UndefinedMeasureError("ordering diagnostics need at least one pair")
    one_sided = np.bincount(cells, minlength=9).reshape(3, 3)
    full = CoincidenceMatrix(one_sided + one_sided.T)
    a_int = compute_measure(full, Measure.ALPHA_INTERVAL)
    a_nom = compute_measure(full, Measure.ALPHA_NOMINAL)
    if a_nom == 0.0:
        raise UndefinedMeasureError("relative gain is undefined: nominal alpha is zero")
    extremes = _restricted_alpha(one_sided, (-1, 1), "{negative, positive}")
    if extremes == 0.0:
        raise UndefinedMeasureError(
            "distinguishability ratios are undefined: alpha over {negative, positive} is zero"
        )
    neg_neu = _restricted_alpha(one_sided, (-1, 0), "{negative, neutral}")
    pos_neu = _restricted_alpha(one_sided, (0, 1), "{neutral, positive}")
    return OrderingDiagnostics(
        relative_gain=(a_int - a_nom) / a_nom,
        dist_neg_neutral=neg_neu / extremes,
        dist_pos_neutral=pos_neu / extremes,
    )


def sentiment_score(counts: Mapping[SentimentLabel | int, float]) -> float:
    """Aggregate sentiment of a label distribution.

    ``(count(+) - count(-)) / total`` over the mapping from label code
    to count; unknown keys are rejected, missing ones default to zero.
    A key is checked before it is cast, as :func:`_cells` checks codes:
    1.0 is +1, 1.7 is no code.
    """
    total = 0.0
    scored = 0.0
    for key, value in counts.items():
        if key not in LABEL_ORDER:
            raise ValueError(f"unknown label code {key!r}")
        code = int(key)
        if not math.isfinite(value):
            raise ValueError(f"non-finite count for label {key!r}")
        if value < 0:
            raise ValueError(f"negative count for label {key!r}")
        total += value
        scored += code * value if code != 0 else 0.0
    if total <= 0.0:
        raise UndefinedMeasureError("sentiment score is undefined on an empty distribution")
    return scored / total
