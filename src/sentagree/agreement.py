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
bootstrap share it.  :func:`bootstrap_ci` draws the resamples of a pair
set once, keeps their counts in a one-entry memo for the calls that
follow with another measure, and evaluates a measure on all of them in
one vectorized pass.  Counts of pairs are whole numbers, so the stacked
results are bit-identical to evaluating one matrix at a time.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .corpus import LabelPair, SentimentLabel
from .errors import UndefinedMeasureError

__all__ = [
    "LABEL_ORDER",
    "Measure",
    "CoincidenceMatrix",
    "ConfidenceInterval",
    "OrderingDiagnostics",
    "build_coincidence",
    "pair_cells",
    "matrix_from_cells",
    "alpha",
    "f1_bar",
    "accuracy",
    "acc_within_1",
    "compute_measure",
    "bootstrap_ci",
    "ordering_diagnostics",
    "sentiment_score",
]

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


def pair_cells(pairs: Iterable[LabelPair | tuple[int, int]]) -> np.ndarray:
    """Map pairs to flat cell indices ``(first+1)*3 + (second+1)``.

    The flat representation is the resampling currency of
    :func:`bootstrap_ci`: a resample is a ``bincount`` of drawn cells.
    The first draw of every resample index is shared by all measures
    of a pair set, through a memo that holds one entry.
    """
    cells = []
    for pair in pairs:
        if isinstance(pair, LabelPair):
            a, b = int(pair.first), int(pair.second)
        else:
            a, b = int(pair[0]), int(pair[1])
        if a not in (-1, 0, 1) or b not in (-1, 0, 1):
            raise ValueError(f"pair ({a}, {b}) is outside the label codes -1/0/+1")
        cells.append((a + 1) * 3 + (b + 1))
    return np.asarray(cells, dtype=np.intp)


def matrix_from_cells(cells: np.ndarray) -> CoincidenceMatrix:
    """Build the double-entry coincidence matrix from flat cell indices."""
    one_sided = np.bincount(cells, minlength=9).reshape(3, 3).astype(np.float64)
    return CoincidenceMatrix(one_sided + one_sided.T)


def build_coincidence(pairs: Iterable[LabelPair | tuple[int, int]]) -> CoincidenceMatrix:
    """Accumulate label pairs into a coincidence matrix.

    Every pair is entered in both orders, so equal-label pairs
    contribute 2 to a diagonal cell and the result is symmetric no
    matter how the input pairs are oriented or ordered.
    """
    return matrix_from_cells(pair_cells(pairs))


# Each ``_*_stack`` function evaluates one measure over a ``(..., 3, 3)``
# count stack and returns the values with a code per matrix that is 0
# where the measure is defined: the single-matrix functions turn a
# nonzero code into its message, and the bootstrap retries those draws.


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


def alpha(matrix: CoincidenceMatrix, metric: str = "interval") -> float:
    """Reliability coefficient ``1 - Do/De`` under the given metric.

    Parameters
    ----------
    matrix:
        Coincidence matrix of the pair set.
    metric:
        ``"interval"`` (squared code distance, the default) or
        ``"nominal"`` (identity only).

    Raises
    ------
    UndefinedMeasureError
        If fewer than two labels carry mass (expected disagreement is
        zero) or total mass is not above 1.
    """
    if metric == "interval":
        delta2 = DELTA2_INTERVAL
    elif metric == "nominal":
        delta2 = DELTA2_NOMINAL
    else:
        raise ValueError(f"unknown metric {metric!r}, expected 'nominal' or 'interval'")
    value, why = _alpha_stack(matrix.counts, delta2)
    if why == 1:
        raise UndefinedMeasureError(
            f"alpha needs total mass > 1, got N = {matrix.total:g}"
        )
    if why == 2:
        raise UndefinedMeasureError(
            "alpha is undefined: expected disagreement is zero "
            "(fewer than two labels carry mass)"
        )
    return float(value)


def accuracy(matrix: CoincidenceMatrix) -> float:
    """Observed agreement: diagonal mass over total mass."""
    value, why = _accuracy_stack(matrix.counts)
    if why:
        raise UndefinedMeasureError("accuracy is undefined on an empty matrix")
    return float(value)


def acc_within_1(matrix: CoincidenceMatrix) -> float:
    """Agreement within one scale point: everything but the corner cells."""
    value, why = _acc_within_1_stack(matrix.counts)
    if why:
        raise UndefinedMeasureError("acc_within_1 is undefined on an empty matrix")
    return float(value)


def f1_bar(matrix: CoincidenceMatrix) -> float:
    """Mean one-vs-rest F1 of the two polar classes.

    On a symmetric matrix precision equals recall for every class, so
    ``F1(c) = counts(c, c) / N(c)``.  Requires both polar classes to
    carry mass.
    """
    value, why = _f1_bar_stack(matrix.counts)
    if why:
        marginals = matrix.marginals
        raise UndefinedMeasureError(
            "f1_bar is undefined: a polar class has no mass "
            f"(N(-) = {marginals[0]:g}, N(+) = {marginals[2]:g})"
        )
    return float(value)


_DISPATCH = {
    Measure.ALPHA_NOMINAL: lambda m: alpha(m, "nominal"),
    Measure.ALPHA_INTERVAL: lambda m: alpha(m, "interval"),
    Measure.F1_BAR: f1_bar,
    Measure.ACCURACY: accuracy,
    Measure.ACC_WITHIN_1: acc_within_1,
}


def compute_measure(matrix: CoincidenceMatrix, measure: Measure | str) -> float:
    """Evaluate one :class:`Measure` on a coincidence matrix."""
    return _DISPATCH[Measure(measure)](matrix)


@dataclass(frozen=True)
class ConfidenceInterval:
    """Percentile bootstrap interval for one measure on one pair set.

    ``undefined_resamples`` counts bootstrap draws that stayed undefined
    after the per-slot retry budget and were excluded from the
    percentiles.  The interval always contains the point estimate.
    """

    point: float
    low: float
    high: float
    level: float
    samples: int
    undefined_resamples: int = 0


@functools.lru_cache(maxsize=1)
def _first_draws(cells: bytes, n_samples: int, seed: int) -> np.ndarray:
    """One-sided counts of the first draw of every resample index.

    ``cells`` is the raw buffer of :func:`pair_cells`.  Row ``index`` of
    the read-only ``(n_samples, 3, 3)`` result is the ``bincount`` of
    the first resample drawn from substream ``(seed, index)``.  The one
    memo entry lets the calls for the other measures of the same pair
    set skip the draws.
    """
    flat = np.frombuffer(cells, dtype=np.intp)
    n = flat.shape[0]
    stack = np.empty((n_samples, 9), dtype=np.float64)
    for index in range(n_samples):
        rng = np.random.default_rng((seed, index))
        stack[index] = np.bincount(flat[rng.integers(0, n, n)], minlength=9)
    stack = stack.reshape(n_samples, 3, 3)
    stack.flags.writeable = False
    return stack


def bootstrap_ci(
    pairs: Sequence[LabelPair | tuple[int, int]],
    measure: Measure | str = Measure.ALPHA_INTERVAL,
    n_samples: int = 1000,
    level: float = 0.95,
    seed: int = 0,
    retry_cap: int = 100,
) -> ConfidenceInterval:
    """Percentile bootstrap over pair resampling.

    Pairs are resampled with replacement ``n_samples`` times and the
    measure recomputed on each resampled coincidence matrix.  Every
    resample index draws from its own seeded substream derived from
    ``(seed, index)``, so results are independent of evaluation order
    and a fixed seed reproduces the interval exactly.

    A resample on which the measure is undefined is redrawn (from the
    same substream) up to ``retry_cap`` times, then counted in
    ``undefined_resamples`` and dropped.  If every resample stays
    undefined, :class:`UndefinedMeasureError` is raised; so does an
    undefined point estimate.

    The first draws do not depend on the measure: they are made once
    per ``(pairs, n_samples, seed)`` and kept in a one-entry memo, so
    the next call on the same pair set, for any measure, reuses them.
    The measure is evaluated on all of them at once; only the indices
    it leaves undefined replay their substream for the retries.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {level}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    if retry_cap < 0:
        raise ValueError(f"retry_cap must not be negative, got {retry_cap}")
    measure = Measure(measure)
    cells = pair_cells(pairs)
    n = cells.shape[0]
    if n == 0:
        raise UndefinedMeasureError("bootstrap_ci needs at least one pair")
    point = compute_measure(matrix_from_cells(cells), measure)

    evaluate = _STACKED[measure]
    one_sided = _first_draws(cells.tobytes(), n_samples, seed)
    values, why = evaluate(one_sided + one_sided.transpose(0, 2, 1))
    defined = why == 0
    for index in np.flatnonzero(~defined).tolist():
        rng = np.random.default_rng((seed, index))
        rng.integers(0, n, n)  # the first draw, already evaluated
        for _ in range(retry_cap):
            counts = matrix_from_cells(cells[rng.integers(0, n, n)]).counts
            value, why = evaluate(counts)
            if why == 0:
                values[index] = value
                defined[index] = True
                break
    kept = values[defined]
    if kept.size == 0:
        raise UndefinedMeasureError(
            f"all {n_samples} bootstrap resamples were undefined for {measure}"
        )
    tail = (1.0 - level) / 2.0
    low, high = np.quantile(kept, [tail, 1.0 - tail])
    return ConfidenceInterval(
        point=point,
        low=min(float(low), point),
        high=max(float(high), point),
        level=level,
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


def _restricted_alpha(
    cells: np.ndarray, keep: tuple[int, int], what: str
) -> float:
    first = cells // 3 - 1
    second = cells % 3 - 1
    mask = np.isin(first, keep) & np.isin(second, keep)
    if not mask.any():
        raise UndefinedMeasureError(f"no pairs with both labels in {what}")
    try:
        return alpha(matrix_from_cells(cells[mask]), "interval")
    except UndefinedMeasureError as exc:
        raise UndefinedMeasureError(f"pairs restricted to {what} are degenerate: {exc}") from None


def ordering_diagnostics(pairs: Sequence[LabelPair | tuple[int, int]]) -> OrderingDiagnostics:
    """Compute the ordinality diagnostics on a pooled pair set.

    Restricting to a two-label subset rebuilds the coincidence matrix
    from only the pairs whose both labels fall in the subset; on two
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
    full = matrix_from_cells(cells)
    a_int = alpha(full, "interval")
    a_nom = alpha(full, "nominal")
    if a_nom == 0.0:
        raise UndefinedMeasureError("relative gain is undefined: nominal alpha is zero")
    extremes = _restricted_alpha(cells, (-1, 1), "{negative, positive}")
    if extremes == 0.0:
        raise UndefinedMeasureError(
            "distinguishability ratios are undefined: alpha over {negative, positive} is zero"
        )
    neg_neu = _restricted_alpha(cells, (-1, 0), "{negative, neutral}")
    pos_neu = _restricted_alpha(cells, (0, 1), "{neutral, positive}")
    return OrderingDiagnostics(
        relative_gain=(a_int - a_nom) / a_nom,
        dist_neg_neutral=neg_neu / extremes,
        dist_pos_neutral=pos_neu / extremes,
    )


def sentiment_score(counts: Mapping[SentimentLabel | int, float]) -> float:
    """Aggregate sentiment of a label distribution.

    ``(count(+) - count(-)) / total`` over the mapping from label code
    to count; unknown keys are rejected, missing ones default to zero.
    """
    total = 0.0
    scored = 0.0
    for key, value in counts.items():
        code = int(key)
        if code not in (-1, 0, 1):
            raise ValueError(f"unknown label code {key!r}")
        if value < 0:
            raise ValueError(f"negative count for label {key!r}")
        total += value
        scored += code * value if code != 0 else 0.0
    if total <= 0.0:
        raise UndefinedMeasureError("sentiment score is undefined on an empty distribution")
    return scored / total
