"""Linear-SVM sentiment classifiers over three ordinal classes.

The shared building block is a binary L1-hinge SVM trained in the dual
by coordinate descent.  The primal problem is

    min_w  1/2 ||w||^2 + C * sum_i max(0, 1 - y_i * (w . x_i + b))

with the bias handled as an appended constant feature of value 1 (and
therefore regularized).  The dual has one box-constrained variable per
example; a coordinate step on example ``i`` computes the projected
gradient of ``G = y_i * (w . x_i + b) - 1``, clips
``alpha_i - G / ||x~_i||^2`` into ``[0, C]``, and updates ``w``
incrementally.  Each plane seeds one generator with ``seed``, and
each epoch visits the examples in its next random permutation;
training stops when the largest projected gradient magnitude of an
epoch falls below ``tol`` or after ``max_epochs``.  The dual objective
``sum(alpha) - ||w||^2 / 2`` is recorded per epoch as a running sum
of the steps' exact gains,
``d * (-G - ||x~_i||^2 * d / 2)`` for a step ``d`` of ``alpha_i``;
each gain is non-negative in floating point, so the recorded sequence
never decreases.

Every function here takes its examples as one
:class:`~sentagree.features.CountRows` block; a plane slices its rows
out of the block with ``select``, and its term weights scale the
stored ``values`` array in one numpy op (the row layout of LIBLINEAR).
``||x~_i||^2``, like every decision value ``w . x`` of prediction, is
summed sequentially per row with ``np.bincount``, not by a BLAS dot,
whose kernel varies by CPU.  A plane is one call of ``cd_solve``, a C
function in ``_cd.c`` compiled on first use (:func:`_load_kernel`),
which draws each epoch's permutation as numpy does from the plane's
generator.  Its epochs do the IEEE double operations of the Python
loop :func:`_python_epoch`, in the same order, built with no
contraction of a multiply and an add into one rounding and no
reassociation; ``w . x`` is summed left to right (not by ``sum()``,
which compensates since Python 3.12, nor by a BLAS dot).  So a plane
has the same bits on either path and on any interpreter version.  The
Python loop, on plain Python floats with rows as lists of
``(index, value)`` pairs, is the tests' reference and the fallback
wherever no compiler, no private cache directory or no passing
self-check is found.  A coordinate at a bound whose gradient points out
of its box has projected gradient 0 and is skipped at once.  Each plane records
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

A model is saved as one UTF-8 JSON object (format version 3):
``format`` (``"sentagree-model"``), ``version``, ``variant``, ``dim``
and ``planes``, ``{name: {bias, weights}}``; the variant's table, one
of ``neutral_zone``, ``bins`` (``{grid, edges_a, edges_b, cells}``,
one ``[i, j, n-, n0, n+]`` per filled cell), ``subspaces`` (8 rows of
three label counts) and ``nb`` (``{docs, counts}``); and, for a model
trained with its vocabulary, ``vocabulary`` (``{terms, doc_freq,
n_docs, min_df, ngrams}``).  Keys are sorted and floats written with
``repr``, so they reload bit-exactly and a model always gives the same
bytes.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import logging
import math
import os
import sysconfig
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from . import _EXPORTS
from .agreement import _STACKED, Measure, _cells
from .corpus import SentimentLabel, _not_codes
from .errors import EvaluationError, ModelFormatError, _check_count, _is_integer
from .features import CountRows, Vocabulary, delta_weights

__all__ = _EXPORTS["classify"].split()

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
    checks its counts.  ``max_epochs`` is at most 2**20: a plane records
    its dual objective per epoch in a buffer of that many doubles.
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
        if self.max_epochs > 2**20:
            raise ValueError(f"max_epochs must be <= {2**20}, got {self.max_epochs}")
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
    if y_arr.shape != (n,) or not np.all(np.abs(y_arr) == 1.0):
        raise EvaluationError("side labels must be +1/-1, one per example")
    if np.all(y_arr == y_arr[0]):
        raise EvaluationError("cannot train a plane with a single class")
    dim = rows.dim
    if term_weights is not None:
        term_weights = np.asarray(term_weights, dtype=np.float64)
        if term_weights.shape != (dim,) or not np.isfinite(term_weights).all():
            raise EvaluationError(f"term weights must be {dim} finite values, one per dimension")
        values = rows.values * term_weights[rows.indices]
        keep = values != 0.0
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows.row_ids()[keep], minlength=n))))
        rows = CountRows._trusted(indptr, rows.indices[keep], values[keep], dim)

    weights, bias, objectives, worst = _descend(_epoch_kernel(), rows, y_arr, config)
    return LinearModel(
        weights=weights if term_weights is None else weights * term_weights,
        bias=bias,
        dual_objectives=objectives,
        epochs_run=len(objectives),
        converged=worst < config.tol,
        max_projected_gradient=worst,
    )


def _descend(kernel, rows: CountRows, y: np.ndarray, config: TrainConfig) -> tuple[np.ndarray, float, tuple, float]:
    """Dual coordinate descent on ``rows`` with float side labels ``y``:
    the weights, the bias, the dual objective after every epoch and the
    last epoch's largest projected-gradient magnitude.

    Each epoch visits the rows in the next ``rng.permutation(n)`` of one
    generator seeded with ``config.seed``.  The plane is one call of
    ``kernel``, the C ``cd_solve``, which draws those orders itself, or,
    when ``kernel`` is ``None``, a loop of :func:`_python_epoch`, its
    reference; both stop after the first epoch below ``tol`` and give
    the same bits.
    """
    n, dim, bound = len(rows), rows.dim, float(config.cost)
    # ||x~_i||^2 summed in order per row
    q_diag = np.bincount(rows.row_ids(), weights=rows.values * rows.values, minlength=n) + 1.0
    rng = np.random.default_rng(config.seed)
    if kernel is None:  # plain Python floats (see the module docstring)
        pairs = list(zip(rows.indices.tolist(), rows.values.tolist()))
        starts = rows.indptr.tolist()
        problem = ([pairs[start:end] for start, end in zip(starts, starts[1:])], y.tolist(), q_diag.tolist(), bound)
        w, alphas, state, objectives = [0.0] * dim, [0.0] * n, [0.0, 0.0], []
        for _ in range(config.max_epochs):
            worst = _python_epoch(rng.permutation(n).tolist(), *problem, w, alphas, state)
            objectives.append(state[1])
            if worst < config.tol:
                break
        return np.asarray(w, dtype=np.float64), state[0], tuple(objectives), worst
    # the arrays outlive the call of the kernel, which gets their addresses
    arrays = [np.empty(n, dtype=np.int64)]  # the kernel's scratch for each epoch's order
    arrays += [np.ascontiguousarray(a, dtype=np.int64) for a in (rows.indptr, rows.indices)]
    arrays += [np.ascontiguousarray(a, dtype=np.float64) for a in (rows.values, y, q_diag)]
    w, alphas, state, objectives = np.zeros(dim), np.zeros(n), np.zeros(3), np.empty(config.max_epochs)
    outputs = [a.ctypes.data for a in (w, alphas, state, objectives)]
    bits = rng.bit_generator.ctypes
    run = kernel(n, int(config.max_epochs), bits.state_address, bits.next_uint32, bits.next_uint64,
                 *[a.ctypes.data for a in arrays], bound, config.tol, *outputs)
    return w, float(state[0]), tuple(objectives[:run].tolist()), float(state[2])


def _python_epoch(
    order: list[int], pair_rows: list[list[tuple[int, float]]], ys: list[float], q_diag: list[float],
    bound: float, w: list[float], alphas: list[float], state: list[float],
) -> float:
    """One epoch visiting the rows in ``order``: updates ``w``,
    ``alphas`` and ``state[:2]`` (the bias and the dual objective) in
    place and returns the epoch's largest projected-gradient magnitude.
    The reference of an epoch of ``cd_solve`` in ``_cd.c`` and the
    fallback where that is unavailable."""
    b, gained = state[:2]
    worst = 0.0
    for i in order:
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
    state[:2] = b, gained
    return worst


# --- the C epoch kernel: compiled once per machine, checked once per process --

#: The kernel's source, shipped beside this module, and its compiler flags:
#: none that lets the compiler fuse or reassociate floating-point operations.
_KERNEL_SOURCE = Path(__file__).with_name("_cd.c")
_KERNEL_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


@functools.cache
def _epoch_kernel():
    """The C epoch kernel of this process, loaded on first use by
    :func:`_load_kernel`; ``None`` where training runs the Python loop."""
    return _load_kernel()


def _load_kernel(compiler: Sequence[str] | None = None, cache: Path | None = None):
    """``cd_solve`` from the library compiled from :data:`_KERNEL_SOURCE`,
    or ``None``, with the reason logged at DEBUG level.

    The library lives in ``cache`` (default ``$XDG_CACHE_HOME/sentagree``,
    else ``~/.cache/sentagree``, made with mode 0700) under the SHA-256
    of the source, the flags and the platform.  A missing one is
    compiled by ``compiler`` (default: the ``CC`` Python was built with,
    else ``cc``) to a temporary file that is then renamed into place.
    The library is loaded only when this user owns it and its directory
    and no one else can write either, and used only when
    :func:`_self_check` finds it gives the Python loop's bits.
    """
    try:
        source = _KERNEL_SOURCE.read_bytes()
        key = hashlib.sha256(b"\0".join([source, " ".join(_KERNEL_FLAGS).encode(), sysconfig.get_platform().encode()]))
        if cache is None:
            cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "sentagree"
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        _check_private(cache)
        library = cache / f"cd-{key.hexdigest()}.so"
        if not library.exists():
            _compile(compiler, library)
        _check_private(library)
        kernel = ctypes.CDLL(str(library)).cd_solve
    except (OSError, RuntimeError, AttributeError) as exc:
        logger.debug("C epoch kernel unavailable (%s); training runs the Python loop", exc)
        return None
    kernel.argtypes = [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 9 + [ctypes.c_double] * 2 + [ctypes.c_void_p] * 4
    kernel.restype = ctypes.c_int64
    if not _self_check(kernel):
        logger.debug("C epoch kernel in %s differs from the Python loop; training runs the Python loop", library)
        return None
    return kernel


def _check_private(path: Path) -> None:
    """Raise ``PermissionError`` unless this user owns ``path`` and no one else can write it."""
    status = path.stat()
    if status.st_uid != os.getuid() or status.st_mode & 0o022:
        raise PermissionError(f"{path} is not owned by this user alone")


def _compile(compiler: Sequence[str] | None, library: Path) -> None:
    """Compile :data:`_KERNEL_SOURCE` to ``library`` through a temporary
    file in its directory, so that no process sees a partial library."""
    # only a missing library needs these
    import shlex
    import subprocess
    import tempfile

    if compiler is None:
        compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    handle, temporary = tempfile.mkstemp(suffix=".so", dir=library.parent)
    os.close(handle)
    try:
        try:
            done = subprocess.run(
                [*compiler, *_KERNEL_FLAGS, "-o", temporary, str(_KERNEL_SOURCE)],
                capture_output=True, text=True, timeout=120, check=False,
            )
        except subprocess.TimeoutExpired as exc:
            raise OSError(f"{compiler[0]} took more than {exc.timeout} s") from None
        if done.returncode != 0:
            raise OSError(f"{compiler[0]} exited with {done.returncode}: {done.stderr.strip()[-500:]}")
        os.chmod(temporary, 0o700)
        os.replace(temporary, library)
    finally:
        Path(temporary).unlink(missing_ok=True)


def _self_check(kernel) -> bool:
    """Whether ``kernel`` gives the Python loop's bits on a fixed problem
    of 40 rows, some empty, with bounds that bind."""
    rng = np.random.default_rng(2008)
    lengths = rng.integers(0, 5, size=40)
    indices = np.concatenate([np.sort(rng.choice(12, size=k, replace=False)) for k in lengths])
    rows = CountRows(np.concatenate(([0], np.cumsum(lengths))), indices, rng.normal(size=indices.size), 12)
    y = np.where(rng.random(40) < 0.5, -1.0, 1.0)
    # all 20 epochs run, so the check covers the draw's generator state carried from one epoch to the next
    config = TrainConfig(cost=0.5, tol=1e-12, max_epochs=20)
    (w, *rest), (w_ref, *rest_ref) = (_descend(k, rows, y, config) for k in (kernel, None))
    return w.tobytes() == w_ref.tobytes() and rest == rest_ref


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


#: The memo key of ``NeutralZoneSVM``'s plane, trained on its validation
#: split's training part rather than on all rows.
_VALIDATION_PLANE = ("validation", (-1,), (1,))

#: Each SVM variant's planes, by name, and their memo keys: a plane trained
#: on all rows is keyed by its (negative side, positive side).
_PLANE_SIDES: dict[Variant, dict[str, tuple]] = {
    Variant.NEUTRAL_ZONE: {"polarity": _VALIDATION_PLANE},
    Variant.TWO_PLANE: {"neg_vs_rest": ((-1,), (0, 1)), "rest_vs_pos": ((-1, 0), (1,))},
    Variant.TWO_PLANE_BIN: {"neg_vs_rest": ((-1,), (0, 1)), "rest_vs_pos": ((-1, 0), (1,))},
    Variant.CASCADING: {"subjectivity": ((0,), (-1, 1)), "polarity": ((-1,), (1,))},
    Variant.THREE_PLANE: {
        "neg_vs_neu": ((-1,), (0,)),
        "neu_vs_pos": ((0,), (1,)),
        "neg_vs_pos": ((-1,), (1,)),
    },
}


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


def _train_plane(rows: CountRows, labels: np.ndarray, key: tuple, config: TrainConfig) -> LinearModel:
    """Train the plane of memo ``key`` on the rows of its two sides'
    labels, with its own weights; for :data:`_VALIDATION_PLANE`, only on
    those in the validation split's training part.

    The raw count rows of the plane's examples go to
    :func:`train_binary` with the class-ratio weights computed from this
    plane's split as ``term_weights``; the returned plane carries those
    weights in ``weights``, so its decision function applies to raw
    count rows.
    """
    neg_side, pos_side = key[-2:]
    in_plane = np.logical_or.reduce([labels == code for code in neg_side + pos_side])
    if key == _VALIDATION_PLANE:
        in_plane[_validation_split(labels, config.seed)[1]] = False
    members = np.flatnonzero(in_plane)
    plane_rows = rows.select(members)
    positive = np.logical_or.reduce([labels[members] == code for code in pos_side])
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
    plane: LinearModel,
) -> float:
    """Pick the half-width of ``plane``'s neutral zone maximizing interval
    alpha on the held-out split; ties prefer the narrower zone."""
    _, val_idx = _validation_split(labels, config.seed)
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
        return 0.0
    return float(candidates[defined[scores[defined].argmax()]])  # the first maximum: the narrowest zone


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
    labels and config, and ``("validation", (-1,), (1,))`` to
    ``NeutralZoneSVM``'s plane, trained on a validation subset of them;
    a plane found there is reused, and :func:`_train_plane` trains each
    missing one into it.
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
        # sums of whole-number counts, exact in any order
        cells = np.ravel_multi_index((label_arr[rows.row_ids()] + 1, rows.indices), (3, dim))
        term_counts = np.bincount(cells, weights=rows.values, minlength=3 * dim).reshape(3, dim)
        return SentimentModel(nb=NaiveBayesTable(np.bincount(label_arr + 1, minlength=3), term_counts), **base)

    memo = {} if memo is None else memo
    for key in _PLANE_SIDES[variant].values():
        if key not in memo:
            memo[key] = _train_plane(rows, label_arr, key, config)
    planes = {name: memo[key] for name, key in _PLANE_SIDES[variant].items()}
    if variant is Variant.NEUTRAL_ZONE:
        zone = _tune_neutral_zone(rows, label_arr, config, planes["polarity"])
        return SentimentModel(planes=planes, neutral_zone=zone, **base)
    if variant is Variant.TWO_PLANE_BIN:
        d_a, d_b = _decision_values(list(planes.values()), rows)
        grid = config.bin_grid
        bins = BinTable(
            grid=grid,
            edges_a=np.linspace(d_a.min(), d_a.max(), grid + 1),
            edges_b=np.linspace(d_b.min(), d_b.max(), grid + 1),
            counts=np.empty((grid + 2, grid + 2, 3), dtype=np.int64),
        )
        cells = np.ravel_multi_index((*bins.cell(d_a, d_b), label_arr + 1), bins.counts.shape)
        bins.counts[...] = np.bincount(cells, minlength=bins.counts.size).reshape(bins.counts.shape)
        return SentimentModel(planes=planes, bins=bins, **base)
    if variant is Variant.THREE_PLANE:
        values = _decision_values(list(planes.values()), rows)
        cells = np.ravel_multi_index((_subspace_index(values), label_arr + 1), (8, 3))
        counts = np.bincount(cells, minlength=24).reshape(8, 3)
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
_MODEL_VERSION = 3
#: The table each variant needs besides its planes, by its key and model field.
_VARIANT_TABLE = {Variant.NEUTRAL_ZONE: "neutral_zone", Variant.TWO_PLANE_BIN: "bins",
                  Variant.THREE_PLANE: "subspaces", Variant.NAIVE_BAYES: "nb"}


def save_model(model: SentimentModel, path: str | Path) -> None:
    """Write a model, and its vocabulary if it has one, as one versioned
    JSON document (layout in the module docstring).  The same model
    always writes the same bytes; a number that is not finite raises
    ``ValueError`` before anything is written."""
    bins, nb, vocab = model.bins, model.nb, model.vocab
    filled = np.argwhere(bins.counts.sum(axis=2) > 0).tolist() if bins else []
    document = {
        "format": _MODEL_MAGIC, "version": _MODEL_VERSION, "variant": model.variant.value, "dim": int(model.dim),
        "planes": {name: {"bias": float(p.bias), "weights": p.weights.tolist()} for name, p in model.planes.items()},
        "neutral_zone": model.neutral_zone,
        "bins": bins and {"grid": int(bins.grid), "edges_a": bins.edges_a.tolist(), "edges_b": bins.edges_b.tolist(),
                          "cells": [[i, j, *bins.counts[i, j].tolist()] for i, j in filled]},
        "subspaces": model.subspaces and model.subspaces.counts.tolist(),
        "nb": nb and {"docs": nb.doc_counts.tolist(), "counts": nb.term_counts.tolist()},
        "vocabulary": vocab and {"terms": list(vocab.terms), "doc_freq": vocab.doc_freq.tolist(),
                                 "n_docs": int(vocab.n_docs), "min_df": int(vocab.min_df),
                                 "ngrams": [int(n) for n in vocab.ngrams]},
    }
    document = {key: value for key, value in document.items() if value is not None}
    # floats go out by repr, so they reload bit for bit
    text = json.dumps(document, sort_keys=True, allow_nan=False, ensure_ascii=False)
    Path(path).write_text(text + "\n", encoding="utf-8", newline="\n")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The members of a JSON object; a repeated key raises ``ValueError``."""
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ValueError(f"key {next(key for key in keys if keys.count(key) > 1)!r} repeats")
    return dict(pairs)


def _object(value, name: str, keys: set[str]) -> dict:
    """``value``, a JSON object holding exactly ``keys``."""
    if type(value) is not dict or set(value) != keys:
        raise ValueError(f"{name} must be an object of {sorted(keys)}")
    return value


def _array(value, shape: tuple, name: str, integer: bool = False, counts: bool = False) -> np.ndarray:
    """``value``, JSON lists nested to ``shape`` (``None``: any length), as
    finite floats, or 64-bit integers if ``integer``, non-negative and below
    2**63 if ``counts``; a bool, string, ``null`` or object in it is a fault."""
    array = np.array(value, dtype=object)  # lists of unequal lengths make an array of lists
    if array.shape == (0,) and len(shape) > 1:  # no rows
        array = array.reshape(0, *(n or 0 for n in shape[1:]))
    kinds = (int,) if integer else (int, float)
    if len(array.shape) != len(shape) or any(n not in (None, m) for n, m in zip(shape, array.shape)) or not all(
            type(x) in kinds for x in array.flat):
        raise ValueError(f"{name} must be {'integers' if integer else 'numbers'} of shape {shape}")
    array = array.astype(np.int64 if integer else np.float64)  # OverflowError past 64 bits
    if not np.isfinite(array).all() or counts and not ((array >= 0) & (array < 2**63)).all():
        raise ValueError(f"{name} must be finite" + (" non-negative counts below 2**63" if counts else ""))
    return array


def _check_label_sums(counts: np.ndarray, name: str) -> None:
    """Refuse rows of three label counts that sum to 2**63 or more:
    prediction sums them in 64 bits."""
    if any(sum(row) >= 2**63 for row in counts.reshape(-1, 3).tolist()):
        raise ValueError(f"{name} must sum to less than 2**63")


def _parse_model(document: dict) -> SentimentModel:
    """The model of a parsed model file, checked to hold exactly the
    planes and the table of its variant, in range, and at most a
    vocabulary of ``dim`` terms.  Every fault raises ``ValueError`` or
    ``OverflowError``."""
    variant = Variant(document.get("variant"))
    table = _VARIANT_TABLE.get(variant)
    keys = {"format", "version", "variant", "dim", "planes"} | ({table} if table else set())
    if not keys <= set(document) <= keys | {"vocabulary"}:
        raise ValueError(f"a {variant.value} model holds {sorted(keys)} and at most a vocabulary, "
                         f"found {sorted(document)}")
    _check_count("dim", dim := document["dim"], 0)
    needed = sorted(_PLANE_SIDES.get(variant, {}))
    if type(document["planes"]) is not dict or sorted(document["planes"]) != needed:
        raise ValueError(f"{variant.value} needs planes {needed}")
    planes = {}
    for name, plane in document["planes"].items():
        plane = _object(plane, f"plane {name}", {"bias", "weights"})
        planes[name] = LinearModel(_array(plane["weights"], (dim,), f"plane {name} weights"),
                                   float(_array(plane["bias"], (), f"plane {name} bias")))

    tables: dict[str, object] = {}
    if table == "neutral_zone":
        tables[table] = zone = float(_array(document[table], (), table))
        if zone < 0.0:
            raise ValueError(f"neutral_zone must be non-negative, got {zone}")
    elif table == "bins":
        bins = _object(document[table], table, {"grid", "edges_a", "edges_b", "cells"})
        grid = TrainConfig(bin_grid=bins["grid"]).bin_grid  # in training's bounds, so the table fits in memory
        edges = [_array(bins[key], (grid + 1,), f"bins {key}") for key in ("edges_a", "edges_b")]
        cells = _array(bins["cells"], (None, 5), "bins cells", integer=True, counts=True)
        _check_label_sums(cells[:, 2:], "a bin cell's counts")
        if (cells[:, :2] > grid + 1).any():
            raise ValueError(f"a bin is outside a grid of {grid}")
        counts = np.zeros((grid + 2, grid + 2, 3), dtype=np.int64)
        counts[cells[:, 0], cells[:, 1]] = cells[:, 2:]
        tables[table] = BinTable(grid, *edges, counts)
    elif table == "subspaces":
        counts = _array(document[table], (8, 3), table, integer=True, counts=True)
        _check_label_sums(counts, "a subspace's counts")
        tables[table] = SubspaceTable(counts)
    elif table == "nb":
        nb = _object(document[table], table, {"docs", "counts"})
        docs = _array(nb["docs"], (3,), "nb docs", integer=True, counts=True)
        _check_label_sums(docs, "nb docs")
        if not docs.all():  # as training, which refuses a missing class
            raise ValueError(f"nb docs needs a document of every class, got {docs.tolist()}")
        tables[table] = NaiveBayesTable(docs, _array(nb["counts"], (3, dim), "nb counts", counts=True))

    vocab = None
    if "vocabulary" in document:
        fields = _object(document["vocabulary"], "vocabulary", {"terms", "doc_freq", "n_docs", "min_df", "ngrams"})
        if type(terms := fields["terms"]) is not list or len(terms) != dim or {type(t) for t in terms} - {str}:
            raise ValueError(f"a vocabulary needs {dim} terms, one per dimension")
        vocab = Vocabulary(tuple(terms), _array(fields["doc_freq"], (dim,), "doc_freq", integer=True), fields["n_docs"],
                           fields["min_df"], tuple(_array(fields["ngrams"], (None,), "ngrams", integer=True).tolist()))
    return SentimentModel(variant=variant, dim=dim, vocab=vocab, planes=planes, **tables)


def load_model(path: str | Path) -> SentimentModel:
    """Read a model written by :func:`save_model`, with its vocabulary
    (``None`` for a model saved without one).

    Bytes that are not UTF-8 or not JSON, another format or format
    version, a repeated key, and a document that does not hold exactly
    its variant's planes and table, in range, and a vocabulary of
    ``dim`` terms if any, raise :class:`ModelFormatError`; I/O errors
    propagate unchanged.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{path}: not UTF-8 text (cannot decode byte 0x{exc.object[exc.start]:02x})") from None
    if text.startswith(_MODEL_MAGIC):  # the line formats of versions 1 and 2 begin "sentagree-model N"
        found = text.partition("\n")[0].removeprefix(_MODEL_MAGIC).strip()
        raise ModelFormatError(f"{path}: unsupported model version {found!r}")
    try:
        document = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: not a model file ({exc})") from None
    except (ValueError, RecursionError) as exc:
        raise ModelFormatError(f"{path}: malformed model file ({exc})") from None
    if type(document) is not dict or document.get("format") != _MODEL_MAGIC:
        raise ModelFormatError(f"{path}: not a model file")
    if type(found := document.get("version")) is not int or found != _MODEL_VERSION:
        raise ModelFormatError(f"{path}: unsupported model version {found!r}")
    try:
        return _parse_model(document)
    except (ValueError, OverflowError) as exc:
        raise ModelFormatError(f"{path}: malformed model file ({exc})") from None
