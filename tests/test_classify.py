"""Binary coordinate-descent SVM and the six sentiment classifier variants."""

from __future__ import annotations

import dataclasses
import json
import logging
import re
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sentagree import classify
from sentagree.classify import (
    BinTable,
    LinearModel,
    SentimentModel,
    SubspaceTable,
    TrainConfig,
    Variant,
    load_model,
    predict,
    predict_batch,
    save_model,
    train_binary,
    train_sentiment,
    _decision_values,
)
from sentagree.corpus import SentimentLabel
from sentagree.errors import EvaluationError, ModelFormatError, SentagreeError
from sentagree.features import CountRows, Vocabulary

import oracles
from conftest import damaged_model, stack


def vec(values, dim: int | None = None) -> CountRows:
    """One row holding the nonzeros of a dense vector."""
    arr = np.asarray(values, dtype=np.float64)
    if dim is None:
        dim = arr.size
    idx = np.flatnonzero(arr)
    return CountRows([0, idx.size], idx, arr[idx], dim)


def decision(model: LinearModel, x: CountRows) -> float:
    return float(x.values @ model.weights[x.indices]) + model.bias


def separable_line():
    xs = [-2.0, -1.0, 1.0, 2.0]
    return [vec([x], 1) for x in xs], [-1, -1, 1, 1]


TIGHT = TrainConfig(tol=1e-10, max_epochs=3000)


# --- binary plane ------------------------------------------------------------


def test_train_binary_separates_the_line_fixture() -> None:
    vectors, y = separable_line()
    model = train_binary(stack(vectors), y, TIGHT)
    for x, label in zip(vectors, y):
        assert label * decision(model, x) >= 1.0 - 1e-6
    assert model.epochs_run >= 1
    assert len(model.dual_objectives) == model.epochs_run


def test_train_binary_objective_is_nondecreasing() -> None:
    vectors, y = separable_line()
    model = train_binary(stack(vectors), y, TIGHT)
    objectives = np.array(model.dual_objectives)
    assert np.all(np.diff(objectives) >= -1e-12)


def test_train_binary_matches_qp_oracle() -> None:
    rng = np.random.default_rng(31)
    for trial in range(20):
        n = int(rng.integers(4, 12))
        d = int(rng.integers(2, 5))
        X = rng.normal(size=(n, d))
        y = rng.choice([-1.0, 1.0], size=n)
        y[0], y[1] = -1.0, 1.0
        cost = float(rng.choice([0.5, 1.0, 4.0]))
        config = TrainConfig(cost=cost, tol=1e-10, max_epochs=5000, seed=trial)
        model = train_binary(stack([vec(row) for row in X]), y, config)
        expected = oracles.svm_dual_optimum(X, y, cost)
        assert model.dual_objectives[-1] == pytest.approx(expected, abs=1e-6, rel=1e-6)


def test_train_binary_matches_qp_oracle_on_sparse_rows_with_bounds() -> None:
    # mostly-zero rows, one all-zero row and one duplicated row, with
    # box bounds small enough to bind
    rng = np.random.default_rng(47)
    for trial in range(10):
        n, d = 12, 6
        X = rng.normal(size=(n, d)) * (rng.random(size=(n, d)) < 0.3)
        X[2] = 0.0
        X[5] = X[4]
        y = rng.choice([-1.0, 1.0], size=n)
        y[0], y[1] = -1.0, 1.0
        cost = float(rng.choice([0.25, 1.0, 4.0]))
        config = TrainConfig(cost=cost, tol=1e-10, max_epochs=5000, seed=trial)
        model = train_binary(stack([vec(row) for row in X]), y, config)
        expected = oracles.svm_dual_optimum(X, y, cost)
        assert model.converged
        assert model.dual_objectives[-1] == pytest.approx(expected, abs=1e-6, rel=1e-6)
        assert np.all(np.diff(model.dual_objectives) >= 0.0)


def _dense(v: CountRows) -> np.ndarray:
    out = np.zeros(v.dim)
    out[v.indices] = v.values
    return out


def weighted_fixture():
    rng = np.random.default_rng(5)
    X = np.round(rng.normal(size=(10, 5)) * (rng.random(size=(10, 5)) < 0.5), 2)
    X[3] = 0.0
    y = np.where(np.arange(10) % 3 == 0, 1.0, -1.0)
    # row 3 is empty; a zero weight drops coordinate 1, a negative one flips coordinate 3
    g = np.array([0.5, 0.0, 2.0, -1.5, 1.0])
    return [vec(row) for row in X], y, g


def test_term_weights_match_explicitly_scaled_rows() -> None:
    vectors, y, g = weighted_fixture()
    scaled = [vec(_dense(v) * g) for v in vectors]
    config = TrainConfig(max_epochs=7, seed=3)
    weighted = train_binary(stack(vectors), y, config, term_weights=g)
    plain = train_binary(stack(scaled), y, config)
    assert np.array_equal(weighted.weights, plain.weights * g)
    assert weighted.bias == plain.bias
    assert weighted.epochs_run == plain.epochs_run
    assert weighted.dual_objectives == plain.dual_objectives


@pytest.mark.parametrize("g", [np.ones(4), np.array([1.0, np.nan, 1.0, 1.0, 1.0])], ids=["length", "nan"])
def test_term_weights_must_be_finite_and_one_per_dimension(g) -> None:
    vectors, y, _ = weighted_fixture()
    with pytest.raises(EvaluationError, match="term weights"):
        train_binary(stack(vectors), y, TrainConfig(), term_weights=g)


def test_train_binary_reports_convergence() -> None:
    vectors, y = separable_line()
    tight = train_binary(stack(vectors), y, TIGHT)
    assert tight.converged is True
    assert 0.0 <= tight.max_projected_gradient < TIGHT.tol
    capped = train_binary(stack(vectors), y, TrainConfig(max_epochs=1))
    assert capped.converged is False
    assert capped.epochs_run == 1
    assert capped.max_projected_gradient >= TrainConfig().tol


def test_plane_stopped_at_max_epochs_is_logged(caplog) -> None:
    vectors, y = separable_line()
    vectors, y = vectors + [vec([0.5], 1)], y + [0]  # a neutral example the polarity plane leaves out
    classify._epoch_kernel()  # loaded first: where no kernel loads, its loader logs why
    with caplog.at_level(logging.DEBUG, logger="sentagree.classify"):
        model = train_sentiment(stack(vectors), y, Variant.NEUTRAL_ZONE, TrainConfig(max_epochs=1))
    assert model.planes["polarity"].converged is False
    records = [r for r in caplog.records if r.name == "sentagree.classify" and r.levelno == logging.DEBUG]
    assert len(records) == 1
    assert "(-1,) vs (1,)" in records[0].getMessage()
    assert "max_epochs=1" in records[0].getMessage()
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="sentagree.classify"):
        model = train_sentiment(stack(vectors), y, Variant.NEUTRAL_ZONE, TIGHT)
    assert model.planes["polarity"].converged is True
    assert not [r for r in caplog.records if r.name == "sentagree.classify"]


def test_train_binary_same_seed_reproduces_bitwise() -> None:
    vectors, y = separable_line()
    a = train_binary(stack(vectors), y, TrainConfig(seed=7))
    b = train_binary(stack(vectors), y, TrainConfig(seed=7))
    assert np.array_equal(a.weights, b.weights)
    assert a.bias == b.bias
    assert a.dual_objectives == b.dual_objectives


def test_train_binary_rejects_degenerate_inputs() -> None:
    rows = stack(separable_line()[0])
    with pytest.raises(EvaluationError, match="empty"):
        train_binary(rows.select([]), [])
    with pytest.raises(EvaluationError, match="single class"):
        train_binary(rows, [1, 1, 1, 1])
    with pytest.raises(EvaluationError, match=r"\+1/-1"):
        train_binary(rows, [0, 1, 1, 1])
    with pytest.raises(EvaluationError, match=r"\+1/-1"):
        train_binary(rows, [-1, 1, 1])


def test_upper_bounds_bind_on_margin_violations() -> None:
    # the overlapping negative example at 0.5 sits at its box bound, so
    # a smaller cost must move the solution
    xs = [-2.0, -1.0, 0.5, 1.0, 2.0]
    vectors = stack([vec([x], 1) for x in xs])
    y = [-1, -1, -1, 1, 1]
    plain = train_binary(vectors, y, TrainConfig(cost=1.0, tol=1e-10, max_epochs=3000))
    capped = train_binary(vectors, y, TrainConfig(cost=0.25, tol=1e-10, max_epochs=3000))
    assert not (
        np.allclose(plain.weights, capped.weights)
        and np.isclose(plain.bias, capped.bias)
    )
    for model, cost in ((plain, 1.0), (capped, 0.25)):
        expected = oracles.svm_dual_optimum(np.array([[x] for x in xs]), y, cost)
        assert model.dual_objectives[-1] == pytest.approx(expected, abs=1e-6, rel=1e-6)


def test_train_config_validation() -> None:
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="cost must be positive and finite"):
            TrainConfig(cost=bad)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            TrainConfig(tol=bad)
    with pytest.raises(ValueError, match="max_epochs"):
        TrainConfig(max_epochs=0)
    with pytest.raises(ValueError, match="bin_grid"):
        TrainConfig(bin_grid=0)
    with pytest.raises(ValueError, match="bin_grid must be <= 1000, got 1001"):
        TrainConfig(bin_grid=1001)
    for bad in (-1, 1.5, "0", None, True):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            TrainConfig(seed=bad)
    assert TrainConfig(seed=np.int64(3)).seed == 3
    # the integer fields follow bootstrap_ci's rule; a float failed only inside training, with a TypeError
    for field, bad, message in (("max_epochs", 2.5, "max_epochs must be a positive integer, got 2.5"),
                                ("max_epochs", True, "max_epochs must be a positive integer, got True"),
                                ("bin_grid", 2.5, "bin_grid must be an integer, got 2.5")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrainConfig(**{field: bad})
    assert TrainConfig(max_epochs=np.int32(3), bin_grid=np.int64(2)).bin_grid == 2


# --- variant training --------------------------------------------------------


def toy_corpus(dup: int = 10):
    protos = {-1: [2.0, 0.0, 0.0], 0: [0.0, 2.0, 0.0], 1: [0.0, 0.0, 2.0]}
    vectors, labels = [], []
    for code, proto in protos.items():
        vectors.extend(vec(proto) for _ in range(dup))
        labels.extend([code] * dup)
    return vectors, labels


@pytest.mark.parametrize("variant", list(Variant))
def test_every_variant_fits_its_training_data(variant: Variant) -> None:
    vectors, labels = toy_corpus()
    model = train_sentiment(stack(vectors), labels, variant)
    assert model.variant is variant
    assert predict_batch(model, stack(vectors)).tolist() == labels


def test_neutral_zone_handles_ordinal_geometry() -> None:
    # neutral sits between the polar prototypes instead of on its own axis
    protos = {-1: [2.0, 0.0], 0: [1.0, 1.0], 1: [0.0, 2.0]}
    vectors, labels = [], []
    for code, proto in protos.items():
        vectors.extend(vec(proto) for _ in range(10))
        labels.extend([code] * 10)
    model = train_sentiment(stack(vectors), labels, Variant.NEUTRAL_ZONE)
    assert model.neutral_zone is not None and model.neutral_zone >= 0.0
    assert predict_batch(model, stack(vectors)).tolist() == labels


def test_neutral_zone_plane_is_trained_on_the_validation_splits_training_part() -> None:
    rng = np.random.default_rng(2)
    rows = stack([vec(rng.integers(0, 3, size=6).astype(float), 6) for _ in range(60)])
    labels = rng.integers(-1, 2, size=60)
    train_idx, val_idx = classify._validation_split(labels, seed=0)
    assert val_idx.size > 0  # the split holds rows out
    config = TrainConfig(seed=0)
    plane = classify._train_plane(rows, labels, classify._VALIDATION_PLANE, config)
    direct = classify._train_plane(rows.select(train_idx), labels[train_idx], ((-1,), (1,)), config)
    assert np.array_equal(plane.weights, direct.weights) and plane.bias == direct.bias


def tuned_zone(values: np.ndarray, gold: np.ndarray) -> float:
    """The zone ``_tune_neutral_zone`` picks when the held-out split is all
    of ``gold`` and the trained plane's decision values on it are ``values``."""
    rows = SimpleNamespace(select=lambda rows: rows)
    with patch.object(classify, "_validation_split", lambda labels, seed: (np.arange(0), np.arange(gold.size))), \
            patch.object(classify, "_decision_values", lambda planes, rows: values[None, :]):
        return classify._tune_neutral_zone(rows, gold, TrainConfig(), "plane")


@st.composite
def zone_inputs(draw):
    n = draw(st.integers(0, 300))
    # few magnitudes give tied candidates, many give more than 200 of them
    top = draw(st.sampled_from([2, 16, 4096]))
    values = np.array(draw(st.lists(st.integers(-top, top), min_size=n, max_size=n)), dtype=np.float64) / 7.0
    codes = draw(st.sampled_from([(0,), (1,), (-1, 1), (-1, 0, 1)]))  # one code: every zone undefined or not
    gold = np.array(draw(st.lists(st.sampled_from(codes), min_size=n, max_size=n)), dtype=np.int64)
    return values, gold


@settings(max_examples=150, deadline=None)
@given(zone_inputs())
def test_stacked_neutral_zone_tuning_matches_the_per_candidate_loop(inputs) -> None:
    values, gold = inputs
    assert tuned_zone(values, gold) == oracles.neutral_zone_reference(values, gold)


def test_neutral_zone_tuning_over_quantile_candidates_and_undefined_splits() -> None:
    rng = np.random.default_rng(3)
    values = np.round(rng.normal(size=800), 3)  # rounded: tied magnitudes, and more than 200 of them
    gold = np.sign(values + rng.normal(scale=0.7, size=800)).astype(np.int64)
    assert np.unique(np.abs(values)).size > 200
    zone = tuned_zone(values, gold)
    assert zone > 0.0 and zone == oracles.neutral_zone_reference(values, gold)
    # no candidate defined: all labels neutral, or no held-out post at all
    for values, gold in ((np.zeros(5), np.zeros(5, np.int64)), (np.zeros(0), np.zeros(0, np.int64))):
        assert tuned_zone(values, gold) == oracles.neutral_zone_reference(values, gold) == 0.0


def test_train_sentiment_validation() -> None:
    vectors, labels = toy_corpus(dup=2)
    with pytest.raises(EvaluationError, match="empty"):
        train_sentiment(stack(vectors).select([]), [])
    with pytest.raises(EvaluationError, match="length"):
        train_sentiment(stack(vectors), labels[:-1])
    polar_only = [v for v, l in zip(vectors, labels) if l != 0]
    with pytest.raises(EvaluationError, match=r"missing class.*\[0\]"):
        train_sentiment(stack(polar_only), [l for l in labels if l != 0])


@pytest.mark.parametrize("variant", [Variant.TWO_PLANE, Variant.NAIVE_BAYES])
def test_train_sentiment_rejects_out_of_range_label_codes(variant: Variant) -> None:
    vectors, labels = toy_corpus(dup=2)
    labels[3] = 5
    labels[4] = -2
    with pytest.raises(EvaluationError, match="label code 5 is not -1, 0 or"):
        train_sentiment(stack(vectors), labels, variant)


@pytest.mark.parametrize("variant", [Variant.TWO_PLANE, Variant.NAIVE_BAYES])
def test_train_sentiment_checks_label_codes_before_any_cast(variant: Variant) -> None:
    # an int() cast would train 1.7 as +1 and 0.4 as 0
    vectors, labels = toy_corpus(dup=2)
    with pytest.raises(EvaluationError, match=r"^label code 1\.7 is not -1, 0 or \+1$"):
        train_sentiment(stack(vectors), [1.7, *labels[1:4], 0.4, *labels[5:]], variant)
    as_floats = train_sentiment(stack(vectors), [float(code) for code in labels], variant)
    assert predict_batch(as_floats, stack(vectors)).tolist() == labels


def test_variant_accepts_its_string_name() -> None:
    vectors, labels = toy_corpus(dup=3)
    model = train_sentiment(stack(vectors), labels, "NaiveBayes")
    assert model.variant is Variant.NAIVE_BAYES
    with pytest.raises(ValueError):
        train_sentiment(stack(vectors), labels, "GradientBoost")


# --- prediction rules on crafted planes ---------------------------------------


def axis_planes(names: tuple[str, ...]) -> dict[str, LinearModel]:
    dim = len(names)
    return {
        name: LinearModel(weights=np.eye(dim)[i], bias=0.0)
        for i, name in enumerate(names)
    }


def two_plane_model(**extra) -> SentimentModel:
    return SentimentModel(
        variant=extra.pop("variant", Variant.TWO_PLANE),
        dim=2,
        planes=axis_planes(("neg_vs_rest", "rest_vs_pos")),
        **extra,
    )


@pytest.mark.parametrize(
    ("point", "expected"),
    [
        ((-1.0, -1.0), SentimentLabel.NEGATIVE),  # only plane A fires
        ((2.0, 1.0), SentimentLabel.POSITIVE),  # only plane B fires
        ((1.0, -1.0), SentimentLabel.NEUTRAL),  # middle region
        ((0.0, 0.0), SentimentLabel.NEUTRAL),  # both boundaries are neutral
        ((-2.0, 1.0), SentimentLabel.NEGATIVE),  # contradiction: |dA| wins
        ((-1.0, 2.0), SentimentLabel.POSITIVE),  # contradiction: |dB| wins
        ((-1.0, 1.0), SentimentLabel.NEGATIVE),  # contradiction tie -> negative
    ],
)
def test_two_plane_rule(point, expected) -> None:
    model = two_plane_model()
    label, confidence = predict(model, vec(point, 2))
    assert label is expected
    assert confidence is None


def test_two_plane_sweep_is_monotone() -> None:
    model = two_plane_model()
    rng = np.random.default_rng(23)
    for _ in range(100):
        d_a = np.sort(rng.uniform(-2.0, 2.0, size=50))
        d_b = np.sort(rng.uniform(-2.0, 2.0, size=50))
        labels = [int(predict(model, vec(p, 2))[0]) for p in zip(d_a, d_b)]
        assert labels == sorted(labels)


def crafted_bins() -> BinTable:
    counts = np.zeros((4, 4, 3), dtype=np.int64)
    counts[1, 1] = (3, 1, 0)
    counts[0, 3] = (0, 0, 2)
    return BinTable(
        grid=2,
        edges_a=np.linspace(0.0, 1.0, 3),
        edges_b=np.linspace(0.0, 1.0, 3),
        counts=counts,
    )


def test_bin_cell_indexing() -> None:
    bins = crafted_bins()
    assert bins.cell(0.0, 0.0) == (1, 1)
    assert bins.cell(0.25, 0.75) == (1, 2)
    assert bins.cell(0.5, 1.0) == (2, 2)  # top edge folds into the last cell
    assert bins.cell(-0.1, 1.2) == (0, 3)  # overflow cells


def test_bin_cell_indexing_degenerate_axis() -> None:
    flat = BinTable(
        grid=2,
        edges_a=np.full(3, 0.5),
        edges_b=np.linspace(0.0, 1.0, 3),
        counts=np.zeros((4, 4, 3), dtype=np.int64),
    )
    assert flat.cell(0.4, 0.0)[0] == 0
    assert flat.cell(0.5, 0.0)[0] == 1
    assert flat.cell(0.6, 0.0)[0] == 3


def test_bin_prediction_majority_confidence_and_fallback() -> None:
    model = two_plane_model(variant=Variant.TWO_PLANE_BIN, bins=crafted_bins())
    label, confidence = predict(model, vec((0.25, 0.25), 2))
    assert label is SentimentLabel.NEGATIVE
    assert confidence == pytest.approx(0.75)
    label, confidence = predict(model, vec((-0.5, 2.0), 2))
    assert label is SentimentLabel.POSITIVE
    assert confidence == pytest.approx(1.0)
    # empty cell falls back to the geometric rule, which has no confidence
    label, confidence = predict(model, vec((0.75, 0.75), 2))
    assert label is SentimentLabel.POSITIVE
    assert confidence is None


def test_trained_bin_model_is_confident_on_pure_cells() -> None:
    vectors, labels = toy_corpus()
    model = train_sentiment(stack(vectors), labels, Variant.TWO_PLANE_BIN)
    for x, expected in zip(vectors, labels):
        label, confidence = predict(model, x)
        assert int(label) == expected
        assert confidence == pytest.approx(1.0)


def test_cascading_predicts_neutral_iff_objective_side() -> None:
    model = SentimentModel(
        variant=Variant.CASCADING,
        dim=2,
        planes=axis_planes(("subjectivity", "polarity")),
    )
    assert predict(model, vec((), 2))[0] is SentimentLabel.NEUTRAL  # boundary
    assert predict(model, vec((-1.0, 5.0), 2))[0] is SentimentLabel.NEUTRAL
    assert predict(model, vec((1.0, -1.0), 2))[0] is SentimentLabel.NEGATIVE
    assert predict(model, vec((1.0, 1.0), 2))[0] is SentimentLabel.POSITIVE
    assert predict(model, vec((1.0, 0.0), 2))[0] is SentimentLabel.POSITIVE  # boundary


def three_plane_model(counts: np.ndarray) -> SentimentModel:
    return SentimentModel(
        variant=Variant.THREE_PLANE,
        dim=3,
        planes=axis_planes(("neg_vs_neu", "neu_vs_pos", "neg_vs_pos")),
        subspaces=SubspaceTable(counts),
    )


def test_three_plane_subspace_majority_and_tie() -> None:
    counts = np.zeros((8, 3), dtype=np.int64)
    counts[7] = (0, 5, 2)  # all-positive signs, neutral majority
    counts[0] = (3, 3, 0)  # tie -> smaller code
    model = three_plane_model(counts)
    assert predict(model, vec((1.0, 1.0, 1.0)))[0] is SentimentLabel.NEUTRAL
    assert predict(model, vec((-1.0, -1.0, -1.0)))[0] is SentimentLabel.NEGATIVE


def test_three_plane_empty_subspace_votes() -> None:
    model = three_plane_model(np.zeros((8, 3), dtype=np.int64))
    # each plane backs one side; two votes beat one
    assert predict(model, vec((1.0, 1.0, 1.0)))[0] is SentimentLabel.POSITIVE
    assert predict(model, vec((-1.0, -1.0, -1.0)))[0] is SentimentLabel.NEGATIVE
    # one vote each: summed magnitude, then the smaller code, breaks the tie
    assert predict(model, vec((2.0, 1.0, -1.0)))[0] is SentimentLabel.NEUTRAL
    assert predict(model, vec((1.0, 3.0, -1.0)))[0] is SentimentLabel.POSITIVE
    assert predict(model, vec((1.0, 1.0, -1.0)))[0] is SentimentLabel.NEGATIVE


def test_naive_bayes_posterior_by_hand() -> None:
    vectors = [vec([2.0, 0.0]), vec([2.0, 0.0]), vec([1.0, 1.0]), vec([0.0, 2.0])]
    labels = [-1, -1, 0, 1]
    model = train_sentiment(stack(vectors), labels, Variant.NAIVE_BAYES)
    assert model.nb is not None
    assert model.nb.doc_counts.tolist() == [2, 1, 1]
    assert model.nb.term_counts.tolist() == [[4.0, 0.0], [1.0, 1.0], [0.0, 2.0]]

    label, confidence = predict(model, vec([1.0, 0.0]))
    assert label is SentimentLabel.NEGATIVE
    assert confidence == pytest.approx(20.0 / 29.0, abs=1e-12)

    label, confidence = predict(model, vec([0.0, 3.0]))
    assert label is SentimentLabel.POSITIVE
    assert confidence == pytest.approx(729.0 / 961.0, abs=1e-12)

    # an empty document falls back to the label priors
    label, confidence = predict(model, vec((), 2))
    assert label is SentimentLabel.NEGATIVE
    assert confidence == pytest.approx(0.5, abs=1e-12)


def noisy_corpus(rng, n: int, dim: int):
    """Count vectors whose label only tilts one term, so every table
    mixes labels and the planes leave rows on both sides."""
    labels = rng.choice([-1, 0, 1], size=n)
    labels[:3] = (-1, 0, 1)
    vectors = []
    for code in labels:
        dense = rng.poisson(0.5, size=dim).astype(float)
        dense[code + 1] += rng.poisson(1.0)
        vectors.append(vec(dense))
    return vectors, labels.tolist()


@pytest.mark.parametrize("variant", list(Variant))
def test_batched_rules_match_the_row_reference(variant: Variant) -> None:
    rng = np.random.default_rng(list(Variant).index(variant))
    vectors, labels = noisy_corpus(rng, 90, 6)
    tests, _ = noisy_corpus(rng, 60, 6)
    model = train_sentiment(stack(vectors), labels, variant, TrainConfig(bin_grid=3, max_epochs=20))
    models = [model]
    # emptied table rows send rows to the geometric and voting fallbacks
    if model.bins is not None:
        keep = rng.random(model.bins.counts.shape[:2]) < 0.5
        bins = dataclasses.replace(model.bins, counts=model.bins.counts * keep[..., None])
        models.append(dataclasses.replace(model, bins=bins))
    if model.subspaces is not None:
        counts = model.subspaces.counts * (rng.random(8) < 0.4)[:, None]
        models.append(dataclasses.replace(model, subspaces=SubspaceTable(counts)))
    for m in models:
        rows = tests + vectors + [vec((), 6)]
        expected = [oracles.predict_row(m, x) for x in rows]
        assert predict_batch(m, stack(rows)).tolist() == [code for code, _ in expected]
        assert [(int(label), conf) for label, conf in (predict(m, x) for x in rows)] == expected


def test_predict_batch_of_no_rows() -> None:
    vectors, labels = toy_corpus(dup=3)
    for variant in Variant:
        codes = predict_batch(train_sentiment(stack(vectors), labels, variant), stack(vectors).select([]))
        assert codes.dtype == np.int64 and codes.shape == (0,)


def test_decision_values_are_left_to_right_sums_bit_for_bit() -> None:
    # a BLAS dot sums in a CPU-dependent order; each row must sum in its stored order
    rng = np.random.default_rng(41)
    dim = 500
    weights = rng.normal(size=dim) * 10.0 ** rng.integers(-4, 5, size=dim)
    plane = LinearModel(weights=weights, bias=float(rng.normal()))
    rows = []
    for size in rng.integers(3, 129, size=200).tolist():
        idx = np.sort(rng.choice(dim, size=size, replace=False))
        rows.append(CountRows([0, size], idx, rng.normal(size=size) * 10.0 ** rng.integers(-2, 3, size=size), dim))
    expected = [oracles.row_dot(row, weights) + plane.bias for row in rows]
    assert _decision_values([plane], stack(rows))[0].tolist() == expected


def test_predict_checks_dimension() -> None:
    model = two_plane_model()
    with pytest.raises(EvaluationError, match="dimension"):
        predict(model, vec((1.0, 1.0, 1.0)))
    with pytest.raises(EvaluationError, match="dimension"):
        predict_batch(model, stack([vec((1.0, 1.0, 1.0))] * 2))


def test_predict_takes_one_row() -> None:
    with pytest.raises(EvaluationError, match="one row, got 2"):
        predict(two_plane_model(), stack([vec((1.0, 1.0))] * 2))


# --- serialization -----------------------------------------------------------


#: A vocabulary of toy_corpus's three dimensions, with a bigram.
TOY_VOCAB = Vocabulary(("bad", "bad day", "good"), np.array([8, 3, 8]), n_docs=24, min_df=2, ngrams=(1, 2))


def same_vocabulary(a: Vocabulary, b: Vocabulary) -> bool:
    return (a.terms, a.doc_freq.tolist(), a.n_docs, a.min_df, a.ngrams) == (
        b.terms, b.doc_freq.tolist(), b.n_docs, b.min_df, b.ngrams)


@pytest.mark.parametrize("variant", list(Variant))
def test_model_round_trip(tmp_path, variant: Variant) -> None:
    # random counts, so that weights and edges are floats of any bits
    rng = np.random.default_rng(3)
    rows = CountRows(np.arange(31) * 3, np.tile(np.arange(3), 30), rng.integers(1, 4, size=90).astype(float), 3)
    for vocab in (TOY_VOCAB, None):
        model = train_sentiment(rows, [-1, 0, 1] * 10, variant, TrainConfig(bin_grid=3), vocab)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_model(model, first)
        loaded = load_model(first)
        save_model(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert loaded.variant is variant
        assert loaded.dim == model.dim
        assert loaded.vocab is None if vocab is None else same_vocabulary(loaded.vocab, vocab)
        assert sorted(loaded.planes) == sorted(model.planes)
        for name, plane in model.planes.items():
            assert loaded.planes[name].weights.tobytes() == plane.weights.tobytes()
            assert loaded.planes[name].bias.hex() == float(plane.bias).hex()
        singles = [rows.select([i]) for i in range(len(rows))]
        assert [predict(loaded, x) for x in singles] == [predict(model, x) for x in singles]
        document = json.loads(first.read_text(encoding="utf-8"), parse_constant=pytest.fail)
        assert (document["format"], document["version"]) == ("sentagree-model", 3)


def test_model_saved_without_a_vocabulary_loads_without_one(tmp_path) -> None:
    vectors, labels = toy_corpus(dup=4)
    path = tmp_path / "model.json"
    save_model(train_sentiment(stack(vectors), labels, Variant.NAIVE_BAYES), path)
    assert load_model(path).vocab is None
    assert "vocabulary" not in json.loads(path.read_text(encoding="utf-8"))


def test_train_sentiment_rejects_a_vocabulary_of_another_dimension() -> None:
    vectors, labels = toy_corpus(dup=4)
    short = Vocabulary(("bad", "good"), np.array([8, 8]), n_docs=24, min_df=2, ngrams=(1,))
    with pytest.raises(EvaluationError, match="vocabulary of 2 terms for rows of dimension 3"):
        train_sentiment(stack(vectors), labels, Variant.TWO_PLANE, vocab=short)


@pytest.mark.parametrize("term", ["a\tb", "a\nb", "a\rb", "a\u2028b"], ids=["tab", "newline", "return", "separator"])
def test_save_model_round_trips_delimiter_terms(tmp_path, term) -> None:
    vectors, labels = toy_corpus(dup=4)
    vocab = Vocabulary((term, "c", "d"), np.array([2, 2, 2]), n_docs=2, min_df=1, ngrams=(1,))
    path = tmp_path / "model.json"
    save_model(train_sentiment(stack(vectors), labels, Variant.TWO_PLANE, vocab=vocab), path)
    assert path.read_bytes().count(b"\n") == 1  # one line, whatever the terms hold
    assert load_model(path).vocab.terms == (term, "c", "d")


def test_load_model_rejects_bad_files(tmp_path) -> None:
    files = {
        "hello\n": "not a model file",
        '{"format": "other", "version": 3}': "not a model file$",
        "[1, 2]": "not a model file$",
        '{"format": "sentagree-model", "version": 99}': "unsupported model version 99",
        '{"format": "sentagree-model", "version": "3"}': "unsupported model version '3'",
        '{"format": "sentagree-model", "version": 3.0}': "unsupported model version 3.0",
        '{"format": "sentagree-model", "version": 3, "version": 3}': "malformed model file .*key 'version' repeats",
        '{"format": "sentagree-model", "version": 3, "variant": "TwoPlaneSVM"': "not a model file",
        "sentagree-model 2\nvariant TwoPlaneSVM\ndim 2\n": "unsupported model version '2'",
    }
    for i, (text, message) in enumerate(files.items()):
        path = tmp_path / f"{i}.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)
    not_utf8 = tmp_path / "not-utf8.json"
    not_utf8.write_bytes(b'{"format": "sentagree-model", "\xff": 3}')
    with pytest.raises(ModelFormatError, match="not UTF-8 text .*0xff"):
        load_model(not_utf8)


def saved_model_text(tmp_path, variant: Variant, vocab: Vocabulary | None = TOY_VOCAB) -> str:
    vectors, labels = toy_corpus(dup=4)
    path = tmp_path / f"{variant.value}-{vocab is not None}.json"
    save_model(train_sentiment(stack(vectors), labels, variant, TrainConfig(bin_grid=2), vocab), path)
    return path.read_text(encoding="utf-8")


def edit(*keys, value=None, drop: bool = False, apply=None):
    """An edit of a parsed model document: the value at ``keys`` (object
    keys and list indices; a ``None`` key is the first member of an
    object) replaced by ``value``, dropped, or passed through ``apply``."""
    def change(document: dict) -> None:
        *path, last = keys
        for key in path:
            document = document[next(iter(document)) if key is None else key]
        last = next(iter(document)) if last is None else last
        if drop:
            del document[last]
        else:
            document[last] = apply(document[last]) if apply else value
    return change


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    ("variant", "change", "message"),
    [
        (Variant.TWO_PLANE_BIN, edit("bins", "cells", 0, 0, value=-1), "bins cells .*non-negative"),
        (Variant.TWO_PLANE_BIN, edit("bins", "cells", 0, 0, value=9), "outside a grid of 2"),
        (Variant.TWO_PLANE_BIN, edit("bins", "cells", 0, 3, value=-2), "non-negative"),
        (Variant.TWO_PLANE_BIN, edit("bins", "edges_a", value=[0.0, 1.0]), r"bins edges_a must be .* shape \(3,\)"),
        (Variant.TWO_PLANE_BIN, edit("bins", drop=True), "holds .*'bins'"),
        (Variant.TWO_PLANE, edit("planes", None, drop=True), "needs planes"),
        (Variant.CASCADING, edit("planes", None, drop=True), "needs planes"),
        (Variant.THREE_PLANE, edit("subspaces", 3, 0, value=-1), "subspaces must be .*non-negative"),
        (Variant.NAIVE_BAYES, edit("nb", "docs", value=[4, -4, 4]), "non-negative"),
        (Variant.NAIVE_BAYES, edit("nb", "docs", 0, value=10**25), "too large to convert"),
        (Variant.NAIVE_BAYES, edit("nb", "docs", value=[2**62] * 3), r"nb docs must sum to less than 2\*\*63"),
        (Variant.TWO_PLANE_BIN, edit("bins", "cells", 0, apply=lambda cell: cell[:2] + [2**62, 0, 2**62]),
         r"a bin cell's counts must sum to less than 2\*\*63"),
        (Variant.THREE_PLANE, edit("subspaces", 5, value=[2**62, 2**62, 1]),
         r"a subspace's counts must sum to less than 2\*\*63"),
        (Variant.TWO_PLANE, edit("planes", None, "weights", 0, value=NAN), "weights must be finite"),
        (Variant.NAIVE_BAYES, edit("nb", "docs", value=[0, 1, 1]), r"a document of every class, got \[0, 1, 1\]"),
        (Variant.NAIVE_BAYES, edit("nb", "counts", 1, 0, value=INF), "nb counts must be finite"),
        (Variant.NEUTRAL_ZONE, edit("neutral_zone", value=NAN), "neutral_zone must be finite"),
        (Variant.NEUTRAL_ZONE, edit("neutral_zone", value=-1.0), "neutral_zone must be non-negative, got -1.0"),
        (Variant.NEUTRAL_ZONE, edit("neutral_zone", value=INF), "neutral_zone must be finite"),
        (Variant.TWO_PLANE, edit("vocabulary", "terms", apply=lambda t: t[:-1]), "needs 3 terms"),
        (Variant.TWO_PLANE, edit("vocabulary", "terms", apply=lambda t: t + ["extra"]), "needs 3 terms"),
        (Variant.TWO_PLANE, edit("vocabulary", "doc_freq", apply=lambda f: f[:-1]), r"doc_freq must be .*\(3,\)"),
        (Variant.TWO_PLANE, edit("vocabulary", "terms", 1, value="bad"), "term 'bad' repeats"),
        (Variant.TWO_PLANE, edit("vocabulary", "doc_freq", 1, value=-5), r"outside \[0, n_docs = 24\]"),
        (Variant.TWO_PLANE, edit("vocabulary", "doc_freq", 2, value=25), r"outside \[0, n_docs = 24\]"),
        (Variant.TWO_PLANE, edit("vocabulary", "ngrams", value=[0, -2]), r"\(ngrams .* got \(0, -2\)\)"),
        (Variant.TWO_PLANE, edit("vocabulary", "min_df", value=2.5), "min_df must be a positive integer, got 2.5"),
        (Variant.TWO_PLANE, edit("vocabulary", "n_docs", value=-1), "n_docs must be a non-negative integer, got -1"),
        (Variant.TWO_PLANE, edit("vocabulary", "n_docs", drop=True), "vocabulary must be an object of"),
        (Variant.TWO_PLANE, edit("vocabulary", apply=lambda v: {"terms": v["terms"]}), "vocabulary must be an object"),
        (Variant.TWO_PLANE, edit("version", value=1), "unsupported model version 1"),
        # what JSON can hold and the line format could not
        (Variant.TWO_PLANE, edit("dim", value=True), "dim must be a non-negative integer, got True"),
        (Variant.TWO_PLANE, edit("planes", None, "weights", 1, value=False), "weights must be numbers"),
        (Variant.TWO_PLANE, edit("planes", None, "bias", value="0.5"), "bias must be numbers of shape"),
        (Variant.TWO_PLANE, edit("planes", None, "weights", value={"0": 1.0}), "weights must be numbers"),
        (Variant.TWO_PLANE, edit("planes", None, "weights", 2, value=[1.0]), "weights must be numbers"),
        (Variant.TWO_PLANE, edit("planes", None, "weights", 2, value=None), "weights must be numbers"),
        (Variant.TWO_PLANE, edit("planes", None, value=[0.5, [1.0, 2.0, 3.0]]), "must be an object of"),
        (Variant.TWO_PLANE_BIN, edit("bins", "grid", value=True), "bin_grid must be an integer, got True"),
        (Variant.TWO_PLANE_BIN, edit("bins", "grid", value=1001), "bin_grid must be <= 1000, got 1001"),
        (Variant.TWO_PLANE_BIN, edit("bins", "cells", 0, 2, value=1.0), "bins cells must be integers"),
        (Variant.THREE_PLANE, edit("subspaces", apply=lambda s: s[:-1]), r"subspaces must be .* shape \(8, 3\)"),
        (Variant.NAIVE_BAYES, edit("nb", "counts", 0, 0, value=2.0**64), r"nb counts must be .*below 2\*\*63"),
        (Variant.NAIVE_BAYES, edit("vocabulary", "doc_freq", 0, value=2**70), "too large to convert"),
        (Variant.TWO_PLANE, edit("vocabulary", "terms", 0, value=1), "needs 3 terms"),
        (Variant.TWO_PLANE, edit("vocabulary", "ngrams", value=[True]), "ngrams must be integers"),
        (Variant.TWO_PLANE, edit("vocabulary", value=None), "vocabulary must be an object of"),
        (Variant.TWO_PLANE, edit("neutral_zone", value=0.5), "holds .* found .*'neutral_zone'"),
        (Variant.NEUTRAL_ZONE, edit("variant", value="Unknown"), "'Unknown' is not a valid Variant"),
    ],
    ids=["negative-bin-index", "bin-index-past-grid", "negative-bin-count", "short-edges",
         "missing-bin-table", "missing-plane", "missing-cascade-plane", "negative-subspace",
         "negative-doc-count", "doc-count-past-64-bits", "doc-counts-summing-past-64-bits",
         "bin-counts-summing-past-64-bits", "subspace-counts-summing-past-64-bits",
         "nan-weight", "zero-doc-count", "infinite-term-count",
         "nan-neutral-zone", "negative-neutral-zone", "infinite-neutral-zone",
         "missing-term-row", "extra-term-row", "short-term-row",
         "repeated-term", "negative-doc-freq", "doc-freq-past-n-docs",
         "vocabulary-ngram-below-one", "fractional-min-df", "negative-n-docs", "missing-n-docs",
         "term-rows-without-header", "version-1",
         "bool-dim", "bool-weight", "string-bias", "object-weights", "list-weight", "null-weight", "list-plane",
         "bool-grid", "grid-past-1000", "float-bin-count", "short-subspaces", "term-count-past-64-bits",
         "doc-freq-past-64-bits",
         "number-term", "bool-ngram", "null-vocabulary", "stray-table", "unknown-variant"],
)
def test_load_model_checks_structure(tmp_path, variant, change, message) -> None:
    document = json.loads(saved_model_text(tmp_path, variant))
    change(document)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    with pytest.raises(ModelFormatError, match=message):
        load_model(path)


@pytest.fixture(scope="module")
def model_files(tmp_path_factory) -> list[str]:
    directory = tmp_path_factory.mktemp("models")
    return [saved_model_text(directory, variant, vocab) for variant in Variant for vocab in (None, TOY_VOCAB)]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_load_model_fuzz_raises_only_format_errors(tmp_path, model_files, data) -> None:
    path = tmp_path / "fuzzed.json"
    path.write_bytes(data.draw(damaged_model(data.draw(st.sampled_from(model_files)))))
    try:
        model = load_model(path)
    except SentagreeError:
        return
    assert model.vocab is None or model.vocab.dim == model.vocab.doc_freq.size == model.dim
    rows = stack([vec(np.ones(model.dim)), vec((), model.dim)])
    try:
        predict_batch(model, rows)
    except SentagreeError:
        pass
