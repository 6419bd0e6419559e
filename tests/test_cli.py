"""End-to-end command-line runs over small temporary corpora."""

from __future__ import annotations

import argparse
import csv
import errno
import json
import multiprocessing
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sentagree import classify, cli, corpus, evaluation
from sentagree.cli import main
from sentagree.corpus import GoldPost, SentimentLabel

from conftest import (
    NEG_WORDS, NEU_WORDS, POS_WORDS, count_passes, count_planes, fuzzed_table, separable_corpus, shift_corpus,
    write_table,
)

MEASURE_ORDER = ["acc_within_1", "accuracy", "f1_bar", "alpha_interval", "alpha_nominal"]
VARIANTS = [v.value for v in classify.Variant]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_pair_table(path, pairs):
    """One post per pair, annotated once by each of two coders."""
    rows = []
    for i, (a, b) in enumerate(pairs):
        rows.append((f"p{i}", SentimentLabel(a).to_string(), "ann1",
                     "2014-01-01 10:00:00", "some text here"))
        rows.append((f"p{i}", SentimentLabel(b).to_string(), "ann2",
                     "2014-01-01 10:00:00", "some text here"))
    write_table(path, rows)
    return path


MIXED_PAIRS = (
    [(-1, -1)] * 4 + [(0, 0)] * 4 + [(1, 1)] * 4
    + [(-1, 0)] * 2 + [(0, 1)] * 2 + [(-1, 1)]
)


@pytest.fixture()
def gold_csv(tmp_path):
    path = tmp_path / "tidy.csv"
    corpus.save_gold(separable_corpus(45, seed=5), path)
    return path


def patterned_gold(n):
    codes = [-1, 0, 1]
    texts = {
        -1: " ".join(NEG_WORDS[:3]),
        0: " ".join(NEU_WORDS[:3]),
        1: " ".join(POS_WORDS[:3]),
    }
    return [
        GoldPost(post_id=f"g{i}", label=SentimentLabel(codes[i % 3]),
                 text=texts[codes[i % 3]])
        for i in range(n)
    ]


# --- agreement ----------------------------------------------------------------


def test_agreement_json_layout(annotations_csv, capsys):
    code, out, err = run(["agreement", "--input", str(annotations_csv)], capsys)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["command"] == "agreement"
    assert payload["seed"] == 0
    rows = payload["rows"]
    assert len(rows) == 2 * 5  # both pair kinds, all five measures
    assert [r["kind"] for r in rows] == ["self"] * 5 + ["inter"] * 5
    assert [r["measure"] for r in rows] == MEASURE_ORDER * 2
    assert all(r["dataset"] == annotations_csv.stem for r in rows)
    defined = [r for r in rows if r["point"] is not None]
    assert defined, "at least one measure should be estimable"
    for row in defined:
        assert row["low"] <= row["point"] <= row["high"]


def test_agreement_measure_filter(annotations_csv, capsys):
    code, out, _ = run(
        ["agreement", "--input", str(annotations_csv), "--measure", "accuracy"], capsys
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["measure"] for r in rows] == ["accuracy", "accuracy"]


def test_agreement_reruns_are_byte_identical(tmp_path, capsys):
    source = write_pair_table(tmp_path / "coders.csv", MIXED_PAIRS)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    for out in (first, second):
        code, _, _ = run(
            ["agreement", "--input", str(source), "--seed", "7", "--out", str(out)],
            capsys,
        )
        assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_agreement_rejects_a_repeated_measure(annotations_csv, capsys):
    argv = ["agreement", "--input", str(annotations_csv),
            "--measure", "f1_bar", "--measure", "accuracy", "--measure", "accuracy"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: usage: --measure accuracy is given more than once\n", err)

@pytest.mark.parametrize("command", ["crossval", "curve"])
def test_cross_validating_commands_reject_a_repeated_measure(command, gold_csv, capsys):
    argv = [command, "--input", str(gold_csv), "--measure", "accuracy", "--measure", "accuracy"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: usage: --measure accuracy is given more than once\n", err)


def test_agreement_csv_uses_slash_for_undefined(tmp_path, capsys):
    rows = [
        (f"p{i}", "Neutral", "ann1", "2014-01-01 10:00:00", "text")
        for i in range(4)
    ]
    source = tmp_path / "solo.csv"
    write_table(source, rows)  # one annotator, one pass: no pairs at all
    code, out, _ = run(
        ["agreement", "--input", str(source), "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "dataset,kind,measure,n_pairs,point,low,high"
    assert lines[1] == "solo,self,acc_within_1,0,/,/,/"
    assert len(lines) == 11


# --- ordering -----------------------------------------------------------------


def test_ordering_average_skips_excluded(tmp_path, capsys):
    first = write_pair_table(tmp_path / "one.csv", MIXED_PAIRS)
    second = write_pair_table(tmp_path / "two.csv", MIXED_PAIRS + [(-1, 1)])
    code, out, _ = run(
        [
            "ordering",
            "--input", str(first),
            "--input", str(second),
            "--exclude", "two",
        ],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["dataset"] for r in rows] == ["one", "two", "AVERAGE"]
    assert rows[0]["excluded"] is False
    assert rows[1]["excluded"] is True
    for key in ("relative_gain", "dist_neg_neutral", "dist_pos_neutral"):
        assert rows[2][key] == rows[0][key]  # average over the single kept set
        assert rows[1][key] is not None  # excluded sets are still reported


@pytest.mark.parametrize(
    "pairs",
    [[], [(0, 0), (0, 1), (-1, 0), (0, 0)], [(-1, 1), (0, 0), (0, 0), (-1, 0), (0, 1)]],
    ids=["no-pairs", "no-extremes", "extremes-alpha-zero"],
)
def test_ordering_reports_a_dataset_without_diagnostics_as_excluded(pairs, tmp_path, capsys):
    kept = write_pair_table(tmp_path / "one.csv", MIXED_PAIRS)
    if pairs:
        undefined = write_pair_table(tmp_path / "two.csv", pairs)
    else:  # one annotation per post: no pairs at all
        undefined = write_table(tmp_path / "two.csv", [("p0", "Positive", "ann1", "2014-01-01 10:00:00", "text")])
    code, out, err = run(["ordering", "--input", str(kept), "--input", str(undefined)], capsys)
    assert (code, err) == (0, "")
    rows = json.loads(out)["rows"]
    assert [r["dataset"] for r in rows] == ["one", "two", "AVERAGE"]
    assert rows[1] == {"dataset": "two", "relative_gain": None, "dist_neg_neutral": None,
                       "dist_pos_neutral": None, "excluded": True}
    assert rows[2]["relative_gain"] == rows[0]["relative_gain"]  # the average is over the first set alone



def test_ordering_rejects_an_unknown_exclude(tmp_path, capsys):
    source = write_pair_table(tmp_path / "one.csv", MIXED_PAIRS)
    argv = ["ordering", "--input", str(source), "--exclude", "one", "--exclude", "nosuch"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: usage: --exclude nosuch names no input dataset\n", err)

def test_ordering_csv_cells_are_plain_numbers(tmp_path, capsys):
    source = write_pair_table(tmp_path / "one.csv", MIXED_PAIRS)
    code, out, _ = run(["ordering", "--input", str(source), "--format", "csv"], capsys)
    assert code == 0
    for line in out.splitlines()[1:]:
        dataset, *numbers, excluded = line.split(",")
        for cell in numbers:
            assert re.fullmatch(r"-?\d+(\.\d+)?(e-?\d+)?", cell), cell
        assert excluded in {"true", "false"}


# --- merge --------------------------------------------------------------------


def test_merge_round_trip_and_determinism(annotations_csv, tmp_path, capsys):
    first, second = tmp_path / "m1.csv", tmp_path / "m2.csv"
    for out in (first, second):
        code, _, _ = run(["merge", "--input", str(annotations_csv), "--out", str(out)], capsys)
        assert code == 0
    assert first.read_bytes() == second.read_bytes()
    reloaded = corpus.load_gold(first)
    direct = corpus.merge_gold(corpus.load_annotations(annotations_csv))
    assert (reloaded.post_ids, reloaded.label.tolist(), reloaded.merged_from.tolist()) == (
        direct.post_ids, direct.label.tolist(), direct.merged_from.tolist()
    )


def test_merge_writes_a_gold_file_crossval_reads_when_a_field_holds_a_carriage_return(tmp_path, capsys):
    # a quoted bare \r in a raw table's id and text; the gold file must quote it as well, or the reader ends a row there
    posts = separable_corpus(45, seed=5)
    raw = tmp_path / "raw.csv"
    with raw.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(["TweetID", "HandLabel", "AnnotatorID", "Date", "Text"])
        for i, post in enumerate(posts):
            writer.writerow([post.post_id.replace("t", "t\r", i == 0), post.label.to_string(), "ann1",
                             post.timestamp.isoformat(sep=" "), post.text.replace(" ", "\r", i % 2)])
    gold = tmp_path / "gold.csv"
    assert run(["merge", "--input", str(raw), "--out", str(gold)], capsys)[:2] == (0, "")
    code, out, err = run(["crossval", "--input", str(gold), "--variant", "NaiveBayes", "--k", "3"], capsys)
    assert (code, err) == (0, "")
    assert sum(map(sum, json.loads(out)["pooled_matrix"])) == 2 * 45  # every post scored once
    assert corpus.load_gold(gold).post_ids[0] == "t\r0"


def test_merge_of_a_table_without_rows_is_one_error(tmp_path, capsys):
    empty = write_table(tmp_path / "empty.csv", [])
    out = tmp_path / "gold.csv"
    code, _, err = run(["merge", "--input", str(empty), "--out", str(out)], capsys)
    assert (code, err) == (1, f"error: corpus-format: {empty}: no posts found\n")
    assert not out.exists()


def test_merge_and_prepare_build_no_gold_post(annotations_csv, gold_csv, tmp_path, capsys, monkeypatch):
    calls = []
    real = GoldPost.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(GoldPost, "__init__", counted)
    code, _, err = run(["merge", "--input", str(annotations_csv), "--out", str(tmp_path / "gold.csv")], capsys)
    assert code == 0, err
    assert calls == []
    gold = corpus.load_gold(gold_csv)
    evaluation.prepare(gold, min_df=1)
    assert calls == [] and len(gold) == 45
    GoldPost("p", SentimentLabel.NEUTRAL)
    assert len(calls) == 1  # the spy sees every post built


def test_merge_reads_its_table_once_and_keeps_its_delimiter(annotations_csv, tmp_path, capsys, monkeypatch):
    tsv = tmp_path / "mini.tsv"
    tsv.write_text(annotations_csv.read_text(encoding="utf-8").replace(",", "\t"), encoding="utf-8")
    opened = []

    def open_table(*args, real=corpus._open_table, **kwargs):
        opened.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(corpus, "_open_table", open_table)
    out = tmp_path / "gold.tsv"
    code, _, err = run(["merge", "--input", str(tsv), "--out", str(out)], capsys)
    assert (code, err) == (0, "")
    assert opened == [tsv]
    assert out.read_text(encoding="utf-8").splitlines()[0] == "TweetID\tHandLabel\tDate\tText\tMergedFrom"


def test_table_commands_build_no_record_or_pair_objects(annotations_csv, tmp_path, capsys, monkeypatch):
    # the tables hold columns; a record is only ever an input, built by the caller
    built = []
    for record in (corpus.AnnotationRecord, corpus.GoldPost):
        def counted(self, *args, real=record.__init__, name=record.__name__, **kwargs):
            built.append(name)
            real(self, *args, **kwargs)

        monkeypatch.setattr(record, "__init__", counted)
    for argv in (["agreement"], ["ordering"], ["merge", "--out", str(tmp_path / "gold.csv")]):
        code, _, err = run([*argv, "--input", str(annotations_csv)], capsys)
        assert (code, err) == (0, "")
    assert built == []
    corpus.AnnotationRecord("p", "a", SentimentLabel.NEUTRAL, 0)
    GoldPost("p", SentimentLabel.NEUTRAL)
    assert built == ["AnnotationRecord", "GoldPost"]  # the spies see every record built


# --- train --------------------------------------------------------------------


def test_train_writes_model_and_vocabulary(gold_csv, tmp_path, capsys):
    # one file per variant: the model with the vocabulary prepare builds, predicting as the model in memory
    prepared = evaluation.prepare(corpus.load_gold(gold_csv), min_df=2)
    for variant in VARIANTS:
        model_path = tmp_path / f"{variant}.txt"
        code, out, _ = run(
            ["train", "--input", str(gold_csv), "--out", str(model_path), "--variant", variant, "--min-df", "2"],
            capsys,
        )
        assert code == 0
        summary = json.loads(out)
        assert summary == {"command": "train", "variant": variant, "posts": 45, "dim": prepared.vocab.dim,
                           "model": str(model_path)}
        model = classify.load_model(model_path)
        assert model.variant is classify.Variant(variant) and model.dim == model.vocab.dim > 0
        vocab = model.vocab
        assert (vocab.terms, vocab.n_docs, vocab.min_df, vocab.ngrams) == (
            prepared.vocab.terms, prepared.vocab.n_docs, prepared.vocab.min_df, prepared.vocab.ngrams)
        assert vocab.doc_freq.tolist() == prepared.vocab.doc_freq.tolist()
        in_memory = classify.train_sentiment(prepared.counts, prepared.labels, variant, classify.TrainConfig())
        labels = classify.predict_batch(model, prepared.counts)
        assert labels.tolist() == classify.predict_batch(in_memory, prepared.counts).tolist()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([gold_csv.name] + [f"{v}.txt" for v in VARIANTS])


# --- crossval -----------------------------------------------------------------


def test_crossval_json_rows_and_pooled_matrix(gold_csv, capsys):
    code, out, _ = run(
        [
            "crossval",
            "--input", str(gold_csv),
            "--variant", "TwoPlaneSVM",
            "--k", "3",
            "--min-df", "2",
            "--measure", "accuracy",
            "--measure", "alpha_interval",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "crossval"
    assert payload["k"] == 3
    rows = payload["rows"]
    assert [r["measure"] for r in rows] == ["accuracy", "alpha_interval"]
    for row in rows:
        assert len(row["per_fold"]) == 3
        assert row["low"] <= row["mean"] <= row["high"]
    pooled = payload["pooled_matrix"]
    assert len(pooled) == 3 and all(len(r) == 3 for r in pooled)
    assert sum(sum(r) for r in pooled) == 2 * 45


def test_crossval_csv_drops_fold_details(gold_csv, capsys):
    code, out, _ = run(
        [
            "crossval",
            "--input", str(gold_csv),
            "--variant", "NaiveBayes",
            "--k", "3",
            "--min-df", "2",
            "--measure", "accuracy",
            "--format", "csv",
        ],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "measure,mean,low,high"
    assert len(lines) == 2
    measure, *cells = lines[1].split(",")
    assert measure == "accuracy"
    assert all(float(cell) <= 1.0 for cell in cells)  # parse as plain numbers


def test_crossval_reruns_are_byte_identical(gold_csv, tmp_path, capsys):
    first, second = tmp_path / "cv1.json", tmp_path / "cv2.json"
    for out in (first, second):
        code, _, _ = run(
            [
                "crossval",
                "--input", str(gold_csv),
                "--variant", "TwoPlaneSVMbin",
                "--k", "3",
                "--min-df", "2",
                "--seed", "11",
                "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
    assert first.read_bytes() == second.read_bytes()


# --- curve --------------------------------------------------------------------


def test_curve_reports_points_and_skips(tmp_path, capsys):
    path = tmp_path / "grown.csv"
    corpus.save_gold(patterned_gold(45), path)
    code, out, _ = run(
        [
            "curve",
            "--input", str(path),
            "--variant", "TwoPlaneSVM",
            "--k", "3",
            "--step", "5",
            "--min-df", "2",
            "--measure", "accuracy",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "curve"
    sizes = sorted({row["prefix_size"] for row in payload["rows"]})
    assert sizes == [10, 15, 20, 25, 30, 35, 40, 45]
    assert [s["prefix_size"] for s in payload["skipped"]] == [5]
    assert "smaller than" in payload["skipped"][0]["reason"]


# --- compare ------------------------------------------------------------------


def test_compare_ranks_every_variant(tmp_path, capsys):
    paths = []
    for seed in (5, 6):
        path = tmp_path / f"set{seed}.csv"
        corpus.save_gold(separable_corpus(45, seed=seed), path)
        paths.append(str(path))
    first, second = tmp_path / "r1.csv", tmp_path / "r2.csv"
    for out in (first, second):
        code, _, _ = run(
            [
                "compare",
                "--input", paths[0],
                "--input", paths[1],
                "--k", "3",
                "--min-df", "2",
                "--measure", "accuracy",
                "--format", "csv",
                "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().splitlines()
    assert lines[0] == "variant,avg_rank,cd,statistic,p_value"
    assert len(lines) == 1 + len(VARIANTS)
    assert {line.split(",")[0] for line in lines[1:]} == set(VARIANTS)
    ranks = [float(line.split(",")[1]) for line in lines[1:]]
    assert ranks == sorted(ranks)


@pytest.mark.parametrize("command", ["crossval", "compare", "curve"])
def test_each_dataset_is_normalized_and_counted_in_one_pass(command, tmp_path, capsys, monkeypatch):
    """One counter call per dataset, reading exactly its posts' token
    lists in time order, and one ``normalize`` call per post: across the
    folds of ``crossval``, the variants of ``compare`` and the prefixes of
    ``curve``."""
    normalized, passes = [], count_passes(monkeypatch)

    def normalize(text, real=evaluation.normalize):
        normalized.append(text)
        return real(text)

    monkeypatch.setattr(evaluation, "normalize", normalize)
    argv, sizes = {
        "crossval": (["crossval", "--variant", "NaiveBayes", "--k", "10"], [90]),
        "compare": (["compare", "--k", "3", "--min-df", "2"], [45, 48, 51]),
        "curve": (["curve", "--variant", "NaiveBayes", "--k", "3", "--step", "20"], [80]),
    }[command]
    datasets = []
    for seed, n in enumerate(sizes, start=6):
        datasets.append(separable_corpus(n, seed=seed))
        corpus.save_gold(datasets[-1], tmp_path / f"set{seed}.csv")
        argv += ["--input", str(tmp_path / f"set{seed}.csv")]
    code, out, err = run(argv, capsys)
    assert code == 0 and err == ""
    if command == "curve":
        assert sorted({row["prefix_size"] for row in json.loads(out)["rows"]}) == [20, 40, 60, 80]
    texts = [[post.text for post in posts] for posts in datasets]
    assert normalized == [text for dataset in texts for text in dataset]
    assert passes == [[evaluation.normalize(text) for text in dataset] for dataset in texts]


def test_curve_takes_its_order_and_counts_from_the_one_prepared_corpus(tmp_path, capsys, monkeypatch):
    """``curve`` orders its posts through ``prepare`` alone: no call of
    ``time_ordered_chunks``, one load, one preparation and one counter pass."""
    passes, calls = count_passes(monkeypatch), []

    def spy(module, name):
        def called(*args, real=getattr(module, name), **kwargs):
            calls.append(f"{module.__name__}.{name}")
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, called)

    for module, name in ((corpus, "time_ordered_chunks"), (evaluation, "time_ordered_chunks"),
                         (corpus, "load_gold"), (evaluation, "prepare")):
        spy(module, name)
    posts = random.Random(3).sample(shift_corpus(80, shift_at=40, seed=3), 80)  # saved out of time order
    corpus.save_gold(posts, tmp_path / "gold.csv")
    code, out, err = run(["curve", "--input", str(tmp_path / "gold.csv"), "--variant", "NaiveBayes", "--k", "3",
                          "--step", "30", "--min-df", "2"], capsys)
    assert code == 0 and err == ""
    assert sorted({row["prefix_size"] for row in json.loads(out)["rows"]}) == [30, 60, 80]
    assert calls == ["sentagree.corpus.load_gold", "sentagree.evaluation.prepare"]
    in_time_order = sorted(posts, key=lambda post: post.timestamp)
    assert passes == [[evaluation.normalize(post.text) for post in in_time_order]]


# --- time order ---------------------------------------------------------------


def shuffled_twins(tmp_path, stems=("a",)) -> tuple[list[str], list[str]]:
    """Dated gold tables saved in time order under ``sorted/`` and with
    their rows shuffled under ``shuffled/``, the same stems in both."""
    paths = {"sorted": [], "shuffled": []}
    for seed, stem in enumerate(stems, start=5):
        # the wide late lexicon keeps the scores below 1, so they show which rows each fold holds
        posts = shift_corpus(90, shift_at=45, seed=seed)
        for order, rows in (("sorted", posts), ("shuffled", random.Random(seed).sample(posts, len(posts)))):
            (tmp_path / order).mkdir(exist_ok=True)
            corpus.save_gold(rows, tmp_path / order / f"{stem}.csv")
            paths[order].append(str(tmp_path / order / f"{stem}.csv"))
    return paths["sorted"], paths["shuffled"]


@pytest.mark.parametrize(("command", "stems", "flags"), [
    ("crossval", ("a",), ["--variant", "TwoPlaneSVMbin", "--k", "5"]),
    ("train", ("a",), ["--variant", "TwoPlaneSVMbin"]),
    ("compare", ("a", "b"), ["--k", "3"]),
    ("curve", ("a",), ["--variant", "TwoPlaneSVMbin", "--k", "5", "--step", "40"]),
])
def test_a_table_with_shuffled_rows_gives_the_same_output(command, stems, flags, tmp_path, capsys):
    outputs = []
    for paths in shuffled_twins(tmp_path, stems):
        out = tmp_path / f"{command}-{len(outputs)}.out"
        code, _, err = run([command, *(arg for path in paths for arg in ("--input", path)), *flags,
                            "--min-df", "2", "--out", str(out)], capsys)
        assert code == 0 and err == ""
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_curve_of_a_table_with_shuffled_rows_ends_in_its_crossval(tmp_path, capsys):
    _, (path,) = shuffled_twins(tmp_path)
    flags = ["--input", path, "--variant", "TwoPlaneSVMbin", "--k", "5", "--min-df", "2"]
    code, out, _ = run(["curve", *flags, "--step", "40"], capsys)
    assert code == 0
    curve = [row for row in json.loads(out)["rows"] if row.pop("prefix_size") == 90]
    code, out, _ = run(["crossval", *flags], capsys)
    assert code == 0 and curve == json.loads(out)["rows"]


# --- cross-validation across processes ---------------------------------------


def dealing_argv(command: str, tmp_path) -> list[str]:
    """The arguments of a small run of ``command``, one of the three that deal planes."""
    paths = []
    for seed in (5, 6):
        paths.append(tmp_path / f"set{seed}.csv")
        corpus.save_gold(shift_corpus(150, shift_at=75, seed=seed, wide=8), paths[-1])
    return {
        "curve": ["curve", "--input", str(paths[0]), "--variant", "TwoPlaneSVMbin", "--k", "5", "--step", "50"],
        "crossval": ["crossval", "--input", str(paths[0]), "--variant", "TwoPlaneSVMbin", "--k", "5"],
        "compare": ["compare", "--input", str(paths[0]), "--input", str(paths[1]), "--k", "3"],
    }[command]


@pytest.mark.parametrize("command", ["curve", "crossval", "compare"])
def test_reports_are_the_same_bytes_from_one_process_and_several(command, tmp_path, capsys, monkeypatch):
    argv = dealing_argv(command, tmp_path)
    forks, reports = [], []
    monkeypatch.setattr(os, "fork", lambda real=os.fork: forks.append(1) or real())
    for cpus in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)), raising=False)
        code, out, err = run(argv, capsys)
        assert code == 0 and err == ""
        reports.append(out)
        assert (len(forks) == 0) == (cpus == 1)  # several CPUs fork workers, one none
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize(("command", "folds"), [("curve", 3 * 5), ("crossval", 5), ("compare", 2 * 3)])
def test_on_one_cpu_each_folds_rows_are_built_once(command, folds, tmp_path, capsys, monkeypatch):
    built, forks = [], []

    def fold_rows(corpus, plan, fold, real=evaluation._fold_rows):
        built.append((id(corpus), fold))
        return real(corpus, plan, fold)

    monkeypatch.setattr(evaluation, "_fold_rows", fold_rows)
    monkeypatch.setattr(os, "fork", lambda real=os.fork: forks.append(1) or real())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    code, _, err = run(dealing_argv(command, tmp_path), capsys)
    assert code == 0 and err == "" and forks == []
    # one selection per (dataset or prefix, fold), whatever the variants
    assert len(built) == len(set(built)) == folds


@pytest.mark.parametrize("cpus", [1, 2])
def test_naive_bayes_never_loads_the_epoch_kernel(cpus, tmp_path, capsys, monkeypatch):
    loads, forks = multiprocessing.Value("i", 0), []

    def load(*args, real=classify._load_kernel, **kwargs):
        with loads.get_lock():
            loads.value += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(classify, "_load_kernel", load)
    monkeypatch.setattr(os, "fork", lambda real=os.fork: forks.append(1) or real())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    classify._epoch_kernel.cache_clear()
    argv = dealing_argv("crossval", tmp_path)
    argv[argv.index("TwoPlaneSVMbin")] = "NaiveBayes"
    code, _, err = run(argv, capsys)
    assert code == 0 and err == ""
    assert len(forks) == cpus - 1 and loads.value == 0  # NaiveBayes folds go to a worker, which trains no plane


def test_compare_reads_every_input_before_it_trains(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.csv"
    bad.write_text("TweetID,HandLabel,Text\nt1,Positive,good\nt2\n", encoding="utf-8")
    planes = count_planes(monkeypatch)
    code, out, err = run([*dealing_argv("compare", tmp_path), "--input", str(bad)], capsys)
    assert (code, out) == (1, "")
    assert re.fullmatch(rf"error: corpus-format: {re.escape(str(bad))}: line 3 has 1 fields.*\n", err)
    assert planes.value == 0


def test_compare_deals_each_datasets_planes_in_one_fork_per_worker(tmp_path, capsys, monkeypatch):
    datasets, k, cpus = 3, 3, 3
    argv = ["compare", "--k", str(k), "--min-df", "2"]
    for seed in range(datasets):
        path = tmp_path / f"set{seed}.csv"
        corpus.save_gold(separable_corpus(60, seed=seed), path)
        argv += ["--input", str(path)]
    forks, planes = [], count_planes(monkeypatch)
    monkeypatch.setattr(os, "fork", lambda real=os.fork: forks.append(1) or real())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    code, _, err = run(argv, capsys)
    assert code == 0 and err == ""
    assert len(forks) == cpus - 1  # one deal of every dataset's folds
    # per fold, the tuned NeutralZoneSVM plane and six distinct sides shared by the other SVM variants
    assert planes.value == datasets * 7 * k


def open_descriptors() -> list[str] | None:
    """The file descriptors this process holds, where the platform lists them."""
    return sorted(os.listdir("/proc/self/fd")) if sys.platform == "linux" else None


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_fork_that_fails_leaves_the_caller_to_train_every_plane(cpus, tmp_path, capsys, monkeypatch):
    forks = []

    def fork():
        forks.append(1)
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", fork)
    for command in ("crossval", "compare"):
        argv = dealing_argv(command, tmp_path)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        code, one_cpu, err = run(argv, capsys)
        assert code == 0 and err == "" and forks == []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        before = open_descriptors()
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (0, one_cpu, "")
        assert open_descriptors() == before  # both ends of each worker's pipe were closed
        assert forks, "no worker was asked for"
        forks.clear()
    with pytest.raises(ChildProcessError):  # no child process, running or ended, is left
        os.waitpid(-1, os.WNOHANG)


def source_env() -> dict[str, str]:
    """The environment of a child interpreter that imports this checkout's package."""
    source_root = str(Path(cli.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")])))


#: Runs ``sentagree.cli.main`` on the arguments after the first, as if 3 CPUs
#: were free, with every training set of the sizes the first names failing.
FAILING_RUN = """
import os, sys
from sentagree import cli, evaluation
from sentagree.errors import EvaluationError

os.sched_getaffinity = lambda pid: {0, 1, 2}
sizes, real = {int(size) for size in sys.argv[1].split(",") if size}, evaluation.train_sentiment

def train_sentiment(rows, *args, **kwargs):
    if len(rows) in sizes:
        raise EvaluationError(f"boom on {len(rows)} rows")
    return real(rows, *args, **kwargs)

evaluation.train_sentiment = train_sentiment
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize(("sizes", "code", "stderr"), [
    ("", 0, ""),
    ("16,17", 1, "error: evaluation: fold 1: boom on 16 rows\n"),
])
def test_a_cross_validating_command_leaves_no_process_behind(sizes, code, stderr, tmp_path):
    # five folds of 6, 5, 4, 3 and 3 posts: training sets of 15, 16, 17, 18 and 18 rows
    posts = separable_corpus(60, seed=5)
    kept = {label: [post for post in posts if post.label == label][:size] for label, size in ((-1, 6), (0, 7), (1, 8))}
    path = tmp_path / "gold.csv"
    corpus.save_gold(sorted(sum(kept.values(), []), key=lambda post: post.timestamp), path)
    argv = ["crossval", "--input", str(path), "--k", "5", "--min-df", "1", "--out", str(tmp_path / "cv.json")]
    with subprocess.Popen(
        [sys.executable, "-c", FAILING_RUN, sizes, *argv],
        env=source_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    ) as command:
        out, err = command.communicate(timeout=120)
    assert (command.returncode, out, err) == (code, "", stderr)
    with pytest.raises(ProcessLookupError):  # nothing is left in the command's process group
        os.killpg(command.pid, 0)


#: Runs ``sentagree.cli.main`` on its arguments, as if 3 CPUs were free; the
#: command kills itself while its workers are still training.
KILLED_RUN = """
import os, signal, sys, time
from sentagree import classify, cli

os.sched_getaffinity = lambda pid: {0, 1, 2}
caller = os.getpid()

def train_plane(*args, **kwargs):
    if os.getpid() == caller:
        os.kill(caller, signal.SIGKILL)
    time.sleep(120)

classify._train_plane = train_plane
cli.main(sys.argv[1:])
"""


@pytest.mark.skipif(sys.platform != "linux", reason="the kernel ends the workers of a killed command on Linux only")
def test_the_workers_of_a_killed_command_end_with_it(gold_csv, tmp_path):
    argv = ["crossval", "--input", str(gold_csv), "--k", "3", "--out", str(tmp_path / "cv.json")]
    with subprocess.Popen([sys.executable, "-c", KILLED_RUN, *argv], env=source_env(), start_new_session=True) as command:
        assert command.wait(timeout=120) == -signal.SIGKILL
    deadline = time.monotonic() + 60  # orphans are reaped by init, which may take a moment
    while time.monotonic() < deadline:
        try:
            os.killpg(command.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.1)
    pytest.fail("a worker outlived its killed command")


def test_compare_requires_two_datasets(gold_csv, capsys):
    code, _, err = run(
        ["compare", "--input", str(gold_csv), "--k", "3", "--min-df", "2"], capsys
    )
    assert code == 1
    assert err.startswith("error: usage: compare needs at least two")


# --- failure modes and path resolution ----------------------------------------


def test_missing_input_is_an_io_error(tmp_path, capsys):
    code, out, err = run(["agreement", "--input", str(tmp_path / "nope.csv")], capsys)
    assert code == 1
    assert out == ""
    assert re.fullmatch(r"error: io: .+\n", err)
    assert "nope.csv" in err


def test_malformed_table_is_a_corpus_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("Foo,Bar\n1,2\n", encoding="utf-8")
    code, _, err = run(["agreement", "--input", str(bad)], capsys)
    assert code == 1
    assert err.startswith("error: corpus-format: ")
    assert re.fullmatch(r"error: [a-z-]+: .+\n", err)


def test_short_gold_row_is_one_corpus_error(tmp_path, capsys):
    short = tmp_path / "short.csv"
    short.write_text("TweetID,HandLabel,Text\nt1,Positive,good\nt2\n", encoding="utf-8")
    code, out, err = run(["crossval", "--input", str(short)], capsys)
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: corpus-format: .*line 3 has 1 fields.*\n", err)


@pytest.mark.parametrize(
    ("flag", "message"),
    [
        (["--bins", "0"], "--bins must be >= 1, got 0"),
        (["--bins", "1001"], "--bins must be <= 1000, got 1001"),
        (["--cost", "0"], "--cost must be positive and finite, got 0.0"),
        (["--cost", "nan"], "--cost must be positive and finite, got nan"),
        (["--cost", "inf"], "--cost must be positive and finite, got inf"),
    ],
    ids=["bins-0", "bins-1001", "cost-0", "cost-nan", "cost-inf"],
)
def test_bad_training_flags_are_one_usage_error(flag, message, gold_csv, capsys):
    code, out, err = run(["crossval", "--input", str(gold_csv), *flag], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: usage: {message}\n"


def test_train_with_bins_above_1000_is_one_usage_error(gold_csv, tmp_path, capsys):
    # the dense bin table of a grid g holds (g + 2)**2 * 3 counts
    argv = ["train", "--input", str(gold_csv), "--variant", "TwoPlaneSVMbin", "--bins", "1001",
            "--out", str(tmp_path / "model.txt")]
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err == "error: usage: --bins must be <= 1000, got 1001\n"
    assert not (tmp_path / "model.txt").exists()


@pytest.mark.parametrize("command", ["agreement", "train", "crossval", "curve", "compare"])
def test_negative_seed_is_one_usage_error(command, gold_csv, tmp_path, capsys):
    argv = [command, "--input", str(gold_csv), "--seed", "-1", "--out", str(tmp_path / "out")]
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err == "error: usage: argument --seed: must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


#: The options each subcommand takes: exactly those it reads.
TAKES = {
    "agreement": {"--input", "--out", "--format", "--seed", "--measure"},
    "ordering": {"--input", "--out", "--format", "--exclude"},
    "merge": {"--input", "--out"},
    "train": {"--input", "--out", "--seed", "--variant", "--min-df", "--cost", "--bins"},
    "crossval": {"--input", "--out", "--format", "--seed", "--variant", "--min-df", "--cost", "--bins", "--k",
                 "--measure"},
    "curve": {"--input", "--out", "--format", "--seed", "--variant", "--min-df", "--cost", "--bins", "--k", "--step",
              "--measure"},
    "compare": {"--input", "--out", "--format", "--seed", "--min-df", "--cost", "--bins", "--k", "--measure"},
}


def subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_each_subcommand_takes_the_options_it_reads_and_no_other() -> None:
    taken = {name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
             for name, sub in subparsers().items()}
    assert taken == TAKES


class ReadNamespace(argparse.Namespace):
    """A namespace that records the name of every attribute read from it."""

    def __init__(self) -> None:
        object.__setattr__(self, "read", set())

    def __getattribute__(self, name: str):
        if name != "read":
            object.__getattribute__(self, "read").add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("command", sorted(TAKES))
def test_every_option_a_subcommand_takes_is_read_when_it_runs(command, annotations_csv, gold_csv, tmp_path, capsys):
    other = tmp_path / "other.csv"
    other.write_bytes(gold_csv.read_bytes())
    inputs = {"agreement": [annotations_csv], "ordering": [annotations_csv], "merge": [annotations_csv],
              "compare": [gold_csv, other]}.get(command, [gold_csv])
    argv = [command, *(arg for path in inputs for arg in ("--input", str(path))), "--out", str(tmp_path / "out")]
    if "--k" in TAKES[command]:
        argv += ["--k", "3"]  # a short run: what is checked is which options it reads
    args = cli.build_parser().parse_args(argv, namespace=ReadNamespace())
    args.read.clear()  # the parser looks at every default
    args.func(args)
    dests = {action.dest for action in subparsers()[command]._actions if action.option_strings} - {"help"}
    assert dests - args.read == set()


@pytest.mark.parametrize(("command", "flag", "value"), [
    ("ordering", "--seed", "3"), ("merge", "--seed", "3"), ("merge", "--format", "csv"),
    ("train", "--format", "csv"), ("compare", "--variant", "NaiveBayes"),
])
def test_a_flag_its_command_does_not_read_is_one_usage_error(command, flag, value, gold_csv, tmp_path, capsys):
    argv = [command, "--input", str(gold_csv), "--input", str(gold_csv), flag, value, "--out", str(tmp_path / "out")]
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err == f"error: usage: unrecognized arguments: {flag} {value}\n"
    assert not (tmp_path / "out").exists()


def test_tsv_quote_fault_names_the_tab_delimiter(tmp_path, capsys):
    path = tmp_path / "q1.tsv"
    path.write_text('TweetID\tHandLabel\tAnnotatorID\tText\nt1\tPositive\ta1\t"great" day\n', encoding="utf-8")
    code, out, err = run(["agreement", "--input", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: corpus-format: {path}: line 2: '\\t' expected after '\"'\n"


def test_train_on_gold_without_text_is_one_corpus_error(tmp_path, capsys):
    path = write_table(tmp_path / "notext.csv", [("t1", "Positive"), ("t2", "Negative")],
                       header=("TweetID", "HandLabel"))
    model_path = tmp_path / "model.txt"
    code, out, err = run(["train", "--input", str(path), "--out", str(model_path)], capsys)
    assert (code, out) == (1, "")
    assert err == "error: corpus-format: post 't1' has no text\n"
    assert not model_path.exists()


@pytest.mark.parametrize("command", ["crossval", "curve"])
def test_cross_validating_gold_without_text_is_one_corpus_error(command, tmp_path, capsys):
    rows = [(f"t{i}", label) for i, label in enumerate(["Positive", "Negative", "Neutral"] * 2)]
    path = write_table(tmp_path / "notext.csv", rows, header=("TweetID", "HandLabel"))
    code, out, err = run([command, "--input", str(path), "--k", "2"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: corpus-format: post 't0' has no text\n"


@pytest.mark.parametrize("command", ["merge", "train", "crossval", "curve"])
def test_single_input_commands_reject_a_second_input(command, gold_csv, tmp_path, capsys):
    argv = [command, "--input", str(gold_csv), "--input", str(gold_csv), "--out", str(tmp_path / "out")]
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: usage: --input takes one value for this command, got 2\n", err)
    assert not (tmp_path / "out").exists()


def test_compare_rejects_a_second_measure(gold_csv, tmp_path, capsys):
    other = tmp_path / "other.csv"
    other.write_bytes(gold_csv.read_bytes())
    argv = ["compare", "--input", str(gold_csv), "--input", str(other),
            "--measure", "accuracy", "--measure", "f1_bar"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: usage: --measure takes one value for this command, got 2\n", err)


@pytest.mark.parametrize("command", ["merge", "train"])
@pytest.mark.parametrize("out", [[], ["--out", "-"]], ids=["default", "dash"])
def test_file_writing_commands_reject_stdout(command, out, annotations_csv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run([command, "--input", str(annotations_csv), *out], capsys)
    assert (code, stdout) == (1, "")
    assert re.fullmatch(rf"error: usage: {command} writes files and needs --out FILE, not '-'\n", err)
    assert sorted(p.name for p in tmp_path.iterdir()) == [annotations_csv.name]


def refused(argv, capsys) -> str:
    """The error line of ``argv``, a run that must fail and print nothing."""
    code, stdout, err = run(argv, capsys)
    assert (code, stdout) == (1, ""), argv
    return err


@pytest.mark.parametrize("spelling", ["same", "dotted", "data-dir"])
def test_merge_refuses_to_write_over_its_input(spelling, annotations_csv, tmp_path_factory, monkeypatch, capsys):
    # so do agreement and ordering, the other commands that read an annotation table
    out = annotations_csv if spelling != "dotted" else annotations_csv.parent / "." / annotations_csv.name
    source = str(annotations_csv)
    if spelling == "data-dir":  # the input is found through the data directory
        monkeypatch.chdir(tmp_path_factory.mktemp("elsewhere"))
        monkeypatch.setenv("SENTAGREE_DATA_DIR", str(annotations_csv.parent))
        source = annotations_csv.name
    other = tmp_path_factory.mktemp("other") / "other.csv"
    other.write_bytes(annotations_csv.read_bytes())
    before = annotations_csv.read_bytes()
    for argv in (["agreement", "--input", str(other)], ["ordering", "--input", str(other)], ["merge"]):
        err = refused([*argv, "--input", source, "--out", str(out)], capsys)
        assert re.fullmatch(r"error: usage: --out would write .*mini\.csv, which is the --input file\n", err), argv
    assert annotations_csv.read_bytes() == before
    assert sorted(p.name for p in annotations_csv.parent.iterdir()) == ["mini.csv"]


@pytest.mark.parametrize("spelling", ["model", "dotted", "data-dir"])
def test_train_refuses_to_write_over_its_input(spelling, gold_csv, tmp_path, tmp_path_factory, monkeypatch, capsys):
    # so do crossval, curve and compare, the other commands that read a gold table
    source = tmp_path / "model.txt"
    source.write_bytes(gold_csv.read_bytes())
    gold_csv.unlink()
    out = source if spelling != "dotted" else tmp_path / "." / source.name
    name = str(source)
    if spelling == "data-dir":  # the input is found through the data directory
        monkeypatch.chdir(tmp_path_factory.mktemp("elsewhere"))
        monkeypatch.setenv("SENTAGREE_DATA_DIR", str(tmp_path))
        name = source.name
    other = tmp_path_factory.mktemp("other") / "other.csv"
    other.write_bytes(source.read_bytes())
    before = source.read_bytes()
    for argv in (["train"], ["crossval"], ["curve"], ["compare", "--input", str(other)]):
        err = refused([*argv, "--input", name, "--out", str(out)], capsys)
        assert re.fullmatch(rf"error: usage: --out would write .*{source.name}, which is the --input file\n", err), argv
    assert source.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [source.name]
    assert corpus.load_gold(source)  # still the gold table


def test_variant_choices_are_the_classifier_variants() -> None:
    # the parser names them without importing classify
    assert cli._VARIANT_CHOICES == tuple(VARIANTS)


@pytest.mark.parametrize("command", ["agreement", "crossval"])
def test_non_utf8_table_is_one_corpus_error(command, annotations_csv, tmp_path, capsys):
    latin = tmp_path / "latin.csv"
    latin.write_bytes(annotations_csv.read_bytes().replace(b"meeting", "réunion".encode("latin-1")))
    code, out, err = run([command, "--input", str(latin)], capsys)
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: corpus-format: .*latin\.csv: not UTF-8 text \(cannot decode byte 0xe9\)\n", err)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_tables_end_in_a_report_or_one_error_line(annotations_csv, tmp_path, capsys, data):
    path = tmp_path / "fuzzed.csv"
    path.write_bytes(data.draw(fuzzed_table(annotations_csv)))
    argv = data.draw(st.sampled_from([
        ["ordering"],
        ["train", "--min-df", "1", "--out", str(tmp_path / "model.txt")],
    ]))
    code, _, err = run([*argv, "--input", str(path)], capsys)
    assert (code, err) == (0, "") or (code == 1 and re.fullmatch(r"error: [a-z-]+: [^\n]+\n", err)), err


@pytest.mark.parametrize("command", ["merge", "curve"])
def test_mixed_utc_offsets_are_one_corpus_error(command, annotations_csv, tmp_path, capsys):
    # merge compares the dates of a post's annotations, curve sorts the merged posts
    path = tmp_path / "zones.csv"
    if command == "merge":
        path.write_bytes(annotations_csv.read_bytes())
    else:
        corpus.save_gold(corpus.merge_gold(corpus.load_annotations(annotations_csv)), path)
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("2014-01-02 09:00:00", "2014-01-02 09:00:00+00:00"), encoding="utf-8")
    code, out, err = run([command, "--input", str(path), "--out", str(tmp_path / "out")], capsys)
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: corpus-format: .*zones\.csv: date .* has a UTC offset, unlike the first "
                        r"date on line 2\n", err)


@pytest.mark.parametrize("command", ["agreement", "ordering", "compare"])
def test_multi_input_commands_reject_a_repeated_dataset_name(command, annotations_csv, tmp_path, capsys):
    paths = []
    for folder in ("a", "b"):
        (tmp_path / folder).mkdir()
        paths.append(tmp_path / folder / "x.csv")
        paths[-1].write_bytes(annotations_csv.read_bytes())
    paths.append(annotations_csv)
    argv = [command, *(arg for path in paths for arg in ("--input", str(path)))]
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err == f"error: usage: --input {paths[0]} and --input {paths[1]} share the dataset name 'x'\n"


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        ([], "the following arguments are required: command"),
        (["crossval"], "the following arguments are required: --input"),
        (["crossval", "--k", "abc"], "argument --k: invalid int value: 'abc'"),
        (["crossval", "--k", "1"], "argument --k: must be >= 2, got 1"),
        (["crossval", "--min-df", "0"], "argument --min-df: must be >= 1, got 0"),
        (["curve", "--step", "0"], "argument --step: must be >= 1, got 0"),
        (["crossval", "--variant", "Nope"], "argument --variant: invalid choice: .*Nope.*"),
        (["ordering", "--bogus"], "unrecognized arguments: --bogus"),
    ],
    ids=["no-command", "no-input", "k-abc", "k-1", "min-df-0", "step-0", "variant", "unknown-flag"],
)
def test_misused_flags_are_one_usage_error(argv, message, gold_csv, capsys):
    if argv[1:]:
        argv = [argv[0], "--input", str(gold_csv), *argv[1:]]
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert re.fullmatch(f"error: usage: {message}\n", err), err


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["crossval", "-h"])
    assert exit_info.value.code == 0
    assert "--min-df" in capsys.readouterr().out


def test_data_dir_fallback(tmp_path, monkeypatch, capsys):
    data_dir = tmp_path / "store"
    data_dir.mkdir()
    write_pair_table(data_dir / "remote.csv", MIXED_PAIRS)
    workdir = tmp_path / "elsewhere"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    monkeypatch.setenv("SENTAGREE_DATA_DIR", str(data_dir))
    code, out, _ = run(["agreement", "--input", "remote.csv", "--measure", "accuracy"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    inter = [r for r in rows if r["kind"] == "inter"][0]
    assert inter["n_pairs"] == len(MIXED_PAIRS)
