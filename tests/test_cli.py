"""End-to-end command-line runs over small temporary corpora."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sentagree import agreement, classify, corpus, features
from sentagree.cli import main
from sentagree.corpus import GoldPost, SentimentLabel

from conftest import NEG_WORDS, NEU_WORDS, POS_WORDS, fuzzed_table, separable_corpus, write_table

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



def test_agreement_reports_do_not_depend_on_the_bootstrap_memo(tmp_path, capsys):
    source = write_pair_table(tmp_path / "coders.csv", MIXED_PAIRS)
    argv = ["agreement", "--input", str(source), "--seed", "7"]
    agreement._first_draws.cache_clear()
    code, first, _ = run(argv, capsys)
    assert code == 0
    # leave the memo holding the draws of another pair set, seed and size
    agreement.bootstrap_ci([(-1, 0), (0, 0), (1, 1)], "accuracy", n_samples=50, seed=3)
    code, second, _ = run(argv, capsys)
    assert code == 0
    assert first == second


def test_agreement_rejects_a_repeated_measure(annotations_csv, capsys):
    argv = ["agreement", "--input", str(annotations_csv),
            "--measure", "f1_bar", "--measure", "accuracy", "--measure", "accuracy"]
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
    assert [(p.post_id, p.label, p.merged_from) for p in reloaded] == [
        (p.post_id, p.label, p.merged_from) for p in direct
    ]


# --- train --------------------------------------------------------------------


def test_train_writes_model_and_vocabulary(gold_csv, tmp_path, capsys):
    model_path = tmp_path / "model.txt"
    code, out, _ = run(
        [
            "train",
            "--input", str(gold_csv),
            "--out", str(model_path),
            "--variant", "TwoPlaneSVM",
            "--min-df", "2",
        ],
        capsys,
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["command"] == "train"
    assert summary["posts"] == 45
    assert summary["dim"] > 0
    assert re.fullmatch(r"[0-9a-f]{64}", summary["vocab_hash"])
    vocab_path = tmp_path / "model.txt.vocab"
    assert summary["vocabulary"] == str(vocab_path)
    vocab = features.load_vocabulary(vocab_path)
    model = classify.load_model(model_path, vocab)
    assert model.variant is classify.Variant.TWO_PLANE
    assert model.dim == summary["dim"]


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
