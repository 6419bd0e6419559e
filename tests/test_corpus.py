"""Corpus loading, pair extraction, gold merging, and chunking."""

from __future__ import annotations

import re
import tracemalloc
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sentagree.corpus import (
    AnnotationRecord,
    AnnotationTable,
    GoldPost,
    GoldTable,
    PairTable,
    SentimentLabel,
    extract_pairs,
    load_annotations,
    load_gold,
    merge_gold,
    save_gold,
    time_ordered_chunks,
)
from sentagree.errors import CorpusFormatError, SentagreeError, VocabularyError
from sentagree.evaluation import prepare

import oracles
from conftest import (
    annotation_rows, columns, fuzzed_table, gold_rows, pair_rows, posts_of, records_of, write_table,
)


def ann(post, annotator, label, seq, ts=None, text=None):
    return AnnotationRecord(
        post_id=post,
        annotator_id=annotator,
        label=SentimentLabel(label),
        seq=seq,
        timestamp=ts,
        text=text,
    )


def test_load_annotations_comma(annotations_csv) -> None:
    table = load_annotations(annotations_csv)
    assert len(table) == 6
    assert table.seq.tolist() == [0, 1, 2, 3, 4, 5]
    assert table.post_ids[table.post[0]] == "p1"
    assert table.annotator_ids[table.annotator[0]] == "ann1"
    assert table.label[0] == SentimentLabel.NEGATIVE
    assert table.label[1] == SentimentLabel.NEGATIVE  # lowercase accepted
    assert table.label[4] == SentimentLabel.POSITIVE  # uppercase accepted
    assert table.dates[0] == datetime(2014, 1, 1, 10, 0, 0)
    assert table.texts[0] == "so bad :("


def test_load_annotations_tab_autodetected(tmp_path) -> None:
    path = write_table(
        tmp_path / "data.tsv",
        [("p1", "Positive", "a"), ("p2", "Neutral", "b")],
        header=("TweetID", "HandLabel", "AnnotatorID"),
        delimiter="\t",
    )
    table = load_annotations(path)
    assert table.delimiter == "\t"
    assert table.label.tolist() == [1, 0]
    assert table.dates[0] is None and table.texts[0] is None


def test_load_annotations_header_aliases(tmp_path) -> None:
    path = write_table(
        tmp_path / "alias.csv",
        [("x", "Positive", "a")],
        header=("ID", "Label", "AnnotatorID"),
    )
    table = load_annotations(path)
    assert table.post_ids[table.post[0]] == "x"


def test_unknown_label_reports_line(tmp_path) -> None:
    path = write_table(
        tmp_path / "bad.csv",
        [("p1", "Positive", "a"), ("p2", "Wonderful", "a")],
        header=("TweetID", "HandLabel", "AnnotatorID"),
    )
    with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(path))}: line 3: unknown label 'Wonderful'$"):
        load_annotations(path)


def test_missing_required_column(tmp_path) -> None:
    path = write_table(
        tmp_path / "nolabel.csv", [("p1", "a")], header=("TweetID", "AnnotatorID")
    )
    with pytest.raises(CorpusFormatError, match="label"):
        load_annotations(path)


def test_empty_file_rejected(tmp_path) -> None:
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="empty file"):
        load_annotations(empty)


def test_a_date_of_spaces_is_no_date(tmp_path) -> None:
    path = write_table(tmp_path / "spaces.csv", [("t1", "Positive", "a1", "  ", "hi")])
    assert annotation_rows(load_annotations(path)) == [("t1", "a1", 1, 0, None, "hi")]


def test_a_row_of_empty_fields_is_skipped_and_takes_no_seq(tmp_path) -> None:
    path = write_table(tmp_path / "blank.csv", [("t1", "Positive", "a1", "", "hi"), ("", "", "", "", ""),
                                               ("t2", "Negative", "a2", "", "bye")])
    table = load_annotations(path)
    assert (table.post_ids, table.seq.tolist()) == (("t1", "t2"), [0, 1])


def test_load_gold_of_a_header_only_table_finds_no_posts(tmp_path) -> None:
    path = write_table(tmp_path / "header.csv", [], header=("TweetID", "HandLabel", "Date", "Text"))
    with pytest.raises(CorpusFormatError, match="no posts found$"):
        load_gold(path)


def test_bad_date_reports_line(tmp_path) -> None:
    path = write_table(
        tmp_path / "baddate.csv",
        [("p1", "Positive", "a", "not-a-date", "hi")],
    )
    with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(path))}: line 2: unparseable date 'not-a-date'$"):
        load_annotations(path)


@pytest.mark.parametrize("count", ["x", "1.5", str(2**63), "0", "-3", "1_0", "\u0663", str(2**70)])
def test_bad_merged_from_reports_line(tmp_path, count) -> None:
    # a count that does not fit the table's int64 column is as bad as one that is not a number, and the
    # column counts annotations, so a post merged from none or fewer is as bad too; a field is ASCII digits,
    # padded with spaces or not, so int() must not read 1_0 as 10 or an Arabic-Indic 3 as 3
    path = write_table(tmp_path / "gold.csv", [("p1", "Positive", " 2 "), ("p2", "Neutral", count)],
                       header=("TweetID", "HandLabel", "MergedFrom"))
    # a field of digits is parsed and its count refused by the table's constructor, any other field by the parser
    fault = (f"line 3: post 'p2': bad MergedFrom value {count}" if count.isascii() and count.isdigit() else
             f"line 3: bad MergedFrom value {count!r}")
    with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(path))}: {re.escape(fault)}$"):
        load_gold(path)
    write_table(path, [("p1", "Positive", " 2 ")], header=("TweetID", "HandLabel", "MergedFrom"))
    assert load_gold(path).merged_from.tolist() == [2]


TABLES = pytest.mark.parametrize(
    ("loader", "header", "row"),
    [
        (load_annotations, ("TweetID", "HandLabel", "AnnotatorID", "Text"), ("t1", "Positive", "a1", "good")),
        (load_gold, ("TweetID", "HandLabel", "Text"), ("t1", "Positive", "good")),
    ],
    ids=["annotations", "gold"],
)


@TABLES
def test_short_row_reports_line(tmp_path, loader, header, row) -> None:
    path = write_table(tmp_path / "short.csv", [row, ("t2",)], header=header)
    fault = f"{path}: line 3: 1 fields, expected at least {len(header)}"
    with pytest.raises(CorpusFormatError, match=f"^{re.escape(fault)}$"):
        loader(path)


@TABLES
def test_non_utf8_byte_is_a_format_error(tmp_path, loader, header, row) -> None:
    path = write_table(tmp_path / "latin.csv", [row], header=header)
    path.write_bytes(path.read_bytes().replace(b"good", "café".encode("latin-1")))
    with pytest.raises(CorpusFormatError, match="not UTF-8 text .*0xe9"):
        loader(path)


@TABLES
def test_byte_order_mark_is_skipped(tmp_path, loader, header, row) -> None:
    plain = write_table(tmp_path / "plain.csv", [row, ("t2",) + row[1:]], header=header)
    marked = tmp_path / "bom.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert columns(loader(marked)) == columns(loader(plain))


@TABLES
def test_oversized_field_is_a_format_error(tmp_path, loader, header, row) -> None:
    path = write_table(tmp_path / "huge.csv", [row[:-1] + ("x" * (128 * 1024 + 1),)], header=header)
    with pytest.raises(CorpusFormatError, match="line 2: field larger than field limit"):
        loader(path)


@TABLES
def test_line_numbers_count_file_lines(tmp_path, loader, header, row) -> None:
    two_lines = row[:-1] + ('"first line\nsecond line"',)
    bad = (row[0] + "b", "Wonderful") + row[2:]
    path = write_table(tmp_path / "multi.csv", [two_lines, bad], header=header)
    with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(path))}: line 4: unknown label 'Wonderful'$"):
        loader(path)


@TABLES
@pytest.mark.parametrize("delimiter", [",", "\t"], ids=["comma", "tab"])
@pytest.mark.parametrize(
    ("text", "fault"),
    [('"never closed', "line 2: unexpected end of data"), ('"great" day', "line 2: .* expected after '\"'")],
    ids=["unterminated", "text-after-quote"],
)
def test_quote_faults_are_format_errors(tmp_path, loader, header, row, delimiter, text, fault) -> None:
    # read leniently, the first swallows the next row into its field and
    # the second becomes ``great day``
    after = (row[0] + "b",) + row[1:]
    path = write_table(tmp_path / "quotes.csv", [row[:-1] + (text,), after], header=header, delimiter=delimiter)
    with pytest.raises(CorpusFormatError, match=fault):
        loader(path)


@TABLES
@pytest.mark.parametrize("delimiter", [",", "\t"], ids=["comma", "tab"])
def test_unterminated_quote_is_reported_where_its_record_starts(tmp_path, loader, header, row, delimiter) -> None:
    # header on line 1, a good row on 2, the bad record on 3, six more rows to line 9
    rows = [row, ("t2",) + row[1:-1] + ('"never closed',)]
    rows += [(f"t{i}",) + row[1:] for i in range(3, 9)]
    path = write_table(tmp_path / "runon.csv", rows, header=header, delimiter=delimiter)
    with pytest.raises(CorpusFormatError, match=r": line 3: unexpected end of data$"):
        loader(path)
    path = write_table(tmp_path / "header.csv", rows[:1], header=('"' + header[0],) + header[1:],
                       delimiter=delimiter)
    with pytest.raises(CorpusFormatError, match=r": line 1: unexpected end of data$"):
        loader(path)


@TABLES
@pytest.mark.parametrize(
    ("first", "later", "fault"),
    [
        ("2014-01-01 10:00:00", "2014-01-02 10:00:00+00:00", "has a UTC offset"),
        ("2014-01-01 10:00:00+01:00", "2014-01-02 10:00:00", "has no UTC offset"),
    ],
    ids=["naive-then-aware", "aware-then-naive"],
)
def test_mixed_utc_offsets_are_a_format_error(tmp_path, loader, header, row, first, later, fault) -> None:
    # comparing such dates (merging, time-ordering) would raise TypeError
    header = header[:-1] + ("Date",) + header[-1:]
    rows = [row[:-1] + (date,) + row[-1:] for date in (first, "", later)]
    rows = [(f"{r[0]}{i}",) + r[1:] for i, r in enumerate(rows)]
    path = write_table(tmp_path / "zones.csv", rows, header=header)
    fault = (f"{path}: line 4: post {rows[2][0]!r}: date '{later.replace(' ', 'T')}' {fault}, "
             f"unlike the first dated post {rows[0][0]!r}")
    with pytest.raises(CorpusFormatError, match=f"^{re.escape(fault)}$"):
        loader(path)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_table_loaders_fuzz_raise_only_format_errors(tmp_path, annotations_csv, data) -> None:
    loader = data.draw(st.sampled_from([load_annotations, load_gold]))
    source = annotations_csv
    if loader is load_gold:
        source = tmp_path / "gold.csv"
        save_gold(merge_gold(load_annotations(annotations_csv)), source)
    path = tmp_path / "fuzzed.csv"
    path.write_bytes(data.draw(fuzzed_table(source)))
    try:
        loaded = loader(path)
    except (SentagreeError, OSError):
        return
    n = len(loaded)
    assert set(loaded.label.tolist()) <= {-1, 0, 1}
    if isinstance(loaded, GoldTable):
        assert len(loaded.post_ids) == len(loaded.dates) == len(loaded.texts) == len(loaded.merged_from) == n
        assert all(count >= 1 for count in loaded.merged_from.tolist())
    else:
        assert len(loaded.post) == len(loaded.annotator) == len(loaded.seq) == len(loaded.dates) == n
        assert len(loaded.texts) == n
        for ids, index in ((loaded.post_ids, loaded.post), (loaded.annotator_ids, loaded.annotator)):
            assert all(0 <= i < len(ids) for i in index.tolist()) and all(ids)


#: What a hand-made column may hold besides good values: codes, counts and indices out of range, an int past
#: 64 bits, fractions, NaN, bools and strings.
ODD_VALUES = st.one_of(st.integers(-2, 3), st.just(2**70), st.sampled_from([0.5, 1.0, float("nan")]), st.booleans(),
                       st.sampled_from(["", "1", "x"]))


@st.composite
def hand_column(draw, good, odd=ODD_VALUES):
    """A list drawn from ``good``, one time in ten with a value fewer, a
    value more, one value from ``odd`` or every value from ``odd``."""
    values, fault = list(draw(good)), draw(st.integers(0, 39))
    if fault == 0:
        values = values[:-1]
    elif fault == 1:
        values.append(draw(odd))
    elif fault == 2 and values:
        values[draw(st.integers(0, len(values) - 1))] = draw(odd)
    elif fault == 3:
        values = draw(st.lists(odd, min_size=len(values), max_size=len(values)))
    return values


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_hand_made_tables_fuzz_raise_only_format_errors(tmp_path, data) -> None:
    # a table made by hand is checked as a loaded one is: whatever its columns hold, it and what is made of it
    # hold codes -1/0/+1 and indices into its ids, or the constructor raises CorpusFormatError
    n = data.draw(st.integers(0, 5))

    def column(good, odd=ODD_VALUES):
        return data.draw(hand_column(st.lists(good, min_size=n, max_size=n), odd))

    def ids(k):
        return tuple(data.draw(hand_column(st.just("pqrstu"[:k]), st.just(""))))

    # texts and dates of any type: save_gold, prepare and merge_gold would fail on one that is no str or datetime
    label = np.array(column(st.integers(-1, 1)))
    texts = tuple(column(st.sampled_from(["", "great day"]), st.none() | ODD_VALUES))
    dates = tuple(column(st.sampled_from([None, datetime(2014, 1, 2), datetime(2014, 1, 1)]),
                         st.just(datetime(2014, 1, 1, tzinfo=timezone.utc)) | ODD_VALUES))
    try:
        if data.draw(st.booleans()):
            table = GoldTable(ids(n), label, dates, texts, np.array(column(st.integers(1, 3))))
            assert len(table.post_ids) == len(table.merged_from) == len(table)
            assert table.merged_from.dtype == np.int64 and min(table.merged_from.tolist(), default=1) >= 1
            rows = range(len(table))
            if data.draw(st.booleans()):
                save_gold(table, tmp_path / "gold.csv")
                untexted = [row[:3] + row[4:] for row in gold_rows(table)]  # texts None and "" both read back as ""
                assert [row[:3] + row[4:] for row in gold_rows(load_gold(tmp_path / "gold.csv"))] == untexted
            else:
                try:
                    assert set(prepare(table, min_df=1).labels.tolist()) <= {-1, 0, 1}
                except VocabularyError:  # a corpus of no word has no vocabulary
                    assert not any(table.texts)
        else:
            k, j = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
            post, annotator = (np.array(column(st.integers(0, m - 1), st.integers(-1, m) | ODD_VALUES)) for m in (k, j))
            table = AnnotationTable(ids(k), post, ids(j), annotator, label, np.arange(n), dates, texts)
            assert len(table.post) == len(table.annotator) == len(table.seq) == len(table)
            assert set(table.annotator.tolist()) <= set(range(len(table.annotator_ids)))
            assert all(table.annotator_ids[i] for i in table.annotator.tolist())
            rows = table.post.tolist()
            made = data.draw(st.sampled_from([merge_gold, extract_pairs]))(table)
            codes = made.label if isinstance(made, GoldTable) else np.concatenate([made.first, made.second])
            assert set(codes.tolist()) <= {-1, 0, 1}
            if isinstance(made, PairTable):
                assert set(made.post.tolist()) <= set(range(len(made.post_ids)))
    except CorpusFormatError:
        return
    assert table.label.dtype == np.int8 and set(table.label.tolist()) <= {-1, 0, 1}
    assert len(table.dates) == len(table.texts) == len(table)
    assert set(rows) <= set(range(len(table.post_ids))) and all(table.post_ids[i] for i in rows)


@pytest.mark.parametrize(("make", "fault"), [
    # what the program would misread or fail on unchecked: a code -2 (merge_gold would read it as +1), an index past
    # the ids, columns of unequal length, a MergedFrom of strings, bools or 2**70
    (lambda: hand_annotations(label=np.array([0, -2], dtype=np.int8)), "post 'q': label -2 is not a code -1/0/+1"),
    (lambda: hand_annotations(post=[0, 2]), "row 1: post index 2 is outside the 2 post ids"),
    (lambda: hand_annotations(annotator=[0, 1]), "post 'q': annotator index 1 is outside the 1 annotator ids"),
    (lambda: hand_annotations(seq=[0]), "the seq column is of length 1 for 2 rows: post 'q' has none"),
    (lambda: hand_annotations(label=[0, 1, 1]), "the label column is of length 3 for 2 rows: value 3 has no row"),
    (lambda: hand_made(merged_from=("2", "2", "2")), "post 'a': bad MergedFrom value '2'"),
    (lambda: hand_made(merged_from=(True,) * 3), "post 'a': bad MergedFrom value True"),
    (lambda: hand_made(merged_from=(1, 1, 2**70)), f"post 'c': bad MergedFrom value {2**70}"),
    # what a loaded table never holds: an empty id, an index that is no integer (1.0 is one), an id of no row, a seq
    # that is no integer
    (lambda: hand_annotations(post_ids=("p", "")), "post '' has an empty post id"),
    (lambda: hand_annotations(annotator_ids=("",)), "post 'p' has an empty annotator id"),
    (lambda: hand_made(post_ids=("a", "", "c")), "post '' has an empty post id"),
    (lambda: hand_annotations(annotator=[0.0, 0.5]), "post 'q': annotator index 0.5 is outside the 1 annotator ids"),
    (lambda: hand_annotations(post=[0.0, 1.0], label=[0, 5]), "post 'q': label 5 is not a code -1/0/+1"),
    (lambda: hand_annotations(post=[1, 1]), "post 'p' has no row"),
    (lambda: hand_annotations(seq=["0", "1"]), "post 'p': seq is of <U1, not an integer type"),
    (lambda: hand_annotations(dates=(datetime(2014, 1, 1), datetime(2014, 1, 1, tzinfo=timezone.utc))),
     "post 'q': date '2014-01-01T00:00:00+00:00' has a UTC offset, unlike the first dated post 'p'"),
    # a date that is no datetime and a text that is no string, which merge_gold, prepare and save_gold would fail on
    (lambda: hand_annotations(dates=("2014-01-01", None)), "post 'p': date '2014-01-01' is not a datetime"),
    (lambda: hand_annotations(dates=(datetime(2014, 1, 1), "")), "post 'q': date '' is not a datetime"),
    (lambda: hand_made(dates=(None, date(2014, 1, 1), None)),
     "post 'b': date datetime.date(2014, 1, 1) is not a datetime"),
    (lambda: hand_made(texts=(None, 5, "z")), "post 'b': text 5 is not a string"),
    (lambda: hand_annotations(texts=("x", b"y")), "post 'q': text b'y' is not a string"),
    # the lowest faulty row over all checks, not the row of the first check that fails
    (lambda: hand_made(label=(0, 1, -2), merged_from=(0, 1, 1)), "post 'a': bad MergedFrom value 0"),
    (lambda: hand_annotations(label=[5, 0], annotator=[0, 3]), "post 'p': label 5 is not a code -1/0/+1"),
    (lambda: hand_annotations(label=[0, 5], seq=[0, 1, 2]), "post 'q': label 5 is not a code -1/0/+1"),
    # a repeated id: merge_gold would give two gold posts of one id, and two labels of one annotator would count as
    # an inter pair
    (lambda: hand_annotations(post_ids=("p", "p")), "post 'p' repeats an earlier post's id"),
    (lambda: hand_annotations(annotator_ids=("a", "a"), annotator=[0, 1]),
     "post 'q': annotator 'a' repeats an earlier annotator's id"),
    (lambda: hand_made(post_ids=("a", "b", "a")), "post 'a' repeats an earlier post's id"),
    (lambda: hand_annotations(post_ids=("p", "p"), post=[1, 2]), "post 'p' repeats an earlier post's id"),
], ids=["code", "post-index", "annotator-index", "short", "long", "strings", "bools", "2**70", "empty-post",
        "empty-annotator", "empty-gold-post", "float-index", "whole-float-index", "post-without-row", "seq", "offsets",
        "date-string", "empty-date-string", "date-without-time", "text-int", "text-bytes", "lowest-row",
        "code-before-index", "row-before-length", "repeated-post", "repeated-annotator", "repeated-gold-post",
        "repeat-before-outside"])
def test_a_hand_made_table_names_the_post_of_its_fault(make, fault) -> None:
    with pytest.raises(CorpusFormatError, match=f"^{re.escape(fault)}$"):
        make()


def hand_annotations(post_ids=("p", "q"), post=(0, 1), annotator_ids=("a",), annotator=(0, 0), label=(0, 1),
                     seq=(0, 1), dates=(None, None), texts=("x", "y")) -> AnnotationTable:
    """A two-row AnnotationTable built by hand, column by column."""
    return AnnotationTable(post_ids, np.array(post), annotator_ids, np.array(annotator), np.array(label),
                           np.array(seq), tuple(dates), tuple(texts))


@pytest.mark.parametrize(("loader", "row", "fault"), [
    (load_annotations, (" ", "Positive", "a2", "hi"), "post '' has an empty post id"),
    (load_gold, (" ", "Positive", "a2", "hi"), "post '' has an empty post id"),
    (load_annotations, ("t2", "Positive", "", "hi"), "post 't2' has an empty annotator id"),
    (load_gold, ("t2", "Positive", "", "hi"), "post 't2' has an empty annotator id"),
    (load_gold, (" ", "Positive", "hi"), "post '' has an empty post id"),  # a merged gold file: no annotator column
], ids=["post-load_annotations", "post-load_gold", "annotator-load_annotations", "annotator-load_gold", "post-merged"])
def test_empty_ids_report_path_and_line(tmp_path, loader, row, fault) -> None:
    # the first record spans lines 2 and 3, so the empty id is on line 4
    header = ("TweetID", "HandLabel", "AnnotatorID", "Text") if len(row) == 4 else ("TweetID", "HandLabel", "Text")
    first = ("t1", "Positive", "a1", '"two\nlines"') if len(row) == 4 else ("t1", "Positive", '"two\nlines"')
    path = write_table(tmp_path / "ids.csv", [first, row], header=header)
    with pytest.raises(CorpusFormatError, match=f"^{re.escape(f'{path}: line 4: {fault}')}$"):
        loader(path)


@TABLES
@pytest.mark.parametrize("offset_first", [True, False], ids=["offset-first", "label-first"])
def test_the_first_fault_in_the_file_is_the_one_reported(tmp_path, loader, header, row, offset_first) -> None:
    # a date with a UTC offset among dates without one is found by the table's constructor, after the rows are
    # read, and an unknown label as its row is parsed; either way the earlier line is reported
    header = header[:-1] + ("Date",) + header[-1:]
    rows = [(f"t{i}",) + row[1:-1] + ("2014-01-01 10:00:00", row[-1]) for i in range(4)]
    offset, label = (1, 3) if offset_first else (3, 1)
    rows[offset] = rows[offset][:-2] + ("2014-01-02 10:00:00+00:00", row[-1])
    rows[label] = (rows[label][0], "Wonderful") + rows[label][2:]
    path = write_table(tmp_path / "faults.csv", rows, header=header)
    fault = (f"{path}: line 3: post 't1': date '2014-01-02T10:00:00+00:00' has a UTC offset, unlike the first dated "
             "post 't0'" if offset_first else f"{path}: line 3: unknown label 'Wonderful'")
    with pytest.raises(CorpusFormatError, match=f"^{re.escape(fault)}$"):
        loader(path)


def test_annotation_table_is_read_only_columns(annotations_csv) -> None:
    table = load_annotations(annotations_csv)
    assert len(table) == len(table.seq) == len(table.dates) == len(table.texts) == 6
    rows = annotation_rows(table)
    assert rows[2] == ("p1", "ann2", 0, 2, datetime(2014, 1, 1, 10, 10), "so bad :(")
    assert rows[-1] == ("p3", "ann2", 0, 5, datetime(2014, 1, 3, 8, 0), "meeting at noon")
    assert table.delimiter == ","
    for column in (table.post, table.annotator, table.label, table.seq):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1


def test_gold_table_is_read_only_columns(annotations_csv) -> None:
    gold = merge_gold(load_annotations(annotations_csv))
    posts = gold_rows(gold)
    assert type(gold) is GoldTable
    assert len(gold) == len(posts) == 3
    for cut in (slice(1, None), slice(None, None, -1), np.array([2, 0]), gold.merged_from > 1):
        part = gold[cut]
        assert type(part) is GoldTable and gold_rows(part) == [posts[i] for i in np.arange(len(posts))[cut]]
    for column in (gold.label, gold.merged_from):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1
    assert type(merge_gold([])) is GoldTable and gold_rows(merge_gold([])) == []


@pytest.mark.parametrize("make", [lambda csv: load_annotations(csv), lambda csv: merge_gold(load_annotations(csv)),
                                  lambda csv: extract_pairs(load_annotations(csv))],
                         ids=["annotations", "gold", "pairs"])
def test_a_table_is_no_sequence_of_records(annotations_csv, make) -> None:
    # without a refusal, Python would iterate by calling table[0], table[1], ...
    table = make(annotations_csv)
    name = type(table).__name__
    with pytest.raises(TypeError, match=f"^a {name} is not iterable: read its columns$"):
        iter(table)
    with pytest.raises(TypeError, match=f"^a {name} is not iterable: read its columns$"):
        list(table)
    for position in (0, -1, np.int64(1), [0, 1]):
        with pytest.raises(TypeError, match=f"^a {name} takes a slice or an index array, not .*: read its columns$"):
            table[position]
    assert table == table and table != table[:]  # compared by identity, not row by row


POST_IDS = ("p0", "p1", "p2", "p3", "p4")


@st.composite
def annotation_lists(draw):
    """Records of one to five posts with one to four annotations each,
    in shuffled list order and with shuffled ``seq`` numbers (repeated
    half of the time); dates all present, partly missing or absent, and
    texts missing, empty or not."""
    counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=len(POST_IDS)))
    posts = [POST_IDS[i] for i, k in enumerate(counts) for _ in range(k)]
    seqs = draw(st.permutations(range(len(posts))))
    if draw(st.booleans()):
        seqs = [seq // 2 for seq in seqs]
    dating = draw(st.sampled_from(["all", "some", "none"]))
    records = []
    for i in draw(st.permutations(range(len(posts)))):
        dated = dating == "all" or (dating == "some" and draw(st.booleans()))
        records.append(ann(
            posts[i], draw(st.sampled_from("abc")), draw(st.integers(-1, 1)), seqs[i],
            datetime(2014, 1, 1) + timedelta(hours=draw(st.integers(0, 3))) if dated else None,
            draw(st.sampled_from([None, "", "x", "y z"])),
        ))
    return records


@settings(max_examples=300, deadline=None)
@given(records=annotation_lists())
def test_columnar_pairs_and_merge_equal_the_record_path(records) -> None:
    assert pair_rows(extract_pairs(records)) == oracles.extract_pairs_reference(records)
    assert gold_rows(merge_gold(records)) == gold_rows(oracles.merge_gold_reference(records))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=annotation_lists())
def test_a_loaded_table_pairs_and_merges_as_its_records(tmp_path, records) -> None:
    rows = [(r.post_id, r.label.to_string(), r.annotator_id,
             r.timestamp.isoformat(sep=" ") if r.timestamp else "", r.text or "") for r in records]
    table = load_annotations(write_table(tmp_path / "table.csv", rows))
    records = records_of(table)
    assert columns(extract_pairs(table)) == columns(extract_pairs(records))
    assert pair_rows(extract_pairs(table)) == oracles.extract_pairs_reference(records)
    assert columns(merge_gold(table)) == columns(merge_gold(records))
    assert gold_rows(merge_gold(table)) == gold_rows(oracles.merge_gold_reference(records))


#: Table slices: cut at either end, strided, reversed, empty.
SLICES = [slice(1, 3), slice(2, None), slice(None, -2), slice(None, None, 2), slice(1, None, 3),
          slice(None, None, -1), slice(3, 1), slice(9, None)]


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=annotation_lists())
def test_a_slice_of_either_table_is_a_table_of_its_items(tmp_path, records) -> None:
    rows = [(r.post_id, r.label.to_string(), r.annotator_id,
             r.timestamp.isoformat(sep=" ") if r.timestamp else "", r.text or "") for r in records]
    table = load_annotations(write_table(tmp_path / "table.tsv", rows, delimiter="\t"))
    pairs = extract_pairs(table)
    for cut in SLICES:
        for whole, rows in ((table, annotation_rows), (pairs, pair_rows)):
            part = whole[cut]
            assert type(part) is type(whole) and rows(part) == rows(whole)[cut]
        part = table[cut]
        assert part.delimiter == "\t"
        assert pair_rows(extract_pairs(part)) == pair_rows(extract_pairs(records_of(part)))
        assert gold_rows(merge_gold(part)) == gold_rows(merge_gold(records_of(part)))


def test_pair_table_selects_by_mask() -> None:
    pairs = extract_pairs([ann("p", "A", 1, 0), ann("p", "A", 0, 1), ann("p", "B", -1, 2)])
    own = pairs[pairs.self]
    assert len(own) == 1 and pair_rows(own) == pair_rows(pairs)[:1]
    assert pair_rows(pairs[~pairs.self]) == [p for p in pair_rows(pairs) if not p[2]] == [(1, -1, False, "p"),
                                                                                            (0, -1, False, "p")]
    assert np.array_equal(pairs[1:].first, [1, 0])


def test_extract_pairs_all_combinations() -> None:
    records = [
        ann("p", "A", 1, 0),
        ann("p", "A", 1, 1),
        ann("p", "B", 0, 2),
        ann("q", "A", -1, 3),  # singly annotated: no pairs
    ]
    pairs = extract_pairs(records)
    assert len(pairs) == 3
    assert pair_rows(pairs) == [
        (1, 1, True, "p"),
        (1, 0, False, "p"),
        (1, 0, False, "p"),
    ]


def test_extract_pairs_count_is_k_choose_2() -> None:
    records = [ann("p", f"a{i}", 0, i) for i in range(5)]
    assert len(extract_pairs(records)) == 10


def test_merge_rules() -> None:
    cases = [
        ([1, 1, 1], 1),      # unanimity
        ([0, 0], 0),
        ([-1, -1], -1),
        ([0, -1], -1),       # neutral defers to negative
        ([0, 1], 1),         # neutral defers to positive
        ([-1, 1], 0),        # opposite polar labels cancel
        ([-1, 0, 1], 0),     # all three distinct
        ([-1, -1, 0], -1),   # two distinct values at any multiplicity
        ([1, 0, 0], 1),
        ([-1, 1, 1], 0),
    ]
    for labels, expected in cases:
        records = [ann("p", f"a{i}", lab, i) for i, lab in enumerate(labels)]
        merged = merge_gold(records)
        assert merged.label.tolist() == [expected], labels
        assert merged.merged_from.tolist() == [len(labels)]


def test_merge_orders_by_earliest_timestamp() -> None:
    records = [
        ann("late", "a", 0, 0, ts=datetime(2014, 2, 1)),
        ann("early", "a", 1, 1, ts=datetime(2014, 1, 5)),
        ann("late", "b", 0, 2, ts=datetime(2014, 1, 1)),  # earliest of 'late'
    ]
    merged = merge_gold(records)
    assert merged.post_ids == ("late", "early")
    assert merged.dates[0] == datetime(2014, 1, 1)


def test_merge_falls_back_to_seq_without_timestamps() -> None:
    records = [
        ann("b", "a", 0, 0),
        ann("a", "a", 1, 1, ts=datetime(2014, 1, 1)),  # mixed: seq ordering used
    ]
    merged = merge_gold(records)
    assert merged.post_ids == ("b", "a")


def test_merge_rejects_mixed_utc_offsets() -> None:
    records = [
        ann("p", "a", 0, 0),
        ann("p", "b", 0, 1, ts=datetime(2014, 1, 1)),
        ann("r", "b", 1, 2, ts=datetime(2014, 1, 2, tzinfo=timezone.utc)),
    ]
    with pytest.raises(CorpusFormatError, match=r"post 'r': date .* has a UTC offset, unlike the first dated post 'p'$"):
        merge_gold(records)


def test_merge_keeps_first_text() -> None:
    records = [
        ann("p", "a", 0, 0, text=None),
        ann("p", "b", 0, 1, text="hello"),
        ann("p", "c", 0, 2, text="other"),
    ]
    merged = merge_gold(records)
    assert merged.texts == ("hello",)


def test_merge_is_idempotent() -> None:
    records = [
        ann("p", "a", -1, 0, ts=datetime(2014, 1, 1)),
        ann("p", "b", 0, 1, ts=datetime(2014, 1, 2)),
        ann("q", "a", 1, 2, ts=datetime(2014, 1, 3)),
    ]
    first = merge_gold(records)
    again = merge_gold(
        [
            ann(post_id, "merged", code, i, ts=date, text=text)
            for i, (post_id, code, date, text, _) in enumerate(gold_rows(first))
        ]
    )
    assert (again.post_ids, again.label.tolist(), again.dates) == (first.post_ids, first.label.tolist(), first.dates)


def test_time_ordered_chunks_sizes() -> None:
    posts = [GoldPost(post_id=str(i), label=SentimentLabel.NEUTRAL) for i in range(25)]
    order, sizes = time_ordered_chunks(posts, 10)
    assert sizes == (10, 20, 25) and order == posts
    assert time_ordered_chunks(posts[:10], 10)[1] == (10,)
    assert time_ordered_chunks(posts[:7], 10)[1] == (7,)


def test_time_ordered_chunks_sorts_by_timestamp() -> None:
    posts = [
        GoldPost(post_id="b", label=SentimentLabel.NEUTRAL, timestamp=datetime(2014, 2, 1)),
        GoldPost(post_id="a", label=SentimentLabel.NEUTRAL, timestamp=datetime(2014, 1, 1)),
    ]
    order, sizes = time_ordered_chunks(posts, 1)
    assert [p.post_id for p in order[: sizes[0]]] == ["a"]
    assert [p.post_id for p in order[: sizes[-1]]] == ["a", "b"]


def test_time_ordered_chunks_holds_one_order_not_one_list_per_prefix() -> None:
    start = datetime(2014, 1, 1)
    posts = [GoldPost(str(i), SentimentLabel.NEUTRAL, start + timedelta(minutes=i * 7919 % 20000))
             for i in range(20000)]
    tracemalloc.start()
    try:
        order, sizes = time_ordered_chunks(posts, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, f"{peak} bytes allocated"  # one list per prefix takes about 16 MB
    assert sizes == tuple(range(100, 20001, 100))
    assert [p.timestamp for p in order] == sorted(p.timestamp for p in posts)


@settings(max_examples=200, deadline=None)
@given(hours=st.lists(st.integers(0, 3), max_size=12), undated=st.booleans())
def test_time_ordered_chunks_of_a_table_is_a_stable_sort(hours, undated) -> None:
    dates = [datetime(2014, 1, 1, hour) for hour in hours]
    if undated and dates:
        dates[len(dates) // 2] = None  # one post without a date: the given order is kept
    n = len(dates)
    gold = GoldTable(tuple(f"p{i}" for i in range(n)), np.array([i % 3 - 1 for i in range(n)], dtype=np.int8),
                     tuple(dates), tuple(f"text {i}" for i in range(n)), np.arange(1, n + 1))
    order, sizes = time_ordered_chunks(gold, 5)
    rows = gold_rows(gold)
    expected = rows if None in dates else sorted(rows, key=lambda row: row[2])
    assert type(order) is GoldTable and gold_rows(order) == expected and sizes == (*range(5, n, 5), n)
    for earlier, later in zip(gold_rows(order), gold_rows(order)[1:]):  # equal timestamps keep their given order
        if earlier[2] == later[2]:
            assert int(earlier[0][1:]) < int(later[0][1:])
    listed, listed_sizes = time_ordered_chunks(posts_of(gold), 5)  # a list is ordered by the same rule
    assert gold_rows(listed) == expected and listed_sizes == sizes


def test_time_ordered_chunks_returns_a_table_in_time_order_itself() -> None:
    hours = [0, 1, 1, 1, 2, 5, 5, 9]  # ties included
    n = len(hours)
    gold = GoldTable(tuple(f"p{i}" for i in range(n)), np.zeros(n, dtype=np.int8),
                     tuple(datetime(2014, 1, 1, hour) for hour in hours), (None,) * n, np.ones(n, dtype=np.int64))
    order, sizes = time_ordered_chunks(gold, 3)
    assert order is gold and sizes == (3, 6, 8)
    shuffled = gold[np.array([5, 2, 7, 1, 0, 6, 3, 4])]
    order, _ = time_ordered_chunks(shuffled, 3)
    assert order is not shuffled and gold_rows(order) == sorted(gold_rows(shuffled), key=lambda row: row[2])
    assert order.post_ids == ("p0", "p2", "p1", "p3", "p4", "p5", "p6", "p7")  # ties as given


def test_reordering_a_table_makes_no_python_int_per_row() -> None:
    """The tuple columns of a 20,000-post table are reordered as objects,
    so the reordering peaks below twice what the new table keeps; a list
    of Python row numbers per column took about two and a half times."""
    n = 20000
    dates = tuple(datetime(2014, 1, 1) + timedelta(minutes=i * 7919 % n) for i in range(n))
    gold = GoldTable(tuple(f"p{i}" for i in range(n)), np.zeros(n, dtype=np.int8), dates,
                     tuple(f"text {i}" for i in range(n)), np.ones(n, dtype=np.int64))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        order, _ = time_ordered_chunks(gold, n)
        kept, peak = (size - before for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert peak < 2 * kept, f"{peak} bytes at the peak for {kept} kept"
    assert order.dates == tuple(sorted(dates)) and order.post_ids[:2] == ("p0", f"p{pow(7919, -1, n)}")


def test_time_ordered_chunks_rejects_mixed_utc_offsets() -> None:
    posts = [
        GoldPost(post_id="a", label=SentimentLabel.NEUTRAL, timestamp=datetime(2014, 1, 1, tzinfo=timezone.utc)),
        GoldPost(post_id="b", label=SentimentLabel.NEUTRAL, timestamp=datetime(2014, 1, 1)),
    ]
    with pytest.raises(CorpusFormatError, match=r"post 'b': date .* has no UTC offset, unlike the first dated post 'a'$"):
        time_ordered_chunks(posts, 1)


def test_time_ordered_chunks_rejects_bad_step() -> None:
    with pytest.raises(CorpusFormatError, match="positive"):
        time_ordered_chunks([], 0)
    posts = [GoldPost(f"p{i}", SentimentLabel.NEUTRAL) for i in range(5)]
    for step in (2.5, True, "2"):  # each would end in a TypeError or make steps of 1
        with pytest.raises(CorpusFormatError, match=f"^step must be a positive integer, got {step!r}$"):
            time_ordered_chunks(posts, step)


def test_save_and_load_gold_round_trip(tmp_path) -> None:
    gold = [
        GoldPost("p1", SentimentLabel.NEGATIVE, datetime(2014, 1, 1, 8), "bad day", 3),
        GoldPost("p2", SentimentLabel.POSITIVE, datetime(2014, 1, 2, 9), "great day", 1),
    ]
    path = tmp_path / "gold.csv"
    save_gold(gold, path)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "TweetID,HandLabel,Date,Text,MergedFrom"
    assert gold_rows(load_gold(path)) == gold_rows(gold)


@pytest.mark.parametrize("delimiter", [",", "\t"], ids=["comma", "tab"])
def test_save_gold_round_trips_quotes_tabs_and_newlines(tmp_path, delimiter) -> None:
    texts = ['"great" day', 'say "hi"', '"', '""', "tab\there", "two\nlines", "cr\r\nlf",
             'all, "of\tit"\n', ",", " padded "]
    gold = [GoldPost(f"p{i}", SentimentLabel.NEUTRAL, text=text) for i, text in enumerate(texts)]
    path = tmp_path / "gold.txt"
    save_gold(gold, path, delimiter=delimiter)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == delimiter.join(("TweetID", "HandLabel", "Text", "MergedFrom"))
    assert gold_rows(load_gold(path)) == gold_rows(gold)


@pytest.mark.parametrize("delimiter", [",", "\t"], ids=["comma", "tab"])
def test_save_gold_round_trips_a_bare_carriage_return(tmp_path, delimiter) -> None:
    # the writer leaves a \r unquoted when nothing else in its field needs quotes, and the reader ends a row there
    gold = [GoldPost("p\r1", SentimentLabel.NEGATIVE, text="bad"), GoldPost("p2", SentimentLabel.POSITIVE, text="a\rb"),
            GoldPost("p3", SentimentLabel.NEUTRAL, text="plain")]
    path = tmp_path / "gold.txt"
    save_gold(gold, path, delimiter=delimiter)
    assert gold_rows(load_gold(path)) == gold_rows(gold)
    assert path.read_bytes().count(b"\n") == 4  # a header and three rows


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=annotation_lists(), delimiter=st.sampled_from([",", "\t"]))
def test_save_gold_writes_the_same_bytes_from_a_table_and_from_a_list(tmp_path, records, delimiter) -> None:
    # dates all present, partly missing or absent, and texts present or not
    gold = merge_gold(records)
    written = []
    for save, posts in ((save_gold, gold), (save_gold, posts_of(gold)), (oracles.save_gold_reference, posts_of(gold))):
        save(posts, tmp_path / "gold.txt", delimiter=delimiter)
        written.append((tmp_path / "gold.txt").read_bytes())
    assert written[0] == written[1] == written[2]


@pytest.mark.parametrize("delimiter", [",", "\t"], ids=["comma", "tab"])
def test_save_gold_from_columns_writes_what_the_row_writer_wrote(tmp_path, delimiter) -> None:
    texts = ['"great" day', "tab\there", "two\nlines", "", None, 'all, "of\tit"\n', " padded "]
    gold = [GoldPost(f"p{i}", SentimentLabel(i % 3 - 1), datetime(2014, 1, 1, i, 30) if i % 2 else None, text, i + 1)
            for i, text in enumerate(texts)]
    save_gold(gold, tmp_path / "list.txt", delimiter=delimiter)
    save_gold(load_gold(tmp_path / "list.txt"), tmp_path / "table.txt", delimiter=delimiter)
    oracles.save_gold_reference(gold, tmp_path / "rows.txt", delimiter=delimiter)
    assert (tmp_path / "list.txt").read_bytes() == (tmp_path / "table.txt").read_bytes() == (
        tmp_path / "rows.txt").read_bytes()


@pytest.mark.parametrize("delimiter", [";", "|", " ", ",\t", ""])
def test_save_gold_rejects_a_delimiter_load_gold_cannot_detect(tmp_path, delimiter) -> None:
    # load_gold tells a comma from a tab by the header alone; a ';' table would read as one column and be
    # refused for want of a post id column
    path = tmp_path / "gold.csv"
    with pytest.raises(ValueError, match=f"^delimiter must be ',' or '\\\\t', the two a table is read with, "
                                         f"not {re.escape(repr(delimiter))}$"):
        save_gold([GoldPost("p1", SentimentLabel.NEUTRAL)], path, delimiter=delimiter)
    assert not path.exists()


@pytest.mark.parametrize("code", [-2, 2, 300, 0.6, 1.7])
def test_save_gold_rejects_a_label_outside_the_codes(tmp_path, code) -> None:
    # the row writer had no name for such a label either; a column lookup must not wrap -2 round to Positive,
    # and a cast must not make 0.6 Neutral and 1.7 Positive
    gold = [GoldPost("p1", SentimentLabel.NEUTRAL), GoldPost("p2", code)]
    with pytest.raises(CorpusFormatError, match=f"^post 'p2': label {code} is not a code -1/0/\\+1$"):
        save_gold(gold, tmp_path / "gold.csv")


@pytest.mark.parametrize("count", [0, -3])
def test_save_gold_rejects_merged_from_below_one(tmp_path, count) -> None:
    gold = [GoldPost("p1", SentimentLabel.NEUTRAL), GoldPost("p2", SentimentLabel.POSITIVE, merged_from=count)]
    with pytest.raises(CorpusFormatError, match=f"^post 'p2': bad MergedFrom value {count}$"):
        save_gold(gold, tmp_path / "gold.csv")
    assert not (tmp_path / "gold.csv").exists()


def test_save_gold_rejects_mixed_utc_offsets_before_writing(tmp_path) -> None:
    # load_gold would reject the file, so none is written
    gold = [
        GoldPost("a", SentimentLabel.POSITIVE, datetime(2020, 1, 1)),
        GoldPost("b", SentimentLabel.NEUTRAL, datetime(2020, 1, 2, tzinfo=timezone.utc)),
    ]
    with pytest.raises(CorpusFormatError, match=r"^post 'b': date .* has a UTC offset, unlike the first dated post 'a'$"):
        save_gold(gold, tmp_path / "gold.csv")
    assert not (tmp_path / "gold.csv").exists()


def hand_made(label=(0, 1, -1), dates=(None,) * 3, texts=("x", "y", "z"), merged_from=(1, 1, 1),
              post_ids=("a", "b", "c")) -> GoldTable:
    """A three-post GoldTable built by hand, column by column."""
    return GoldTable(post_ids, np.array(label), tuple(dates), tuple(texts), np.array(merged_from))


def test_a_hand_made_gold_table_refuses_a_code_outside_the_codes(tmp_path) -> None:
    # the label names are looked up by code + 1, so -2 would be saved as Positive
    with pytest.raises(CorpusFormatError, match=r"^post 'c': label -2 is not a code -1/0/\+1$"):
        save_gold(hand_made(label=(0, 1, -2)), tmp_path / "gold.csv")
    assert not (tmp_path / "gold.csv").exists()


def test_a_hand_made_gold_table_refuses_a_fractional_label() -> None:
    # a float column would end in an IndexError where the label names are looked up
    with pytest.raises(CorpusFormatError, match=r"^post 'b': label 0.5 is not a code -1/0/\+1$"):
        hand_made(label=(0.0, 0.5, 1.0))
    assert hand_made(label=(0.0, 1.0, -1.0)).label.tolist() == [0, 1, -1]  # whole floats are codes


@pytest.mark.parametrize("count", [0, -3, 1.5, float("nan"), float("inf"), 2**63])
def test_a_hand_made_gold_table_refuses_a_merged_from_that_is_no_count(count, tmp_path) -> None:
    # load_gold refuses MergedFrom 0, so no table may hold one to save; the int64 cast would make 1.5 a 1
    # and 2**63 (a uint64 column) a negative count
    with pytest.raises(CorpusFormatError, match=f"^post 'a': bad MergedFrom value {count!r}$"):
        save_gold(hand_made(merged_from=(count,) * 3), tmp_path / "gold.csv")
    assert not (tmp_path / "gold.csv").exists()
    assert hand_made(merged_from=(1.0, 2.0, 3)).merged_from.tolist() == [1, 2, 3]  # whole floats are counts


@pytest.mark.parametrize(("column", "message"), [
    ({"label": (0, 1)}, "^the label column is of length 2 for 3 posts: post 'c' has none$"),
    ({"texts": ("x",)}, "^the text column is of length 1 for 3 posts: post 'b' has none$"),
    ({"dates": (None,) * 4}, "^the date column is of length 4 for 3 posts: value 4 has no post$"),
], ids=["short-label", "short-texts", "long-dates"])
def test_a_hand_made_gold_table_refuses_columns_of_unequal_length(column, message) -> None:
    # zip would cut every column to the shortest when the table is saved
    with pytest.raises(CorpusFormatError, match=message):
        hand_made(**column)


def test_posts_made_by_hand_refuse_a_text_or_date_of_another_type(tmp_path) -> None:
    posts = [GoldPost("p", SentimentLabel.POSITIVE, text="fine"), GoldPost("q", SentimentLabel.NEUTRAL, text=5)]
    with pytest.raises(CorpusFormatError, match="^post 'q': text 5 is not a string$"):
        save_gold(posts, tmp_path / "gold.csv")
    assert not (tmp_path / "gold.csv").exists()
    with pytest.raises(CorpusFormatError, match="^post 'q': text 5 is not a string$"):
        prepare(posts, min_df=1)
    posts[1] = GoldPost("q", SentimentLabel.NEUTRAL, timestamp="2014-01-01", text="fine")
    with pytest.raises(CorpusFormatError, match="^post 'q': date '2014-01-01' is not a datetime$"):
        time_ordered_chunks(posts, 1)


def test_a_hand_made_gold_table_refuses_mixed_utc_offsets() -> None:
    # prepare's sort by date would end in a TypeError comparing the two
    dates = (datetime(2020, 1, 2), datetime(2020, 1, 1, tzinfo=timezone.utc), None)
    with pytest.raises(CorpusFormatError, match=r"^post 'b': date .* has a UTC offset, unlike the first dated post 'a'$"):
        hand_made(dates=dates)


@pytest.mark.parametrize("code", [-2, 2, 300, -0.5, 1.7])
@pytest.mark.parametrize("entry", [extract_pairs, merge_gold])
def test_records_with_a_label_outside_the_codes_are_rejected(entry, code) -> None:
    # an int8 cast would wrap 300 round to 44, code 2 indexed past the label names, and -0.5 would be 0
    records = [AnnotationRecord("p1", "a", 0, 0), AnnotationRecord("p2", "a", 0, 1),
               AnnotationRecord("p2", "b", code, 2)]
    with pytest.raises(CorpusFormatError, match=f"^post 'p2': label {code} is not a code -1/0/\\+1$"):
        entry(records)


def test_load_gold_merges_a_raw_table(annotations_csv) -> None:
    gold = load_gold(annotations_csv)
    assert columns(gold) == columns(merge_gold(load_annotations(annotations_csv)))
    assert gold.merged_from.tolist() == [3, 2, 1]


def test_load_gold_requires_label_column(tmp_path) -> None:
    path = write_table(tmp_path / "bad.csv", [("p", "x")], header=("TweetID", "Other"))
    with pytest.raises(CorpusFormatError, match="label"):
        load_gold(path)


def test_empty_ids_rejected() -> None:
    with pytest.raises(CorpusFormatError, match="post id"):
        ann("", "a", 0, 0)
    with pytest.raises(CorpusFormatError, match="annotator"):
        ann("p", "", 0, 0)
