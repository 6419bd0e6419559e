"""Annotated-corpus ingestion, pair extraction, gold merging, chunking.

The on-disk format is a delimiter-separated table (comma or tab,
auto-detected from the header line) with one annotation per row, in
UTF-8 with an optional byte-order mark.  Columns are found from the
header alone; there is no way to name them by hand.  Header names are
matched case-insensitively:

=============  ========================================  =========
column         accepted header names                     required
=============  ========================================  =========
post id        ``TweetID``, ``ID``                       yes
label          ``HandLabel``, ``Label``                  yes
annotator id   ``AnnotatorID``                           yes
timestamp      ``Date``                                  no
text           ``Text``                                  no
=============  ========================================  =========

Labels are the strings ``Negative`` / ``Neutral`` / ``Positive``
(case-insensitive) and map to the integer codes -1 / 0 / +1.  Any other
label value is a hard error that reports the offending line number.
Line numbers count physical lines of the file, so a record after a
quoted field that spans lines, or a malformed record such as one whose
quote is never closed, is reported where it starts.  Bytes that
are not UTF-8, malformed CSV (including a field over the csv module's
128 KiB limit), rows too short for the header's columns, and dates
with a UTC offset in a table whose first date has none (or the
reverse), which could not be compared, are :class:`CorpusFormatError`
too.

Quoting is RFC 4180's for both delimiters, read strictly, so a field is
either read exactly or the load fails: a field that starts with ``"``
ends at the next lone ``"``, with ``""`` for a quote and delimiters and
line breaks as text; a quote never closed, or text after a closing
quote (``"great" day``), is :class:`CorpusFormatError`.  A ``"`` inside
an unquoted field is text.  :func:`save_gold` writes tables that read
back exactly.

Merged gold files use the same table layout minus the annotator column,
plus a ``MergedFrom`` column counting the annotations each post was
merged from.  :func:`load_gold` also accepts a raw annotation table and
merges it; the merge rule is stated once, in :func:`merge_gold`.
"""

from __future__ import annotations

import csv
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime
from enum import Enum, IntEnum
from itertools import chain, combinations
from operator import attrgetter
from pathlib import Path

from .errors import CorpusFormatError

__all__ = [
    "SentimentLabel",
    "PairKind",
    "AnnotationRecord",
    "LabelPair",
    "GoldPost",
    "sniff_delimiter",
    "load_annotations",
    "load_gold",
    "save_gold",
    "extract_pairs",
    "merge_gold",
    "time_ordered_chunks",
]

#: Accepted header names of each column, lowercase, in order of preference.
_COLUMNS = {
    "post id": ("tweetid", "id"),
    "label": ("handlabel", "label"),
    "annotator id": ("annotatorid",),
    "date": ("date",),
    "text": ("text",),
    "merge count": ("mergedfrom",),
}


class SentimentLabel(IntEnum):
    """Three-point ordinal sentiment scale with integer codes -1, 0, +1."""

    NEGATIVE = -1
    NEUTRAL = 0
    POSITIVE = 1

    @classmethod
    def from_string(cls, value: str, *, line: int | None = None) -> "SentimentLabel":
        """Parse ``Negative``/``Neutral``/``Positive`` (case-insensitive).

        Raises :class:`CorpusFormatError` for anything else, naming the
        offending input line when known.
        """
        label = _LABELS.get(value.strip().lower())
        if label is None:
            where = f" on line {line}" if line is not None else ""
            raise CorpusFormatError(f"unknown label {value!r}{where}")
        return label

    def to_string(self) -> str:
        return self.name.capitalize()


_LABELS = {m.name.lower(): m for m in SentimentLabel}


class PairKind(str, Enum):
    """Whether a label pair comes from one annotator or from two."""

    SELF = "self"
    INTER = "inter"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class AnnotationRecord:
    """One annotation event: a single label given to a single post.

    ``seq`` is the zero-based position of the row in its source file and
    serves as the ingestion-order fallback when timestamps are missing.
    """

    post_id: str
    annotator_id: str
    label: SentimentLabel
    seq: int
    timestamp: datetime | None = None
    text: str | None = None

    def __post_init__(self) -> None:
        if not self.post_id:
            raise CorpusFormatError("annotation has an empty post id")
        if not self.annotator_id:
            raise CorpusFormatError("annotation has an empty annotator id")


@dataclass(frozen=True)
class LabelPair:
    """An unordered pair of labels given to the same post.

    ``first`` belongs to the earlier annotation (smaller ``seq``).  The
    pair is a self-agreement pair exactly when both annotations were
    produced by the same annotator.
    """

    first: SentimentLabel
    second: SentimentLabel
    kind: PairKind
    post_id: str


@dataclass(frozen=True)
class GoldPost:
    """A post with a single merged gold label.

    ``merged_from`` counts how many raw annotations produced the label;
    it is 1 for posts that were never multiply annotated.
    """

    post_id: str
    label: SentimentLabel
    timestamp: datetime | None = None
    text: str | None = None
    merged_from: int = 1


@contextmanager
def _open_table(path: str | Path, required: Sequence[str] = (), optional: Sequence[str] = ()):
    """Open the table at ``path`` once; yield its delimiter, the indices
    of the ``required`` then ``optional`` columns (keys of ``_COLUMNS``;
    None if missing) and a ``csv.reader`` past the header.  Faults in the
    file raise :class:`CorpusFormatError` anywhere inside the ``with``
    block."""
    with open(path, encoding="utf-8-sig", newline="") as handle:
        try:
            first = handle.readline()
            if not first.strip():
                raise CorpusFormatError(f"{path}: empty file, expected a header row")
            delimiter = "\t" if "\t" in first else ","
            reader = csv.reader(chain([first], handle), delimiter=delimiter, strict=True)
            header = next(reader)
            lowered = [h.strip().lower() for h in header]
            columns = [next((lowered.index(a) for a in _COLUMNS[name] if a in lowered), None)
                       for name in (*required, *optional)]
            for name, column in zip(required, columns):
                if column is None:
                    raise CorpusFormatError(f"{path}: could not find a {name} column in header {header!r}")
            yield delimiter, columns, reader
        except UnicodeDecodeError as exc:
            raise CorpusFormatError(
                f"{path}: not UTF-8 text (cannot decode byte 0x{exc.object[exc.start]:02x})"
            ) from None
        except csv.Error as exc:  # data rows raise their own; this is the header, line 1
            raise CorpusFormatError(f"{path}: line 1: " + str(exc).replace("\t", "\\t")) from None


def sniff_delimiter(path: str | Path) -> str:
    """Return the column delimiter of ``path``: tab if the header line
    contains one, else comma."""
    with _open_table(path) as (delimiter, _, _):
        return delimiter


def _parse_timestamp(raw: str, line: int, path: str | Path) -> datetime | None:
    raw = raw.strip()
    if not raw:
        return None
    try:
        return datetime.fromisoformat(raw)
    except ValueError:
        pass
    for fmt in ("%Y-%m-%d %H:%M:%S%z", "%a %b %d %H:%M:%S %z %Y"):
        try:
            return datetime.strptime(raw, fmt)
        except ValueError:
            continue
    raise CorpusFormatError(f"{path}: unparseable date {raw!r} on line {line}")


def _posts(
    path: str | Path, required: Sequence[str] = (), optional: Sequence[str] = ()
) -> Iterator[tuple[int, str, SentimentLabel, datetime | None, str | None, list[str | None]]]:
    """The non-blank rows of the table at ``path`` as ``(line, post id,
    label, timestamp, text, cells)``: ``line`` is the file line the
    record starts on, ``cells`` hold the ``required`` then ``optional``
    extra columns (None where missing).  A fault in a row, including a
    date that has a UTC offset where the first date has none or the
    reverse, raises :class:`CorpusFormatError` naming its line."""
    names = ("post id", "label", *required, "date", "text", *optional)
    with _open_table(path, ("post id", "label", *required), ("date", "text", *optional)) as (_, columns, reader):
        found = dict(zip(names, columns))
        id_col, label_col, date_col, text_col = (found.pop(n) for n in ("post id", "label", "date", "text"))
        extra_cols = list(found.values())
        needed = max(c for c in columns if c is not None)
        aware = aware_line = None  # whether the first date has an offset, and its line
        line = reader.line_num + 1
        try:
            for row in reader:
                if "".join(row).strip():
                    if len(row) <= needed:
                        raise CorpusFormatError(
                            f"{path}: line {line} has {len(row)} fields, expected at least {needed + 1}"
                        )
                    timestamp = _parse_timestamp(row[date_col], line, path) if date_col is not None else None
                    if timestamp is not None:
                        if aware is None:
                            aware, aware_line = timestamp.tzinfo is not None, line
                        elif (timestamp.tzinfo is not None) is not aware:
                            raise CorpusFormatError(
                                f"{path}: date {row[date_col].strip()!r} on line {line} has "
                                f"{'no' if aware else 'a'} UTC offset, unlike the first date on line {aware_line}"
                            )
                    yield (
                        line,
                        row[id_col].strip(),
                        SentimentLabel.from_string(row[label_col], line=line),
                        timestamp,
                        row[text_col] if text_col is not None else None,
                        [row[c] if c is not None else None for c in extra_cols],
                    )
                line = reader.line_num + 1
        except csv.Error as exc:  # a raw tab would print as a space on the one-line error
            raise CorpusFormatError(f"{path}: line {line}: " + str(exc).replace("\t", "\\t")) from None


def load_annotations(path: str | Path) -> list[AnnotationRecord]:
    """Read an annotation table into a list of :class:`AnnotationRecord`.

    Rows are assigned ``seq`` numbers 0..n-1 in file order.  Unknown
    labels, missing required columns, and unparseable non-empty dates
    raise :class:`CorpusFormatError` with the offending line number;
    I/O errors propagate unchanged.
    """
    return [
        AnnotationRecord(post_id, annotator.strip(), label, seq, timestamp, text)
        for seq, (_, post_id, label, timestamp, text, (annotator,))
        in enumerate(_posts(path, ("annotator id",)))
    ]


def _check_offsets(items: Sequence[AnnotationRecord] | Sequence[GoldPost]) -> None:
    """Raise :class:`CorpusFormatError` naming the first of ``items``
    whose date has a UTC offset where the first dated one's has none, or
    the reverse: the two could not be compared, and a table holding both
    would not load."""
    dated = [item for item in items if item.timestamp is not None]
    naive = [item.timestamp.tzinfo is None for item in dated]
    if len(set(naive)) > 1:
        item = dated[naive.index(not naive[0])]
        raise CorpusFormatError(
            f"post {item.post_id!r}: date {item.timestamp.isoformat()!r} has "
            f"{'a' if naive[0] else 'no'} UTC offset, unlike the first dated post {dated[0].post_id!r}"
        )


def _by_post(records: Sequence[AnnotationRecord]) -> list[list[AnnotationRecord]]:
    """Each post's records sorted by ``seq``, posts in order of first appearance."""
    groups: dict[str, list[AnnotationRecord]] = {}
    for rec in records:
        groups.setdefault(rec.post_id, []).append(rec)
    by_seq = attrgetter("seq")
    return [sorted(group, key=by_seq) for group in groups.values()]


def extract_pairs(records: Sequence[AnnotationRecord]) -> list[LabelPair]:
    """Enumerate all unordered annotation pairs per post.

    Each post with k >= 2 annotations contributes k*(k-1)/2 pairs; posts
    annotated once contribute none.  A pair is ``self`` exactly when its
    two annotations share an annotator id, so one post can yield both
    self and inter pairs.
    """
    return [
        LabelPair(a.label, b.label, PairKind.SELF if a.annotator_id == b.annotator_id else PairKind.INTER,
                  a.post_id)
        for group in _by_post(records)
        for a, b in combinations(group, 2)
    ]


def merge_gold(records: Sequence[AnnotationRecord]) -> list[GoldPost]:
    """Collapse multiply-annotated posts into one gold label per post.

    The merged label is the sum of the post's distinct label codes:
    unanimity keeps the label, neutral defers to a polar label
    ({-1, 0} gives -1, {0, +1} gives +1), and opposite polar labels
    cancel to neutral ({-1, +1} and {-1, 0, +1} give 0).  The output
    carries the earliest timestamp and the first non-empty text of each
    post's annotations.  Posts are ordered by earliest timestamp when
    every post has one, otherwise by earliest ``seq``.  Merging is
    idempotent: re-merging a corpus with one annotation per post returns
    the same labels.  Dates with a UTC offset next to dates without one
    raise :class:`CorpusFormatError`, as in a table.
    """
    _check_offsets(records)
    merged: list[tuple[datetime | None, int, GoldPost]] = []
    for group in _by_post(records):
        earliest = min((r.timestamp for r in group if r.timestamp is not None), default=None)
        label = SentimentLabel(sum({r.label for r in group}))
        text = next((r.text for r in group if r.text), None)
        merged.append((earliest, group[0].seq, GoldPost(group[0].post_id, label, earliest, text, len(group))))
    timed = all(ts is not None for ts, _, _ in merged)
    merged.sort(key=lambda item: (item[0], item[1]) if timed else item[1])
    return [post for _, _, post in merged]


def time_ordered_chunks(gold: Sequence[GoldPost], step: int) -> list[list[GoldPost]]:
    """Growing time-ordered prefixes of sizes step, 2*step, ..., n.

    The last prefix is always the full corpus, even when ``n`` is not a
    multiple of ``step``.  Posts are ordered by timestamp when every
    post carries one; otherwise the given order is kept.  Dates with a
    UTC offset next to dates without one raise :class:`CorpusFormatError`,
    as in a table.
    """
    if step < 1:
        raise CorpusFormatError(f"step must be a positive integer, got {step}")
    posts = list(gold)
    _check_offsets(posts)
    if all(p.timestamp is not None for p in posts):
        posts.sort(key=lambda p: p.timestamp)  # type: ignore[arg-type, return-value]
    return [posts[:size] for size in range(step, len(posts), step)] + [posts]


def load_gold(path: str | Path) -> list[GoldPost]:
    """Read a gold table into memory, one :class:`GoldPost` per row.

    Accepts files produced by :func:`save_gold`; the ``MergedFrom``
    column is optional and defaults to 1.  A table with an annotator
    column holds raw annotations: they are read as by
    :func:`load_annotations` and merged by :func:`merge_gold`.
    """
    posts: list[GoldPost] = []
    records: list[AnnotationRecord] = []
    for line, post_id, label, timestamp, text, (annotator, merged) in _posts(
        path, optional=("annotator id", "merge count")
    ):
        if annotator is not None:
            records.append(AnnotationRecord(post_id, annotator.strip(), label, len(records), timestamp, text))
            continue
        try:
            merged_from = int(merged) if merged is not None else 1
        except ValueError:
            raise CorpusFormatError(f"{path}: bad MergedFrom value {merged!r} on line {line}") from None
        posts.append(GoldPost(post_id, label, timestamp, text, merged_from))
    if records:
        return merge_gold(records)
    if not posts:
        raise CorpusFormatError(f"{path}: no posts found")
    return posts


def save_gold(gold: Sequence[GoldPost], path: str | Path, delimiter: str = ",") -> None:
    """Write a merged gold corpus in the annotation table layout.

    Columns are ``TweetID``, ``HandLabel``, optional ``Date`` and
    ``Text`` (emitted when any post carries one), and ``MergedFrom``.
    """
    has_date = any(p.timestamp is not None for p in gold)
    has_text = any(p.text is not None for p in gold)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter, lineterminator="\n")
        header = ["TweetID", "HandLabel"]
        if has_date:
            header.append("Date")
        if has_text:
            header.append("Text")
        header.append("MergedFrom")
        writer.writerow(header)
        for post in gold:
            row = [post.post_id, post.label.to_string()]
            if has_date:
                row.append(post.timestamp.isoformat(sep=" ") if post.timestamp else "")
            if has_text:
                row.append(post.text if post.text is not None else "")
            row.append(str(post.merged_from))
            writer.writerow(row)
