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
128 KiB limit) and rows too short for the header's columns are
:class:`CorpusFormatError` too.

Quoting is RFC 4180's for both delimiters, read strictly, so a field is
either read exactly or the load fails: a field that starts with ``"``
ends at the next lone ``"``, with ``""`` for a quote and delimiters and
line breaks as text; a quote never closed, or text after a closing
quote (``"great" day``), is :class:`CorpusFormatError`.  A ``"`` inside
an unquoted field is text.  :func:`save_gold` writes tables that read
back exactly.

Merged gold files use the same table layout minus the annotator column,
plus a ``MergedFrom`` column counting the annotations each post was
merged from.
"""

from __future__ import annotations

import csv
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime
from enum import Enum, IntEnum
from itertools import chain
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

_LABEL_NAMES = {"negative": -1, "neutral": 0, "positive": 1}


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
        code = _LABEL_NAMES.get(value.strip().lower())
        if code is None:
            where = f" on line {line}" if line is not None else ""
            raise CorpusFormatError(f"unknown label {value!r}{where}")
        return cls(code)

    def to_string(self) -> str:
        return {-1: "Negative", 0: "Neutral", 1: "Positive"}[int(self)]


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


def _data_rows(reader, columns: Sequence[int | None], path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """Non-blank data rows with the file line each one starts on; a row
    too short to hold every column in ``columns``, or malformed CSV,
    raises :class:`CorpusFormatError` naming the line its record starts on."""
    needed = max(c for c in columns if c is not None)
    line = reader.line_num + 1
    try:
        for row in reader:
            if any(cell.strip() for cell in row):
                if len(row) <= needed:
                    raise CorpusFormatError(
                        f"{path}: line {line} has {len(row)} fields, expected at least {needed + 1}"
                    )
                yield line, row
            line = reader.line_num + 1
    except csv.Error as exc:  # a raw tab would print as a space on the one-line error
        raise CorpusFormatError(f"{path}: line {line}: " + str(exc).replace("\t", "\\t")) from None


@contextmanager
def _open_table(path: str | Path, required: Sequence[str] = (), optional: Sequence[str] = ()):
    """Open the table at ``path`` once; yield its delimiter, the indices
    of the ``required`` then ``optional`` columns (keys of ``_COLUMNS``;
    None if missing) and its data rows.  Faults in the file raise
    :class:`CorpusFormatError` anywhere inside the ``with`` block."""
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
            yield delimiter, columns, _data_rows(reader, columns, path)
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


def _is_annotation_table(path: str | Path) -> bool:
    """Whether the table at ``path`` holds raw annotations, not merged gold."""
    with _open_table(path, optional=("annotator id",)) as (_, (annotator_col,), _):
        return annotator_col is not None


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


def load_annotations(path: str | Path) -> list[AnnotationRecord]:
    """Read an annotation table into a list of :class:`AnnotationRecord`.

    Rows are assigned ``seq`` numbers 0..n-1 in file order.  Unknown
    labels, missing required columns, and unparseable non-empty dates
    raise :class:`CorpusFormatError` with the offending line number;
    I/O errors propagate unchanged.
    """
    records: list[AnnotationRecord] = []
    with _open_table(path, ("post id", "label", "annotator id"), ("date", "text")) as (_, columns, rows):
        id_col, label_col, annot_col, date_col, text_col = columns
        for line, row in rows:
            timestamp = _parse_timestamp(row[date_col], line, path) if date_col is not None else None
            records.append(
                AnnotationRecord(
                    post_id=row[id_col].strip(),
                    annotator_id=row[annot_col].strip(),
                    label=SentimentLabel.from_string(row[label_col], line=line),
                    seq=len(records),
                    timestamp=timestamp,
                    text=row[text_col] if text_col is not None else None,
                )
            )
    return records


def extract_pairs(records: Sequence[AnnotationRecord]) -> list[LabelPair]:
    """Enumerate all unordered annotation pairs per post.

    Each post with k >= 2 annotations contributes k*(k-1)/2 pairs; posts
    annotated once contribute none.  A pair is ``self`` exactly when its
    two annotations share an annotator id, so one post can yield both
    self and inter pairs.
    """
    by_post: dict[str, list[AnnotationRecord]] = {}
    for rec in records:
        by_post.setdefault(rec.post_id, []).append(rec)
    pairs: list[LabelPair] = []
    for post_id, group in by_post.items():
        if len(group) < 2:
            continue
        group = sorted(group, key=lambda r: r.seq)
        for i in range(len(group) - 1):
            for j in range(i + 1, len(group)):
                a, b = group[i], group[j]
                kind = PairKind.SELF if a.annotator_id == b.annotator_id else PairKind.INTER
                pairs.append(LabelPair(first=a.label, second=b.label, kind=kind, post_id=post_id))
    return pairs


def _merge_labels(labels: set[SentimentLabel]) -> SentimentLabel:
    """Label-merging rule for one post.

    Unanimity keeps the label.  With two distinct values (at any
    multiplicity), neutral defers to the polar label and opposite polar
    labels cancel to neutral.  All three values present also cancels to
    neutral, by composition of the pair rules.
    """
    if len(labels) == 1:
        return next(iter(labels))
    if len(labels) == 3:
        return SentimentLabel.NEUTRAL
    a, b = sorted(labels)
    if a == SentimentLabel.NEGATIVE and b == SentimentLabel.POSITIVE:
        return SentimentLabel.NEUTRAL
    if a == SentimentLabel.NEGATIVE:  # {-1, 0}
        return SentimentLabel.NEGATIVE
    return SentimentLabel.POSITIVE  # {0, +1}


def merge_gold(records: Sequence[AnnotationRecord]) -> list[GoldPost]:
    """Collapse multiply-annotated posts into one gold label per post.

    The output carries the earliest timestamp and the first non-empty
    text of each post's annotations.  Posts are ordered by earliest
    timestamp when every post has one, otherwise by earliest ``seq``.
    Merging is idempotent: re-merging a corpus with one annotation per
    post returns the same labels.
    """
    if not records:
        return []
    by_post: dict[str, list[AnnotationRecord]] = {}
    for rec in records:
        by_post.setdefault(rec.post_id, []).append(rec)
    merged: list[tuple[datetime | None, int, GoldPost]] = []
    for post_id, group in by_post.items():
        group = sorted(group, key=lambda r: r.seq)
        stamps = [r.timestamp for r in group if r.timestamp is not None]
        earliest = min(stamps) if stamps else None
        text = next((r.text for r in group if r.text), None)
        merged.append(
            (
                earliest,
                group[0].seq,
                GoldPost(
                    post_id=post_id,
                    label=_merge_labels({r.label for r in group}),
                    timestamp=earliest,
                    text=text,
                    merged_from=len(group),
                ),
            )
        )
    if all(ts is not None for ts, _, _ in merged):
        merged.sort(key=lambda item: (item[0], item[1]))
    else:
        merged.sort(key=lambda item: item[1])
    return [post for _, _, post in merged]


def time_ordered_chunks(gold: Sequence[GoldPost], step: int) -> list[list[GoldPost]]:
    """Growing time-ordered prefixes of sizes step, 2*step, ..., n.

    The last prefix is always the full corpus, even when ``n`` is not a
    multiple of ``step``.  Posts are ordered by timestamp when every
    post carries one; otherwise the given order is kept.
    """
    if step < 1:
        raise CorpusFormatError(f"step must be a positive integer, got {step}")
    posts = list(gold)
    if all(p.timestamp is not None for p in posts):
        posts.sort(key=lambda p: p.timestamp)  # type: ignore[arg-type, return-value]
    prefixes: list[list[GoldPost]] = []
    size = step
    while size < len(posts):
        prefixes.append(posts[:size])
        size += step
    prefixes.append(posts)
    return prefixes


def load_gold(path: str | Path) -> list[GoldPost]:
    """Read a merged gold table (no annotator column) back into memory.

    Accepts files produced by :func:`save_gold`; the ``MergedFrom``
    column is optional and defaults to 1.
    """
    posts: list[GoldPost] = []
    with _open_table(path, ("post id", "label"), ("date", "text", "merge count")) as (_, columns, rows):
        id_col, label_col, date_col, text_col, merged_col = columns
        for line, row in rows:
            timestamp = _parse_timestamp(row[date_col], line, path) if date_col is not None else None
            merged_from = 1
            if merged_col is not None:
                try:
                    merged_from = int(row[merged_col])
                except ValueError:
                    raise CorpusFormatError(
                        f"{path}: bad MergedFrom value {row[merged_col]!r} on line {line}"
                    ) from None
            posts.append(
                GoldPost(
                    post_id=row[id_col].strip(),
                    label=SentimentLabel.from_string(row[label_col], line=line),
                    timestamp=timestamp,
                    text=row[text_col] if text_col is not None else None,
                    merged_from=merged_from,
                )
            )
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
