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

An annotation table is read once into columns, an
:class:`AnnotationTable`: post index, label code, annotator index and
``seq`` as arrays, each row's date and text, and the file's delimiter.
:func:`extract_pairs` returns the pairs as columns too, a
:class:`PairTable`, computed with numpy from one sort of the rows by
post and ``seq``; :func:`merge_gold` works from the same groups.  A list
of :class:`AnnotationRecord` given to either is first made into a table
sorted by ``seq``, so one grouping serves both.

Gold posts are columns too, a :class:`GoldTable` with one row per post:
post id, label code, date, text and ``MergedFrom`` count.
:func:`merge_gold` builds it, :func:`load_gold` reads one and
:func:`save_gold` writes one column by column; a list of
:class:`GoldPost` made by hand is first made into a table.  A table
selects rows by a slice or an index array, but it is no sequence of
records: iterating one, or indexing it by an integer, raises
:class:`TypeError`.
"""

from __future__ import annotations

import copy
import csv
from collections.abc import Iterable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime
from enum import Enum, IntEnum
from itertools import chain, repeat
from operator import attrgetter, is_not, le, ne
from pathlib import Path

import numpy as np

from . import _EXPORTS
from .errors import CorpusFormatError, _check_count

__all__ = _EXPORTS["corpus"].split()

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
_NAMES = np.array([label.to_string() for label in SentimentLabel], dtype=object)  # the names of codes -1, 0, +1
_COUNTS = range(1, 2**63)  # a MergedFrom value: an int64 count of at least one annotation


def _not_codes(codes: np.ndarray) -> np.ndarray:
    """Where ``codes`` holds a value that is not exactly -1, 0 or +1:
    checked before any cast, so 1.0 is +1 and 1.7 is no code."""
    return ~((codes == -1) | (codes == 0) | (codes == 1))


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


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.flags.writeable = False
    return arrays


class _Columns:
    """What the column tables below share: selection by a slice or an
    index array (such as a boolean mask), which cuts each column named in
    ``_rows`` to those rows and, in a table with a ``post`` column,
    numbers their posts anew; no iteration and no integer index."""

    __slots__ = ()

    def __iter__(self):
        raise TypeError(f"a {type(self).__name__} is not iterable: read its columns")

    def __getitem__(self, position):
        if not isinstance(position, (slice, np.ndarray)):
            table = type(self).__name__
            raise TypeError(f"a {table} takes a slice or an index array, not {position!r}: read its columns")
        rows = np.arange(len(self))[position]
        part = copy.copy(self)
        for name in self._rows:
            column = getattr(self, name)
            if isinstance(column, tuple):  # taken as objects: no Python int per row
                setattr(part, name, tuple(np.fromiter(column, object, len(column))[rows]))
            else:
                setattr(part, name, *_read_only(column[rows]))
        if "post" in self._rows:
            present, first, post = np.unique(part.post, return_index=True, return_inverse=True)
            order = np.argsort(first)  # posts numbered in order of first appearance, as in a table
            part.post, = _read_only(np.argsort(order)[post])
            part.post_ids = tuple(map(self.post_ids.__getitem__, present[order].tolist()))
        return part


class AnnotationTable(_Columns):
    """An annotation table as columns, one row per annotation; a loaded
    table or one made from records holds its rows in ``seq`` order.

    ``post`` and ``annotator`` index ``post_ids`` and ``annotator_ids``,
    which hold each id once, posts numbered in order of first appearance.
    ``label`` holds the codes -1/0/+1 as int8 and ``seq`` each row's
    ``seq``; ``dates`` and ``texts`` hold each row's value or None.
    ``delimiter`` is the source file's, ``","`` for a table made from
    records.  The arrays are read-only.
    """

    __slots__ = ("post_ids", "post", "annotator_ids", "annotator", "label", "seq", "dates", "texts",
                 "delimiter")
    _rows = ("post", "annotator", "label", "seq", "dates", "texts")

    def __init__(
        self, post_ids: tuple[str, ...], post: np.ndarray, annotator_ids: tuple[str, ...],
        annotator: np.ndarray, label: np.ndarray, seq: np.ndarray, dates: tuple[datetime | None, ...],
        texts: tuple[str | None, ...], delimiter: str = ",",
    ) -> None:
        self.post_ids, self.annotator_ids, self.dates, self.texts = post_ids, annotator_ids, dates, texts
        self.post, self.annotator, self.label, self.seq = _read_only(post, annotator, label, seq)
        self.delimiter = delimiter

    def __len__(self) -> int:
        return len(self.label)


class PairTable(_Columns):
    """Label pairs as columns: ``first`` and ``second`` hold the label
    codes (int8) of the earlier and the later annotation, ``self`` (the
    ``same`` argument) whether one annotator gave both, and ``post`` the
    index of the pair's post in ``post_ids``.  The arrays are read-only.
    """

    __slots__ = ("first", "second", "self", "post", "post_ids")
    _rows = ("first", "second", "self", "post")

    def __init__(
        self, first: np.ndarray, second: np.ndarray, same: np.ndarray, post: np.ndarray,
        post_ids: tuple[str, ...],
    ) -> None:
        self.first, self.second, self.self, self.post = _read_only(first, second, same, post)
        self.post_ids = post_ids

    def __len__(self) -> int:
        return len(self.first)


class GoldTable(_Columns):
    """Gold posts as columns, one row per post: ``post_ids`` holds each
    post's id, ``label`` its code -1/0/+1 as int8, ``dates`` and
    ``texts`` its value or None, and ``merged_from`` (int64) the number
    of annotations it was merged from.  The arrays are read-only.  The
    constructor holds a table made by hand to what a loaded one is, each
    fault a :class:`CorpusFormatError` naming its post: columns of one
    length, label codes (0.6 is none), whole ``merged_from`` counts in
    ``[1, 2**63)`` and no UTC offset beside a date without one.
    """

    __slots__ = ("post_ids", "label", "dates", "texts", "merged_from")
    _rows = __slots__

    def __init__(
        self, post_ids: tuple[str, ...], label: np.ndarray, dates: tuple[datetime | None, ...],
        texts: tuple[str | None, ...], merged_from: np.ndarray,
    ) -> None:
        merged_from, n = np.asarray(merged_from), len(post_ids)
        for name, column in (("label", label), ("date", dates), ("text", texts), ("MergedFrom", merged_from)):
            if len(column) != n:
                raise CorpusFormatError(f"the {name} column is of length {len(column)} for {n} posts: "
                                        + (f"post {post_ids[len(column)]!r} has none" if len(column) < n else
                                           f"value {n + 1} has no post"))
        label = _codes(post_ids, label)
        below = ~((merged_from >= 1) & (merged_from < 2**63) & (np.floor(merged_from) == merged_from))
        if below.any():
            at = int(below.argmax())
            raise CorpusFormatError(f"post {post_ids[at]!r}: bad MergedFrom value {merged_from[at].item()!r}")
        _check_offsets(post_ids, dates)
        self.post_ids, self.dates, self.texts = post_ids, dates, texts
        self.label, self.merged_from = _read_only(label, merged_from.astype(np.int64, copy=False))

    def __len__(self) -> int:
        return len(self.label)


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


def _factorize(
    values: Sequence[str], first_seen: Iterable[str] | None = None
) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct ``values`` in order of first appearance (in
    ``first_seen`` when given), and the index of each value among them."""
    distinct = tuple(dict.fromkeys(values if first_seen is None else first_seen))
    index = {value: i for i, value in enumerate(distinct)}
    return distinct, np.fromiter(map(index.__getitem__, values), np.intp, len(values))


def _read(path: str | Path, annotated: bool) -> AnnotationTable | GoldTable:
    """Read the table at ``path`` once: an :class:`AnnotationTable` if it
    has an annotator column (which ``annotated`` requires), else a
    :class:`GoldTable`.

    Every non-blank row is checked where it is read, so the first fault
    in the file is the one reported, as :class:`CorpusFormatError`
    naming the file line the record starts on: a short row, a bad date,
    a date that has a UTC offset where the first date has none or the
    reverse, an unknown label, an empty post or annotator id in an
    annotation row, a bad ``MergedFrom`` value in a gold row.
    """
    required = ("post id", "label", "annotator id") if annotated else ("post id", "label")
    optional = ("date", "text") if annotated else ("date", "text", "annotator id", "merge count")
    with _open_table(path, required, optional) as (delimiter, columns, reader):
        found = dict(zip(required + optional, columns))
        id_col, label_col, date_col, text_col = (found[n] for n in ("post id", "label", "date", "text"))
        annotator_col, merged_col = found["annotator id"], found.get("merge count")
        needed = max(c for c in columns if c is not None)
        ids: list[str] = []
        labels: list[SentimentLabel] = []
        dates: list[datetime | None] = []
        texts: list[str | None] = []
        annotators: list[str] = []
        merged: list[int] = []
        known: dict[str, SentimentLabel] = {}  # label cells seen so far
        aware = aware_line = None  # whether the first date has an offset, and its line
        end = reader.line_num  # the line the previous record ended on
        try:
            for row in reader:
                line, end = end + 1, reader.line_num
                if len(row) <= needed:
                    if "".join(row).strip():
                        raise CorpusFormatError(
                            f"{path}: line {line} has {len(row)} fields, expected at least {needed + 1}"
                        )
                    continue
                timestamp = None
                if date_col is not None and row[date_col]:
                    try:
                        timestamp = datetime.fromisoformat(row[date_col])
                    except ValueError:
                        timestamp = _parse_timestamp(row[date_col], line, path)
                    if timestamp is not None:
                        if aware is None:
                            aware, aware_line = timestamp.tzinfo is not None, line
                        elif (timestamp.tzinfo is not None) is not aware:
                            raise CorpusFormatError(
                                f"{path}: date {row[date_col].strip()!r} on line {line} has "
                                f"{'no' if aware else 'a'} UTC offset, unlike the first date on line {aware_line}"
                            )
                label = known.get(row[label_col])
                if label is None:
                    if not "".join(row).strip():
                        continue
                    label = known[row[label_col]] = SentimentLabel.from_string(row[label_col], line=line)
                post_id = row[id_col].strip()
                if annotator_col is not None:
                    annotator = row[annotator_col].strip()
                    if not post_id or not annotator:
                        empty = "post" if not post_id else "annotator"
                        raise CorpusFormatError(f"{path}: line {line} has an empty {empty} id")
                    annotators.append(annotator)
                elif merged_col is not None:
                    try:
                        count = int(row[merged_col])
                        if count not in _COUNTS:
                            raise ValueError
                        merged.append(count)
                    except ValueError:
                        raise CorpusFormatError(
                            f"{path}: bad MergedFrom value {row[merged_col]!r} on line {line}"
                        ) from None
                ids.append(post_id)
                labels.append(label)
                dates.append(timestamp)
                texts.append(row[text_col] if text_col is not None else None)
        except csv.Error as exc:  # a raw tab would print as a space on the one-line error
            raise CorpusFormatError(f"{path}: line {end + 1}: " + str(exc).replace("\t", "\\t")) from None
    if annotator_col is None:
        return GoldTable(tuple(ids), np.array(labels, dtype=np.int8), tuple(dates), tuple(texts),
                         np.array(merged, dtype=np.int64) if merged_col is not None else np.ones(len(ids), np.int64))
    post_ids, post = _factorize(ids)
    annotator_ids, annotator = _factorize(annotators)
    return AnnotationTable(
        post_ids, post, annotator_ids, annotator, np.array(labels, dtype=np.int8),
        np.arange(len(ids), dtype=np.int64), tuple(dates), tuple(texts), delimiter,
    )


def load_annotations(path: str | Path) -> AnnotationTable:
    """Read an annotation table into the columns of an
    :class:`AnnotationTable`.

    Rows are assigned ``seq`` numbers 0..n-1 in file order.  Unknown
    labels, missing required columns, empty ids and unparseable
    non-empty dates raise :class:`CorpusFormatError` with the offending
    line number; I/O errors propagate unchanged.
    """
    return _read(path, annotated=True)  # type: ignore[return-value]


def _check_offsets(post_ids: Sequence[str], dates: Sequence[datetime | None]) -> None:
    """Raise :class:`CorpusFormatError` naming the first post whose date
    has a UTC offset where the first dated post's has none, or the
    reverse: the two could not be compared, and a table holding both
    would not load."""
    if len({date.tzinfo is None for date in dates if date is not None}) < 2:
        return
    dated = [i for i, date in enumerate(dates) if date is not None]
    naive = dates[dated[0]].tzinfo is None
    at = next(i for i in dated if (dates[i].tzinfo is None) is not naive)
    raise CorpusFormatError(
        f"post {post_ids[at]!r}: date {dates[at].isoformat()!r} has "
        f"{'a' if naive else 'no'} UTC offset, unlike the first dated post {post_ids[dated[0]]!r}"
    )


def _codes(post_ids: Sequence[str], labels: Sequence) -> np.ndarray:
    """``labels`` as int8 codes; a label that is not a code -1/0/+1
    (checked before the cast) raises :class:`CorpusFormatError` naming
    its post."""
    labels = np.asarray(labels)
    outside = _not_codes(labels)
    if outside.any():
        at = int(outside.argmax())
        raise CorpusFormatError(f"post {post_ids[at]!r}: label {labels[at].item()!r} is not a code -1/0/+1")
    return labels.astype(np.int8, copy=False)


def _table(records: Sequence[AnnotationRecord]) -> AnnotationTable:
    """``records`` as an :class:`AnnotationTable`: a table as it is, a
    list of records sorted by ``seq`` (ties kept in list order) with
    posts numbered in order of first appearance in the list.  Dates with
    a UTC offset next to dates without one, and a label that is not a
    code -1/0/+1, raise :class:`CorpusFormatError`."""
    if isinstance(records, AnnotationTable):
        return records
    _check_offsets([r.post_id for r in records], [r.timestamp for r in records])
    rows = sorted(records, key=attrgetter("seq"))
    post_ids, post = _factorize([r.post_id for r in rows], (r.post_id for r in records))
    annotator_ids, annotator = _factorize([r.annotator_id for r in rows])
    return AnnotationTable(
        post_ids, post, annotator_ids, annotator, _codes([r.post_id for r in rows], [r.label for r in rows]),
        np.array([r.seq for r in rows], dtype=np.int64),
        tuple(r.timestamp for r in rows), tuple(r.text for r in rows),
    )


def _gold_table(gold: Sequence[GoldPost]) -> GoldTable:
    """``gold`` as a :class:`GoldTable`: a table as it is, a list of
    posts in list order, checked by the table's constructor."""
    if isinstance(gold, GoldTable):
        return gold
    return GoldTable(
        tuple(p.post_id for p in gold), np.array([p.label for p in gold]), tuple(p.timestamp for p in gold),
        tuple(p.text for p in gold), np.array([p.merged_from for p in gold]),
    )


def _groups(table: AnnotationTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows grouped by post, from one sort: the row order (posts in
    index order, each post's rows in ``seq`` order, ties in row order),
    and each post's row count and first place in that order."""
    order = np.lexsort((table.seq, table.post))
    counts = np.bincount(table.post, minlength=len(table.post_ids))
    return order, counts, np.cumsum(counts) - counts


def _leads(rows: np.ndarray, post: np.ndarray, n_posts: int) -> np.ndarray:
    """Each post's first row among ``rows``, which hold each post's rows
    together; -1 for a post with none."""
    posts = post[rows]
    lead = np.ones(len(rows), dtype=bool)
    lead[1:] = posts[1:] != posts[:-1]
    first = np.full(n_posts, -1, dtype=np.intp)
    first[posts[lead]] = rows[lead]
    return first


def extract_pairs(records: Sequence[AnnotationRecord]) -> PairTable:
    """Enumerate all unordered annotation pairs per post.

    Each post with k >= 2 annotations contributes k*(k-1)/2 pairs; posts
    annotated once contribute none.  A pair is ``self`` exactly when its
    two annotations share an annotator id, so one post can yield both
    self and inter pairs.  Posts come in order of first appearance, and
    each post's pairs in ``itertools.combinations`` order over its
    annotations sorted by ``seq``.
    """
    table = _table(records)
    order, counts, starts = _groups(table)
    # the annotation at place i of a post's k is the earlier one of k - 1 - i pairs
    places = np.arange(len(order)) - np.repeat(starts, counts)
    later = np.repeat(counts, counts) - 1 - places
    earlier = np.repeat(np.arange(len(order)), later)
    step = np.arange(len(earlier)) - np.repeat(np.cumsum(later) - later, later)
    a, b = order[earlier], order[earlier + 1 + step]
    return PairTable(table.label[a], table.label[b], table.annotator[a] == table.annotator[b], table.post[a],
                     table.post_ids)


def merge_gold(records: Sequence[AnnotationRecord]) -> GoldTable:
    """Collapse multiply-annotated posts into one gold label per post,
    returned as a :class:`GoldTable`.

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
    table = _table(records)
    order, counts, starts = _groups(table)
    n_posts, post = len(counts), table.post
    seen = np.zeros((n_posts, 3), dtype=bool)
    seen[post, table.label + 1] = True
    label = seen[:, 2].astype(np.int8) - seen[:, 0].astype(np.int8)
    texted = np.fromiter(map(bool, table.texts), dtype=bool, count=len(table))
    text_row = _leads(order[texted[order]], post, n_posts)
    # dates as dense ranks, equal dates sharing one, so that the earliest
    # date of a post is its first row of least rank
    dated = np.flatnonzero(np.fromiter(map(is_not, table.dates, repeat(None)), dtype=bool, count=len(table)))
    by_date = np.array(sorted(dated.tolist(), key=table.dates.__getitem__), dtype=np.intp)
    ordered = [table.dates[row] for row in by_date.tolist()]
    rank = np.zeros(len(table), dtype=np.int64)
    rank[by_date] = np.cumsum(np.fromiter(map(ne, ordered, [None, *ordered]), dtype=bool, count=len(ordered)))
    date_row = _leads(dated[np.lexsort((dated, rank[dated], post[dated]))], post, n_posts)
    keys = [np.arange(n_posts), table.seq[order[starts]]]  # last key first: earliest seq, then post index
    if (date_row >= 0).all():
        keys.append(rank[date_row])
    posts = np.lexsort(keys)
    dates, texts = table.dates + (None,), table.texts + (None,)  # row -1, a post without one, gives None
    return GoldTable(
        tuple(map(table.post_ids.__getitem__, posts.tolist())), label[posts],
        tuple(map(dates.__getitem__, date_row[posts].tolist())),
        tuple(map(texts.__getitem__, text_row[posts].tolist())), counts[posts],
    )


def _time_ordered(table: GoldTable) -> GoldTable:
    """``table`` by date when every post has one, equal dates in their
    given order, else as given: itself if already so, as a merged table is."""
    dates = table.dates
    if None in dates or all(map(le, dates, dates[1:])):
        return table
    return table[np.array(sorted(range(len(table)), key=dates.__getitem__), dtype=np.intp)]


def time_ordered_chunks(gold: Sequence[GoldPost], step: int) -> tuple[Sequence[GoldPost], tuple[int, ...]]:
    """The posts in time order, and the sizes step, 2*step, ..., n of
    its growing prefixes; the last is always ``n``, the full corpus.

    Posts are ordered by timestamp when every post carries one, posts
    with equal timestamps in their given order; otherwise the given
    order is kept, as by :func:`~sentagree.evaluation.prepare`.  A
    :class:`GoldTable` gives a table, itself when it is in that order
    already; a list of :class:`GoldPost` gives a list.
    Dates with a UTC offset next to dates without one raise
    :class:`CorpusFormatError`, as in a table.
    """
    _check_count("step", step, 1, CorpusFormatError)
    sizes = (*range(step, len(gold), step), len(gold))
    if isinstance(gold, GoldTable):  # its dates were checked when it was read or merged
        return _time_ordered(gold), sizes
    # sorted as a list: made a table first, the table and its reordered copy would be held at once
    _check_offsets([p.post_id for p in gold], [p.timestamp for p in gold])
    posts = list(gold)
    if all(p.timestamp is not None for p in posts):
        posts.sort(key=attrgetter("timestamp"))
    return posts, sizes


def load_gold(path: str | Path) -> GoldTable:
    """Read a gold table into the columns of a :class:`GoldTable`.

    Accepts files produced by :func:`save_gold`; the ``MergedFrom``
    column is optional and defaults to 1.  A table with an annotator
    column holds raw annotations: they are read as by
    :func:`load_annotations` and merged by :func:`merge_gold`.
    """
    table = _read(path, annotated=False)
    if not table:
        raise CorpusFormatError(f"{path}: no posts found")
    return merge_gold(table) if isinstance(table, AnnotationTable) else table


def save_gold(gold: Sequence[GoldPost], path: str | Path, delimiter: str = ",") -> None:
    """Write a merged gold corpus in the annotation table layout.

    Columns are ``TweetID``, ``HandLabel``, optional ``Date`` and
    ``Text`` (emitted when any post carries one), and ``MergedFrom``.
    ``delimiter`` is a comma or a tab, the two :func:`load_gold`
    detects; any other raises :class:`ValueError` before the file is
    opened.  Every field is quoted when an id or a text holds a carriage
    return that would otherwise go unquoted and end its row.
    """
    if delimiter not in (",", "\t"):
        raise ValueError(f"delimiter must be ',' or '\\t', the two a table is read with, not {delimiter!r}")
    table = _gold_table(gold)
    header = ["TweetID", "HandLabel"]
    columns = [table.post_ids, _NAMES[table.label + 1]]
    if table.dates.count(None) < len(table):
        header.append("Date")
        # formatted as the rows are written, not held as one string per post
        columns.append(None if date is None else date.isoformat(sep=" ") for date in table.dates)
    if table.texts.count(None) < len(table):
        header.append("Text")
        columns.append(table.texts)  # the writer writes None as an empty field
    header.append("MergedFrom")
    columns.append(table.merged_from.tolist())
    # the reader ends a row at a \r, which the writer quotes only beside a delimiter, a quote or a \n
    fields = [*table.post_ids, *filter(None, table.texts)]
    bare = "\r" in "".join(fields) and any(not {delimiter, '"', "\n"} & set(field) for field in fields if "\r" in field)
    quoting = csv.QUOTE_ALL if bare else csv.QUOTE_MINIMAL
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter, lineterminator="\n", quoting=quoting)
        writer.writerow(header)
        writer.writerows(zip(*columns))
