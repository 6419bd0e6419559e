"""Shared fixtures: tiny annotation tables and synthetic gold corpora."""

from __future__ import annotations

import json
import multiprocessing
import warnings
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import strategies as st

from sentagree import classify, evaluation
from sentagree.corpus import AnnotationRecord, GoldPost, GoldTable, SentimentLabel
from sentagree.features import CountRows

# When a Hypothesis test fails, Hypothesis imports its patch writer, which
# imports libcst, whose own imports warn DeprecationWarning.  Under
# ``-W error`` that warning would end the run in INTERNALERROR instead of
# reporting the failure, so the patch writer is imported here, once, with
# its warnings silenced; the package's own warnings still fail the run.
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: Hypothesis writes no patch
        pass

FILLER = "the a on at today tomorrow city train coffee street people day time".split()
NEG_WORDS = "awful terrible horrid nasty angry worst hate broken sad gross".split()
NEU_WORDS = "update report schedule notice meeting agenda minutes record entry item".split()
POS_WORDS = "great lovely wonderful superb happy best love enjoy bright fine".split()


def write_table(path, rows, header=("TweetID", "HandLabel", "AnnotatorID", "Date", "Text"),
                delimiter=","):
    lines = [delimiter.join(header)]
    lines += [delimiter.join(str(cell) for cell in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def columns(table):
    """Every column of a corpus table by name, each array as its dtype and
    values: two tables hold the same data exactly when these are equal."""
    return {name: (value.dtype.str, value.tolist()) if isinstance(value, np.ndarray) else value
            for name in type(table).__slots__ for value in [getattr(table, name)]}


def annotation_rows(table):
    """The ``(post id, annotator id, label code, seq, date, text)`` rows
    of an annotation table's columns."""
    return list(zip(map(table.post_ids.__getitem__, table.post.tolist()),
                    map(table.annotator_ids.__getitem__, table.annotator.tolist()),
                    table.label.tolist(), table.seq.tolist(), table.dates, table.texts))


def records_of(table):
    """The rows of an annotation table as a list of records, for the path
    a hand-made list takes."""
    return [AnnotationRecord(post, annotator, SentimentLabel(code), seq, date, text)
            for post, annotator, code, seq, date, text in annotation_rows(table)]


def pair_rows(pairs):
    """The ``(first, second, same, post id)`` rows of a pair table's columns."""
    return list(zip(pairs.first.tolist(), pairs.second.tolist(), pairs.self.tolist(),
                    map(pairs.post_ids.__getitem__, pairs.post.tolist())))


def gold_rows(gold):
    """The ``(post id, label code, date, text, MergedFrom)`` rows of a gold
    table's columns, or of a list of posts."""
    if isinstance(gold, GoldTable):
        return list(zip(gold.post_ids, gold.label.tolist(), gold.dates, gold.texts, gold.merged_from.tolist()))
    return [(p.post_id, int(p.label), p.timestamp, p.text, p.merged_from) for p in gold]


def posts_of(gold):
    """The rows of a gold table as a list of posts, for the path a
    hand-made list takes."""
    return [GoldPost(post_id, SentimentLabel(code), date, text, count)
            for post_id, code, date, text, count in gold_rows(gold)]


def separable_corpus(n, seed=0, words_per_doc=4, fillers=3):
    """Time-ordered gold corpus with disjoint per-class lexicons."""
    rng = np.random.default_rng(seed)
    lexicon = {-1: NEG_WORDS, 0: NEU_WORDS, 1: POS_WORDS}
    start = datetime(2014, 1, 1)
    posts = []
    for i in range(n):
        code = int(rng.integers(-1, 2))
        words = list(rng.choice(lexicon[code], size=words_per_doc))
        words += list(rng.choice(FILLER, size=fillers))
        rng.shuffle(words)
        posts.append(
            GoldPost(
                post_id=f"t{i}",
                label=SentimentLabel(code),
                timestamp=start + timedelta(minutes=i),
                text=" ".join(words),
            )
        )
    return posts


def shift_corpus(n, shift_at, seed=0, wide=600):
    """Separable corpus whose lexicon is replaced mid-stream.

    The replacement lexicon is wide enough that right after the shift
    each new word stays under the default min_df of 5 and gets pruned;
    with more post-shift data the words clear the threshold again.
    """
    rng = np.random.default_rng(seed)
    old = {-1: NEG_WORDS, 0: NEU_WORDS, 1: POS_WORDS}
    new = {c: [f"w{c + 1}_{j}" for j in range(wide)] for c in (-1, 0, 1)}
    start = datetime(2014, 1, 1)
    posts = []
    for i in range(n):
        code = int(rng.integers(-1, 2))
        if i >= shift_at:
            words = list(rng.choice(new[code], size=6))
        else:
            words = list(rng.choice(old[code], size=4))
        words += list(rng.choice(FILLER, size=3))
        rng.shuffle(words)
        posts.append(
            GoldPost(
                post_id=f"t{i}",
                label=SentimentLabel(code),
                timestamp=start + timedelta(minutes=i),
                text=" ".join(words),
            )
        )
    return posts


@pytest.fixture
def annotations_csv(tmp_path):
    """A small annotation file: 3 posts, mixed self/inter annotations."""
    rows = [
        ("p1", "Negative", "ann1", "2014-01-01 10:00:00", "so bad :("),
        ("p1", "negative", "ann1", "2014-01-01 10:05:00", "so bad :("),
        ("p1", "Neutral", "ann2", "2014-01-01 10:10:00", "so bad :("),
        ("p2", "Positive", "ann1", "2014-01-02 09:00:00", "love it :)"),
        ("p2", "POSITIVE", "ann2", "2014-01-02 09:30:00", "love it :)"),
        ("p3", "Neutral", "ann2", "2014-01-03 08:00:00", "meeting at noon"),
    ]
    return write_table(tmp_path / "mini.csv", rows)


#: Values spliced into file lines by :func:`mutated_lines`: counts and
#: indices at and past the edges of what a file may hold, non-numbers,
#: and keys of other lines.
FUZZ_TOKENS = ["-1", "0", "1", "2", "3", "7", "8", "12", "99999999999", "1" + "0" * 25,
               "nan", "inf", "-inf", "0.5", "", "x", "-", "plane", "bin", "nb_counts"]


@st.composite
def mutated_lines(draw, lines):
    """A copy of ``lines`` with one to three lines dropped, duplicated,
    swapped, replaced, or with one of their fields replaced."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["drop", "duplicate", "swap", "line", "field"]))
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "line":
            lines[i] = draw(st.text(max_size=12))
        else:
            sep = "\t" if "\t" in lines[i] else " "
            parts = lines[i].split(sep)
            k = draw(st.integers(0, len(parts) - 1))
            parts[k] = draw(st.sampled_from(FUZZ_TOKENS) | st.text(max_size=4))
            lines[i] = sep.join(parts)
    return lines


#: Raw bytes spliced into fuzzed tables by :func:`fuzzed_table`: invalid
#: or truncated UTF-8, a byte-order mark, NUL, a lone carriage return
#: and an unbalanced quote.
FUZZ_BYTES = [b"\xff", b"\xe9", b"\xc3", b"\x80\x80", b"\xef\xbb\xbf", b"\x00", b"\r", b'"']


@st.composite
def fuzzed_table(draw, path):
    """The bytes of the table at ``path`` after :func:`mutated_lines`,
    with raw bytes spliced in at one place half of the time."""
    lines = draw(mutated_lines(path.read_text(encoding="utf-8").splitlines()))
    raw = "\n".join(lines).encode("utf-8") + b"\n"
    if draw(st.booleans()):
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from(FUZZ_BYTES) | st.binary(min_size=1, max_size=3)) + raw[at:]
    return raw


class _Members(list):
    """A parsed JSON object as its list of ``(key, value)`` members, so
    that a member can be repeated with its key."""


def _dumps(value) -> str:
    """JSON text of ``value``, with :class:`_Members` written as objects
    and NaN and the infinities as the literals ``json`` reads."""
    if isinstance(value, _Members):
        return "{" + ",".join(f"{json.dumps(key)}:{_dumps(item)}" for key, item in value) + "}"
    if isinstance(value, list):
        return "[" + ",".join(map(_dumps, value)) + "]"
    return json.dumps(value)


def _containers(value):
    """``value`` and every object and list nested in it that holds a value."""
    if isinstance(value, list):  # _Members too
        if value:
            yield value
        for item in value:
            yield from _containers(item[1] if isinstance(value, _Members) else item)


#: Values put in place of a value of a parsed model file by
#: :func:`damaged_model`: each kind of JSON value, integers past 64 bits,
#: and the numbers JSON has no literal for.  Tuples are written as lists.
FUZZ_VALUES = [True, False, None, "", "x", 2**70, -(2**70), float("nan"), float("inf"), float("-inf"),
               -1, 0, 0.5, (), (1,), ((1, 2),), {}, {"a": 1}]


@st.composite
def damaged_model(draw, text: str, within: str | None = None) -> bytes:
    """The bytes of the model file ``text`` after one to three edits of
    its parsed document, each dropping or repeating an object member (a
    repeated member repeats its key) or a list element, negating a
    number (``-1 - x``), or putting one of :data:`FUZZ_VALUES` in place
    of a value; with ``within``, only inside the top-level member of
    that key.  A quarter of the time the file is cut short or raw bytes
    are spliced in instead."""
    if draw(st.integers(0, 3)) == 0:
        raw = text.encode("utf-8")
        at = draw(st.integers(0, len(raw)))
        if draw(st.booleans()):
            return raw[:at]
        return raw[:at] + draw(st.sampled_from(FUZZ_BYTES) | st.binary(min_size=1, max_size=3)) + raw[at:]
    document = json.loads(text, object_pairs_hook=_Members)
    root = document if within is None else next(value for key, value in document if key == within)
    for _ in range(draw(st.integers(1, 3))):
        containers = list(_containers(root))
        if not containers:
            break
        # a container first, then a place in it, so that a short list is edited as often as a long one
        container = draw(st.sampled_from(containers))
        i = draw(st.integers(0, len(container) - 1))
        kind = draw(st.sampled_from(["drop", "repeat", "negate", "replace"]))
        if kind == "drop":
            del container[i]
        elif kind == "repeat":
            container.insert(i, container[i])
        else:
            value = container[i][1] if isinstance(container, _Members) else container[i]
            if kind == "replace" or type(value) not in (int, float):
                value = draw(st.sampled_from(FUZZ_VALUES))
            else:  # below 0 for a count at 0
                value = -1 - value
            container[i] = (container[i][0], value) if isinstance(container, _Members) else value
    return (_dumps(document) + "\n").encode("utf-8")


def stack(parts) -> CountRows:
    """The rows of ``parts`` one after another, joined by the public
    constructor, which checks them; all share the first part's ``dim``."""
    lengths = np.concatenate([np.diff(part.indptr) for part in parts])
    return CountRows(np.concatenate(([0], np.cumsum(lengths))), np.concatenate([part.indices for part in parts]),
                     np.concatenate([part.values for part in parts]), parts[0].dim)


def count_planes(monkeypatch):
    """A count of the planes trained, by the caller and by every worker it
    forks: memory shared with every process, set up before any fork."""
    planes = multiprocessing.Value("i", 0)

    def train_binary(*args, real=classify.train_binary, **kwargs):
        with planes.get_lock():
            planes.value += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(classify, "train_binary", train_binary)
    return planes


def count_passes(monkeypatch) -> list[list]:
    """The documents each call of ``evaluation._count_corpus`` reads, one
    list per call, in the order read."""
    passes = []

    def count_corpus(token_docs, *args, real=evaluation._count_corpus, **kwargs):
        passes.append(read := [])
        return real((read.append(doc) or doc for doc in token_docs), *args, **kwargs)

    monkeypatch.setattr(evaluation, "_count_corpus", count_corpus)
    return passes
