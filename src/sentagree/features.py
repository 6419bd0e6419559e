"""Tweet normalization, n-gram vocabularies, and class-ratio term weights.

Normalization decision table (version 1, frozen)
------------------------------------------------
The tokenizer applies one left-to-right scan with the following match
priority; changing any rule below is a vocabulary-breaking change and
must bump the version reported by :data:`NORMALIZER_VERSION`.

1.  URLs (``http://``, ``https://``, ``www.``) become the single token
    ``<url>``.
2.  ``@mentions`` become ``<user>``.
3.  ``#hashtags`` become ``<hashtag>`` followed by the bare tag word,
    which is then treated like an ordinary word (lowercased, elongation
    collapsed).
4.  Emoticons from the fixed table below become ``<emo_pos>``,
    ``<emo_neg>``, or ``<emo_other>``.  Emoticons that start or end in
    a letter only match on non-word boundaries, so ``xD`` matches in
    ``haha xD`` but not inside ``exDescription``.  The scan tries the
    table only where the next character starts one of its keys (a
    lookahead built from the table); the priority above is unchanged.
5.  Word tokens (``\\w`` runs, apostrophes allowed inside) are
    lowercased.  A run of three or more identical letters is collapsed
    to exactly two and the marker ``<elong>`` is appended right after
    the token: ``sooooo good`` -> ``soo <elong> good``.
6.  All remaining punctuation is dropped.

The weighting scheme scores a term ``t`` in document ``d`` as
``C_td * log2(((N_t + s) * (P + s)) / ((P_t + s) * (N + s)))`` where
``C_td`` is the raw term count, ``P_t``/``N_t`` are the number of
positive-/negative-side training documents containing ``t``, ``P``/``N``
are the side sizes, and ``s = 0.5`` smooths all four figures.  Swapping
the two sides negates every weight.

Counts live in one row type, :class:`CountRows` (CSR).  One counter reads
a corpus's token lists once each, in order: it gives every n-gram term an
int32 id, maps each id once to a column of the vocabulary it builds or is
given, and turns the ids into all rows at once (see ``_count_corpus``);
:func:`vocabulary_from_token_docs` and :func:`count_vector` are calls of
it, and ``evaluation.prepare`` counts a whole corpus with it.  Arrays
given to the public constructor are checked there, so the counter's block
is checked once.  Rows the package derives from checked rows -- a
``select`` result, a prefix of prepared counts -- hold the invariants by
construction and skip the check.
"""

from __future__ import annotations

import re
from collections import defaultdict
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from . import _EXPORTS
from .errors import VocabularyError, _check_count

__all__ = _EXPORTS["features"].split()

NORMALIZER_VERSION = 1

#: Fixed emoticon table (frozen with the normalizer version).
EMOTICONS: dict[str, str] = {}
EMOTICONS.update(dict.fromkeys(
    [":)", ":-)", ":))", "=)", ":]", ":-]", ":D", ":-D", "=D", ";)", ";-)",
     ";D", ":p", ":-p", ":P", ":-P", ";p", "<3", ":3", "^^", "^_^", "xD",
     "XD", ":'D"],
    "<emo_pos>",
))
EMOTICONS.update(dict.fromkeys(
    [":(", ":-(", "=(", ":[", ":-[", ":'(", ";(", "D:", "D-:", "</3", ":c",
     ":C", ">:(", ":{"],
    "<emo_neg>",
))
EMOTICONS.update(dict.fromkeys(
    [":|", ":-|", ":/", ":-/", ":\\", ":-\\", "=/", "=\\", ":o", ":-o",
     ":O", ":-O", ":s", ":-S", "o_O", "o_o", "O_o", "-_-"],
    "<emo_other>",
))


def _emoticon_piece(emo: str) -> str:
    piece = re.escape(emo)
    if emo[0].isalnum():
        piece = r"(?<!\w)" + piece
    if emo[-1].isalnum():
        piece = piece + r"(?!\w)"
    return piece


_EMOTICON_ALTERNATION = "|".join(
    _emoticon_piece(e) for e in sorted(EMOTICONS, key=len, reverse=True)
)

# every emoticon starts with one of these: elsewhere the scan skips the alternation
_EMOTICON_FIRST = "".join(sorted({re.escape(e[0]) for e in EMOTICONS}))

_TOKEN_RE = re.compile(
    r"""
    (?P<url>(?:https?://|www\.)\S+)
    | (?P<user>@\w+)
    | \#(?P<hashtag>\w+)
    | (?=[%s])(?P<emoticon>%s)
    | (?P<word>\w+(?:'\w+)*)
    """ % (_EMOTICON_FIRST, _EMOTICON_ALTERNATION),
    re.VERBOSE,
)

_ELONG_RE = re.compile(r"([^\W\d_])\1{2,}")


_SUFFIXES = (
    "ational", "iveness", "fulness", "ization", "ations",
    "ingly", "ments", "ness", "ment", "tion", "sion",
    "ing", "ies", "ed", "ly", "es", "s",
)


def english_suffix_stem(token: str) -> str:
    """Lightweight English stemmer: strip one common suffix.

    Deterministic and total; keeps at least three characters of stem
    and never touches marker tokens (you should not pass them anyway).
    """
    for suffix in _SUFFIXES:
        if token.endswith(suffix) and len(token) - len(suffix) >= 3:
            stem = token[: -len(suffix)]
            return stem + "y" if suffix == "ies" else stem
    return token


def _word_tokens(word: str, stemmer: Callable[[str], str] | None) -> list[str]:
    lowered = word.lower()
    if _ELONG_RE.search(lowered) is None:  # most words: nothing to collapse
        return [lowered if stemmer is None else (stemmer(lowered) or lowered)]
    collapsed = _ELONG_RE.sub(r"\1\1", lowered)
    if stemmer is not None:
        collapsed = stemmer(collapsed) or collapsed
    return [collapsed, "<elong>"]


def normalize(text: str, stemmer: Callable[[str], str] | None = None) -> list[str]:
    """Normalize raw post text into a token list (see module docstring).

    The optional ``stemmer`` is applied to word tokens (including bare
    hashtag words) but never to ``<...>`` marker tokens.  Empty or
    all-punctuation input yields an empty list; no token is ever the
    empty string.
    """
    tokens: list[str] = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "word":
            # the commonest match: a plain word without a stemmer skips the call
            word = match.group("word")
            lowered = word.lower()
            if stemmer is None and _ELONG_RE.search(lowered) is None:
                tokens.append(lowered)
            else:
                tokens.extend(_word_tokens(word, stemmer))
        elif kind == "url":
            tokens.append("<url>")
        elif kind == "user":
            tokens.append("<user>")
        elif kind == "hashtag":
            tokens.append("<hashtag>")
            tokens.extend(_word_tokens(match.group("hashtag"), stemmer))
        else:
            tokens.append(EMOTICONS[match.group("emoticon")])
    return tokens


@dataclass(frozen=True, eq=False)
class CountRows:
    """Sparse rows in compressed-row (CSR) layout: row ``r`` holds the
    pairs ``indices[k], values[k]`` for ``k`` in ``indptr[r]:indptr[r + 1]``.

    Invariants: ``indptr`` starts at 0, never decreases and ends at the
    number of stored entries; within a row the indices are strictly
    increasing in ``[0, dim)``; values are finite and nowhere zero.  The
    public constructor checks them on the arrays it is given, counted
    ones included.  Rows derived from checked rows are built by
    ``_trusted``, which skips the check.
    """

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    dim: int

    def __post_init__(self) -> None:
        indptr = np.asarray(self.indptr, dtype=np.intp)
        indices = np.asarray(self.indices, dtype=np.intp)
        values = np.asarray(self.values, dtype=np.float64)
        if indices.shape != values.shape or indices.ndim != 1 or indptr.ndim != 1:
            raise ValueError("indptr, indices and values must be 1-D, indices and values of equal length")
        lengths = indptr[1:] - indptr[:-1]  # not np.diff, whose call costs more on one row
        if indptr.size == 0 or indptr[0] != 0 or indptr[-1] != indices.size or (lengths < 0).any():
            raise ValueError(f"indptr must rise from 0 to the {indices.size} stored entries")
        if indices.size:
            if indices.min() < 0 or indices.max() >= self.dim:
                raise ValueError(f"indices out of range for dimension {self.dim}")
            row_of = np.repeat(np.arange(lengths.size), lengths)
            if ((indices[1:] <= indices[:-1]) & (row_of[1:] == row_of[:-1])).any():
                raise ValueError("indices must be strictly increasing within a row")
            if not (np.isfinite(values) & (values != 0.0)).all():
                raise ValueError("values must be finite and non-zero")
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "values", values)

    @classmethod
    def _trusted(cls, indptr: np.ndarray, indices: np.ndarray, values: np.ndarray, dim: int) -> CountRows:
        """Rows from arrays that already hold the invariants and have their
        final dtypes (``intp``, ``intp``, ``float64``), without the check."""
        rows = object.__new__(cls)
        for name, value in (("indptr", indptr), ("indices", indices), ("values", values), ("dim", dim)):
            object.__setattr__(rows, name, value)
        return rows

    def __len__(self) -> int:
        return int(self.indptr.size - 1)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def row_ids(self) -> np.ndarray:
        """The row of every stored entry."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def select(self, rows: Sequence[int], keep: np.ndarray | None = None) -> CountRows:
        """The given rows, in the given order (row numbers in ``[0, len)``:
        a mask or any other row raises ``ValueError``); with ``keep``, a
        strictly increasing array of columns, only those columns,
        renumbered ``0..len(keep)-1``."""
        rows = np.asarray(rows)
        if rows.size and rows.dtype.kind not in "iu":
            raise ValueError(f"rows must be integer row numbers, not {rows.dtype} values")
        outside = (rows < 0) | (rows >= len(self))
        if outside.any():
            raise ValueError(f"row {rows[outside.argmax()]} is outside the {len(self)} rows")
        rows = rows.astype(np.intp, copy=False)
        lengths = np.diff(self.indptr)[rows]
        # entry positions: each row's run of the stored arrays, one after another
        shift = self.indptr[rows] - (np.cumsum(lengths) - lengths)
        taken = np.repeat(shift, lengths) + np.arange(lengths.sum())
        indices, values, dim = self.indices[taken], self.values[taken], self.dim
        if keep is not None:
            keep = np.asarray(keep, dtype=np.intp)
            inside = keep.ndim == 1 and (keep.size == 0 or 0 <= keep[0] and keep[-1] < self.dim)
            if not inside or (keep[1:] <= keep[:-1]).any():
                raise ValueError(f"keep must be strictly increasing columns in [0, {self.dim})")
            column = np.full(self.dim, -1, dtype=np.intp)
            column[keep] = np.arange(len(keep))
            kept = column[indices] >= 0
            lengths = np.bincount(np.repeat(np.arange(rows.size), lengths)[kept], minlength=rows.size)
            indices, values, dim = column[indices[kept]], values[kept], len(keep)
        return CountRows._trusted(np.concatenate(([0], np.cumsum(lengths)), dtype=np.intp), indices, values, dim)


@dataclass(frozen=True)
class Vocabulary:
    """Deterministic term-to-index mapping with document frequencies.

    Terms are sorted lexicographically, so the mapping is a pure
    function of the training corpus and the configuration.  It carries
    no class statistics: each classifier plane computes its own term
    weights from its training split.  ``ngrams`` holds the n-gram sizes
    counted, at least one, each at least 1, ``min_df`` is a positive and
    ``n_docs`` a non-negative integer, no term repeats, and ``doc_freq``
    holds one count in ``[0, n_docs]`` per term; anything else raises
    :class:`VocabularyError`.
    """

    terms: tuple[str, ...]
    doc_freq: np.ndarray
    n_docs: int
    min_df: int
    ngrams: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.ngrams or min(self.ngrams) < 1:
            raise VocabularyError(f"ngrams must hold at least one n-gram size, each >= 1, got {self.ngrams!r}")
        _check_count("min_df", self.min_df, 1, VocabularyError)
        _check_count("n_docs", self.n_docs, 0, VocabularyError)
        object.__setattr__(self, "doc_freq", np.asarray(self.doc_freq, dtype=np.int64))
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.terms)})
        if len(self._index) != len(self.terms):  # the index keeps a repeated term's last position
            raise VocabularyError(f"term {next(t for i, t in enumerate(self.terms) if self._index[t] != i)!r} repeats")
        if self.doc_freq.shape != (len(self.terms),):
            raise VocabularyError(f"doc_freq of shape {self.doc_freq.shape} for {len(self.terms)} terms")
        if ((self.doc_freq < 0) | (self.doc_freq > self.n_docs)).any():
            raise VocabularyError(f"a document frequency is outside [0, n_docs = {self.n_docs}]")

    @property
    def index(self) -> dict[str, int]:
        return self._index  # type: ignore[attr-defined]

    @property
    def dim(self) -> int:
        return len(self.terms)


def expand_terms(tokens: Sequence[str], ngrams: tuple[int, ...] = (1, 2)) -> list[str]:
    """N-gram terms of a token stream; multi-token terms join on a space."""
    terms: list[str] = []
    for n in ngrams:
        if n == 1:
            terms.extend(tokens)
        else:
            # unpack a list: unpacking a generator here left about 100 KB of spare tuples in CPython's free list
            terms.extend(map(" ".join, zip(*[tokens[i:] for i in range(n)])))
    return terms


def _count_corpus(
    token_docs: Iterable[Sequence[str]],
    vocab: Vocabulary | None = None,
    *,
    min_df: int = 5,
    ngrams: tuple[int, ...] = (1, 2),
) -> tuple[Vocabulary, CountRows]:
    """Count normalized documents, read once each and in order, into one
    row per document, against ``vocab`` (terms outside it are dropped) or,
    without one, against the vocabulary built here of the ``ngrams`` terms
    that at least ``min_df`` documents contain.  Returns the vocabulary
    and the rows, checked once by the public constructor.

    Each expanded term gets an id from one growing dict, in order of first
    sight, and the ids of all documents go into one int32 array, so no
    token list, term list or per-document counter outlives its document.
    Each id maps once to a column, -1 for a term left out: its place in
    ``vocab``, or among the kept terms, whose document frequencies are the
    runs of one sort of ``row * seen + id``.  One more sort of
    ``row * dim + column`` gives the rows, each run one count."""
    if vocab is None:
        _check_count("min_df", min_df, 1, VocabularyError)
    else:
        ngrams = vocab.ngrams
    index: dict[str, int] = defaultdict()
    index.default_factory = index.__len__  # a new term's id: the number of terms seen before it
    lengths: list[int] = []

    def term_ids(tokens: Sequence[str]) -> Iterable[int]:
        terms = expand_terms(tokens, ngrams)
        lengths.append(len(terms))
        return map(index.__getitem__, terms)

    ids = np.fromiter(chain.from_iterable(map(term_ids, token_docs)), dtype=np.int32)
    n_docs = len(lengths)
    if vocab is None and not n_docs:
        raise VocabularyError("cannot build a vocabulary from an empty corpus")
    names = list(index)  # each term at its id
    index.clear()  # the dict holds itself through its factory: cleared, it and its ids go now
    seen = len(names)

    # one key per occurrence; each occurrence-long temporary is dropped as soon as it is read
    key = np.repeat(np.arange(n_docs, dtype=np.int64) * seen, lengths)
    key += ids
    del ids
    if vocab is None:
        key.sort()  # one run per document of each term
        doc_freq = np.bincount(key[_run_starts(key)] % seen, minlength=seen)
        kept = sorted(np.flatnonzero(doc_freq >= min_df).tolist(), key=names.__getitem__)
        vocab = Vocabulary(tuple(names[i] for i in kept), doc_freq[kept], n_docs, min_df, tuple(ngrams))
        column = np.full(seen, -1, dtype=np.int64)
        column[kept] = np.arange(len(kept))
    else:
        column = np.fromiter(map(vocab.index.get, names, repeat(-1)), dtype=np.int64, count=seen)
    del names  # with the terms not kept, before the rows are checked
    # the kept terms' occurrences keyed by row and column: the columns follow the sorted terms, not the ids
    term = column[key % seen]
    found = term >= 0
    key = key[found] // seen * vocab.dim
    key += term[found]
    del term, found
    key.sort()  # one run per document and column
    starts = _run_starts(key)
    counts = np.diff(starts, append=key.size)
    key = key[starts]
    del starts
    indices = key % vocab.dim
    row = np.floor_divide(key, vocab.dim, out=key)  # in place: the keys are not read again
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=n_docs))), dtype=np.intp)
    return vocab, CountRows(indptr, indices, counts.astype(np.float64), vocab.dim)


def _run_starts(key: np.ndarray) -> np.ndarray:
    """Where each run of equal values in the sorted ``key`` starts."""
    first = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    return np.flatnonzero(first)


def vocabulary_from_token_docs(
    token_docs: Sequence[Sequence[str]],
    min_df: int = 5,
    ngrams: tuple[int, ...] = (1, 2),
) -> Vocabulary:
    """Build a vocabulary from already-normalized documents.

    A term is kept when at least ``min_df`` documents contain it; how
    often it repeats within one document does not count.
    """
    return _count_corpus(token_docs, min_df=min_df, ngrams=ngrams)[0]


def count_vector(tokens: Sequence[str], vocab: Vocabulary) -> CountRows:
    """Raw term counts of one normalized document, as one row."""
    return _count_corpus([tokens], vocab)[1]


def delta_weights(rows: CountRows, positive: Sequence[bool]) -> np.ndarray:
    """Per-term class-ratio weights of raw count rows split into two
    sides by ``positive``, smoothed by ``s = 0.5`` (see the module
    docstring for the formula).

    A document counts toward a term's side frequency when the term
    occurs in it at all; multiplicity is ignored.
    """
    if len(rows) != len(positive):
        raise ValueError("rows and side mask differ in length")
    side = np.asarray(positive, dtype=bool)
    on_pos = side[rows.row_ids()]
    n_pos = int(side.sum())
    s = 0.5
    num = (np.bincount(rows.indices[~on_pos], minlength=rows.dim) + s) * (n_pos + s)
    den = (np.bincount(rows.indices[on_pos], minlength=rows.dim) + s) * (len(rows) - n_pos + s)
    return np.log2(num / den)
