"""Normalization, vocabularies, count vectors, and class-ratio weights."""

from __future__ import annotations

import string
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sentagree.classify import Variant, load_model, save_model, train_sentiment
from sentagree.errors import SentagreeError, VocabularyError
from sentagree.features import (
    EMOTICONS,
    NORMALIZER_VERSION,
    CountRows,
    Vocabulary,
    _count_corpus,
    count_vector,
    delta_weights,
    english_suffix_stem,
    expand_terms,
    normalize,
    vocabulary_from_token_docs,
)
from sentagree.evaluation import PreparedCorpus

import oracles
from conftest import damaged_model


def test_normalizer_version_is_frozen() -> None:
    assert NORMALIZER_VERSION == 1
    assert EMOTICONS[":)"] == "<emo_pos>"
    assert EMOTICONS[":("] == "<emo_neg>"
    assert EMOTICONS[":/"] == "<emo_other>"


@pytest.mark.parametrize(
    ("text", "expected"),
    [
        ("Go @sue http://x.co :)", ["go", "<user>", "<url>", "<emo_pos>"]),
        ("sooooo good", ["soo", "<elong>", "good"]),
        (
            "#Winning!! xD but exDescription :(",
            ["<hashtag>", "winning", "<emo_pos>", "but", "exdescription", "<emo_neg>"],
        ),
        ("check www.example.org now", ["check", "<url>", "now"]),
        ("Don't stop", ["don't", "stop"]),
        ("meh :| whatever", ["meh", "<emo_other>", "whatever"]),
        ("haha^^", ["haha", "<emo_pos>"]),
        ("1111 a_b", ["1111", "a_b"]),  # digits/underscores never elongation-collapse
        ("", []),
        ("... !!! ??", []),
    ],
)
def test_normalize_frozen_cases(text: str, expected: list[str]) -> None:
    assert normalize(text) == expected
    assert normalize(text) == expected  # deterministic


@pytest.mark.parametrize("emo", sorted(EMOTICONS))
def test_every_emoticon_matches_alone_and_after_a_word(emo: str) -> None:
    token = EMOTICONS[emo]
    assert normalize(emo) == [token]
    assert normalize(f" {emo} ") == [token]
    assert normalize(f"word {emo}") == ["word", token]
    # an emoticon that starts or ends in a letter or digit is no emoticon inside a word
    if emo[0].isalnum():
        assert not any(t.startswith("<emo_") for t in normalize(f"a{emo}"))
    if emo[-1].isalnum():
        assert not any(t.startswith("<emo_") for t in normalize(f"{emo}a"))


_TEXT_PIECES = st.sampled_from(
    [*EMOTICONS, "http://", "https://", "www.", "@", "#", "'", "0", "7", "_", " ", "\t", "\n",
     ".", ",", "!", "?", ":", ";", "-", "(", ")", "/", "\\", "^", "<", ">", "=", "[", "]"]
)
_LETTER_RUNS = st.builds(
    lambda letter, n: letter * n,
    st.sampled_from([*string.ascii_letters, "ß", "İ", "Σ", "ς", "é"]),
    st.integers(1, 5),
)


@settings(max_examples=400, deadline=None)
@given(pieces=st.lists(_TEXT_PIECES | _LETTER_RUNS, max_size=12))
@pytest.mark.parametrize(
    "stemmer", [None, english_suffix_stem, lambda token: ""], ids=["none", "suffix", "empty"]
)
def test_normalize_matches_the_unguarded_tokenizer(stemmer, pieces: list[str]) -> None:
    text = "".join(pieces)
    assert normalize(text, stemmer) == oracles.normalize_reference(text, stemmer)


def test_normalize_never_emits_empty_tokens() -> None:
    samples = [
        "RT @a: loooove this!!! #best day www.x.y :-) :(",
        "o_O ... '' \" \" @ # http://",
        "a'b'c xxXxx D: <3",
    ]
    for text in samples:
        for token in normalize(text):
            assert token
            assert " " not in token


def test_stemmer_applies_to_words_and_hashtag_words_only() -> None:
    tokens = normalize("running #parties :)", english_suffix_stem)
    assert tokens == ["runn", "<hashtag>", "party", "<emo_pos>"]


def test_stemmer_sees_collapsed_form_and_elong_marker_survives() -> None:
    # elongation is detected before stemming; stemmer gets the collapsed word
    seen: list[str] = []

    def spy(token: str) -> str:
        seen.append(token)
        return token

    assert normalize("partiesssss", spy) == ["partiess", "<elong>"]
    assert seen == ["partiess"]


@pytest.mark.parametrize(
    ("token", "stem"),
    [
        ("cats", "cat"),
        ("parties", "party"),
        ("running", "runn"),
        ("happily", "happi"),
        ("nation", "nation"),  # stripping "tion" would leave too little
        ("bed", "bed"),
        ("ization", "iza"),  # whole-token suffix is skipped, "tion" still strips
        ("kindness", "kind"),
    ],
)
def test_english_suffix_stem(token: str, stem: str) -> None:
    assert english_suffix_stem(token) == stem


@settings(max_examples=200, deadline=None)
@given(
    drawn=st.lists(st.text(min_size=1, max_size=3), max_size=6),
    ngrams=st.sampled_from([(1,), (1, 2), (1, 2, 3)]),
)
def test_expand_terms(drawn, ngrams) -> None:
    tokens = ["a", "b", "c"]
    assert expand_terms(tokens, (1,)) == ["a", "b", "c"]
    assert expand_terms(tokens, (2,)) == ["a b", "b c"]
    assert expand_terms(tokens, (1, 2)) == ["a", "b", "c", "a b", "b c"]
    assert expand_terms(["solo"], (2,)) == []
    assert expand_terms([], (1, 2)) == []
    # the slice formula, one n after another
    slices = [" ".join(drawn[i : i + n]) for n in ngrams for i in range(len(drawn) - n + 1)]
    assert expand_terms(drawn, ngrams) == slices


def test_vocabulary_sorted_and_deterministic() -> None:
    docs = [["b", "a"], ["a", "c"], ["c", "b"], ["a", "b"]]
    vocab = vocabulary_from_token_docs(docs, min_df=2, ngrams=(1,))
    assert vocab.terms == ("a", "b", "c")
    assert vocab.index == {"a": 0, "b": 1, "c": 2}
    assert vocab.doc_freq.tolist() == [3, 3, 2]
    assert vocab.dim == 3
    again = vocabulary_from_token_docs(list(reversed(docs)), min_df=2, ngrams=(1,))
    assert again.terms == vocab.terms


def test_vocabulary_min_df_document_vs_occurrence_counting() -> None:
    docs = [["a", "a", "a"], ["b"]]
    assert vocabulary_from_token_docs(docs, min_df=2, ngrams=(1,)).terms == ()


def test_vocabulary_matches_the_per_document_set_oracle() -> None:
    rng = np.random.default_rng(61)
    words = [f"w{i}" for i in range(8)]
    occurrence_count_differs = 0
    for _ in range(30):
        # up to 8 draws from 8 words: tokens and n-grams repeat within a document
        docs = [[str(w) for w in rng.choice(words, size=int(rng.integers(0, 9)))]
                for _ in range(int(rng.integers(1, 25)))]
        for min_df in (1, 2, 3, 4):
            for ngrams in ((1,), (1, 2), (1, 2, 3)):
                vocab = vocabulary_from_token_docs(docs, min_df=min_df, ngrams=ngrams)
                terms, doc_freq = oracles.vocabulary_brute(docs, min_df, ngrams)
                assert vocab.terms == terms
                assert vocab.doc_freq.tolist() == doc_freq
                assert (vocab.n_docs, vocab.min_df, vocab.ngrams) == (len(docs), min_df, ngrams)
                occurrences = Counter(term for doc in docs for term in expand_terms(doc, ngrams))
                occurrence_count_differs += terms != tuple(sorted(t for t, c in occurrences.items() if c >= min_df))
    assert occurrence_count_differs > 0


def test_vocabulary_includes_bigrams() -> None:
    docs = [["very", "good"], ["very", "good"], ["very", "bad"]]
    vocab = vocabulary_from_token_docs(docs, min_df=2, ngrams=(1, 2))
    assert "very good" in vocab.terms
    assert "very bad" not in vocab.terms
    assert vocab.index["very good"] > vocab.index["very"]  # lexicographic: space < letters


def test_vocabulary_validation() -> None:
    with pytest.raises(VocabularyError, match="min_df"):
        vocabulary_from_token_docs([["a"]], min_df=0)
    with pytest.raises(VocabularyError, match="empty"):
        vocabulary_from_token_docs([])


def test_count_vector_multiplicity_and_order() -> None:
    vocab = vocabulary_from_token_docs([["a", "b", "c"]] * 5, min_df=1, ngrams=(1,))
    vec = count_vector(["c", "a", "c", "unseen"], vocab)
    assert len(vec) == 1
    assert vec.indptr.tolist() == [0, 2]
    assert vec.indices.tolist() == [0, 2]
    assert vec.values.tolist() == [1.0, 2.0]
    assert vec.dim == vocab.dim
    empty = count_vector(["unseen"], vocab)
    assert (len(empty), empty.nnz) == (1, 0)


# ASCII, accented, CJK, astral and marker tokens; few enough that terms repeat within and across documents
_COUNTED_TOKENS = ["a", "b", "ab", "é", "straße", "日本", "😀", "<url>"]


@settings(max_examples=300, deadline=None)
@given(
    docs=st.lists(st.lists(st.sampled_from(_COUNTED_TOKENS), max_size=8), max_size=12),
    ngrams=st.sampled_from([(1,), (1, 2), (1, 2, 3)]),
    data=st.data(),
)
def test_the_one_pass_counter_equals_the_two_pass_reference(docs, ngrams, data) -> None:
    """The counter against the two-pass way of counting: a set of each
    document's terms for the vocabulary, then a counter of them per row."""
    if not docs:
        with pytest.raises(VocabularyError, match="empty corpus"):
            _count_corpus(iter(docs), min_df=1, ngrams=ngrams)
        return
    top = max(oracles.vocabulary_brute(docs, 1, ngrams)[1], default=0)
    min_df = data.draw(st.sampled_from([1, 2, top + 1]))  # top + 1: no term kept, dim 0
    vocab, rows = _count_corpus(iter(docs), min_df=min_df, ngrams=ngrams)
    terms, doc_freq = oracles.vocabulary_brute(docs, min_df, ngrams)
    assert (vocab.terms, vocab.doc_freq.tolist(), vocab.doc_freq.dtype) == (terms, doc_freq, np.int64)
    assert (vocab.n_docs, vocab.min_df, vocab.ngrams, rows.dim) == (len(docs), min_df, ngrams, len(terms))
    expected = oracles.count_rows_brute(docs, terms, ngrams)
    # against a given vocabulary, as count_vector counts, the same rows
    again, fixed = _count_corpus(iter(docs), vocab)
    assert again is vocab
    for counted in (rows, fixed):
        assert counted.dim == vocab.dim
        for name, want in zip(("indptr", "indices", "values"), expected):
            got = getattr(counted, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name


def one_row(indices, values, dim=3) -> CountRows:
    return CountRows([0, len(indices)], indices, values, dim)


def assert_passes_the_public_check(rows: CountRows) -> None:
    """``rows``, fed back to the public constructor, is accepted with
    identical arrays of the dtypes the constructor makes."""
    again = CountRows(rows.indptr, rows.indices, rows.values, rows.dim)
    for name, dtype in (("indptr", np.intp), ("indices", np.intp), ("values", np.float64)):
        got, checked = getattr(rows, name), getattr(again, name)
        assert got.dtype == checked.dtype == dtype, name
        assert np.array_equal(got, checked), name
    assert again.dim == rows.dim


_LETTERS = "abcde"
_TERMS = list(_LETTERS) + [f"{x} {y}" for x in _LETTERS for y in _LETTERS] + ["a b c", "c a e"]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_rows_the_package_derives_pass_the_public_check(data) -> None:
    ngrams = data.draw(st.sampled_from([(1,), (1, 2), (1, 2, 3)]))
    terms = sorted(data.draw(st.sets(st.sampled_from(_TERMS), max_size=20)))
    vocab = Vocabulary(tuple(terms), np.ones(len(terms), dtype=np.int64), 1, 1, ngrams)
    docs = data.draw(st.lists(st.lists(st.sampled_from(_LETTERS + "xy"), max_size=8), min_size=1, max_size=10))
    rows = [count_vector(doc, vocab) for doc in docs]
    for doc, row in zip(docs, rows):
        assert_passes_the_public_check(row)
        counted = dict(zip((terms[i] for i in row.indices.tolist()), row.values.tolist()))
        assert counted == Counter(term for term in expand_terms(doc, ngrams) if term in vocab.index)
    block = _count_corpus(docs, vocab)[1]  # the rows of one counter call, checked once
    assert_passes_the_public_check(block)
    for r, row in enumerate(rows):
        alone = block.select([r])
        assert (alone.indices.tolist(), alone.values.tolist()) == (row.indices.tolist(), row.values.tolist())
    picked = data.draw(st.lists(st.integers(0, len(docs) - 1), max_size=12))
    keep = np.array(sorted(data.draw(st.sets(st.integers(0, vocab.dim - 1)))) if vocab.dim else [], dtype=np.intp)
    assert_passes_the_public_check(block.select(picked))
    assert_passes_the_public_check(block.select(picked, keep))
    corpus = PreparedCorpus(vocab, block, np.zeros(len(docs), dtype=np.int64))
    assert_passes_the_public_check(corpus.head(data.draw(st.integers(0, len(docs)))).counts)


def test_count_rows_validation() -> None:
    with pytest.raises(ValueError, match="increasing"):
        one_row(np.array([1, 0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="non-zero"):
        one_row(np.array([0]), np.array([0.0]))
    with pytest.raises(ValueError, match="out of range"):
        one_row(np.array([3]), np.array([1.0]))
    with pytest.raises(ValueError, match="equal length"):
        CountRows([0, 2], np.array([0, 1]), np.array([1.0]), 3)
    with pytest.raises(ValueError, match="increasing"):
        one_row(np.array([0, 2, 2]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="out of range"):
        one_row(np.array([-1, 0]), np.array([1.0, 2.0]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            one_row(np.array([0, 1]), np.array([1.0, bad]))
    with pytest.raises(ValueError, match="1-D"):
        CountRows([0, 2], np.array([[0, 1]]), np.array([[1.0, 2.0]]), 3)


def test_count_rows_indices_restart_only_at_a_row_start() -> None:
    # a row may start below the last index of the row before it, even after an empty row
    rows = CountRows([0, 2, 2, 4], [1, 2, 0, 2], [1.0, 1.0, 2.0, 3.0], 3)
    assert (len(rows), rows.nnz) == (3, 4)
    assert rows.row_ids().tolist() == [0, 0, 2, 2]
    with pytest.raises(ValueError, match="increasing within a row"):
        CountRows([0, 1, 4], [1, 0, 2, 2], [1.0, 1.0, 2.0, 3.0], 3)  # 2 repeats inside row 1
    with pytest.raises(ValueError, match="increasing within a row"):
        CountRows([0, 3, 4], [1, 2, 0, 2], [1.0, 1.0, 2.0, 3.0], 3)  # the restart is inside row 0


@pytest.mark.parametrize(
    "indptr",
    [[1, 2], [0, 3, 2], [0, 1], [0, 3], [], [[0, 2]]],
    ids=["not-from-0", "decreasing", "short-of-nnz", "past-nnz", "empty", "2-D"],
)
def test_count_rows_reject_a_bad_indptr(indptr) -> None:
    with pytest.raises(ValueError, match="indptr"):
        CountRows(indptr, [0, 1], [1.0, 1.0], 3)


def test_count_rows_select() -> None:
    rows = CountRows([0, 2, 2, 3, 5], [0, 2, 1, 0, 2], [1.0, 2.0, 3.0, 1.0, 2.0], 3)  # row 1 is empty
    picked = rows.select([2, 1, 0])
    assert (picked.indptr.tolist(), picked.indices.tolist(), picked.dim) == ([0, 1, 1, 3], [1, 0, 2], 3)
    narrowed = rows.select([0, 2, 3], keep=np.array([1, 2]))
    assert narrowed.indptr.tolist() == [0, 1, 2, 3]
    assert narrowed.indices.tolist() == [1, 0, 1]
    assert narrowed.values.tolist() == [2.0, 3.0, 2.0]
    assert narrowed.dim == 2
    assert len(rows.select([])) == 0
    for keep in ([2, 1], [1, 1], [-1, 0], [0, 3], [[0, 1]]):
        with pytest.raises(ValueError, match="keep must be strictly increasing"):
            rows.select([0, 2], keep=np.array(keep))


def test_count_rows_select_takes_row_numbers_not_a_mask() -> None:
    rows = CountRows([0, 1, 3], [0, 1, 2], [1.0, 2.0, 3.0], 3)
    for picked in (np.array([True, False]), [False, True], np.array([0.0, 1.0])):
        with pytest.raises(ValueError, match="rows must be integer row numbers"):
            rows.select(picked)
    assert rows.select(np.array([1], dtype=np.uint8)).values.tolist() == [2.0, 3.0]
    assert len(rows.select(np.array([], dtype=bool))) == len(rows.select([])) == 0


def test_count_rows_select_names_a_row_outside_the_rows() -> None:
    rows = CountRows(np.arange(31), np.zeros(30, dtype=np.intp), np.ones(30), 1)  # 30 rows of one entry
    for picked, row in (([-1], -1), ([0, 30], 30), (np.array([29, 2**40]), 2**40), (np.array([300], np.uint16), 300)):
        with pytest.raises(ValueError, match=f"^row {row} is outside the 30 rows$"):
            rows.select(picked)
    assert rows.select(np.array([29, 0], dtype=np.uint8)).indptr.tolist() == [0, 1, 2]


def test_class_sides_counts_documents_not_occurrences() -> None:
    # term 0 is in both positive documents (five times in one) and no negative one; term 1 in one of each
    rows = CountRows([0, 1, 3, 4], [0, 0, 1, 1], [5.0, 1.0, 1.0, 2.0], 2)
    pos_df, neg_df, s = np.array([2, 1]), np.array([0, 1]), 0.5
    expected = np.log2((neg_df + s) * (2 + s) / ((pos_df + s) * (1 + s)))
    assert delta_weights(rows, positive=[True, True, False]).tolist() == expected.tolist()
    with pytest.raises(ValueError, match="length"):
        delta_weights(rows.select([0]), positive=[True, False])
    assert delta_weights(rows.select([]), positive=[]).tolist() == [0.0, 0.0]


def rows_with_doc_freqs(pos_df, neg_df, n_pos: int, n_neg: int) -> tuple[CountRows, list[bool]]:
    """``n_pos`` positive then ``n_neg`` negative documents, in which term
    ``t`` occurs (twice) in ``pos_df[t]`` and ``neg_df[t]`` of them; and
    the side of each document."""
    dense = np.zeros((n_pos + n_neg, len(pos_df)))
    for term, (pos, neg) in enumerate(zip(pos_df, neg_df)):
        dense[:pos, term] = dense[n_pos : n_pos + neg, term] = 2.0
    doc, term = np.nonzero(dense)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(doc, minlength=len(dense)))))
    return CountRows(indptr, term, dense[doc, term], len(pos_df)), [True] * n_pos + [False] * n_neg


def test_delta_weight_frozen_example() -> None:
    # term in 1 of 10 positive docs and 3 of 10 negative docs
    weights = delta_weights(*rows_with_doc_freqs([1], [3], n_pos=10, n_neg=10))
    assert weights[0] == pytest.approx(1.222392421336448, abs=1e-15)
    # one raw occurrence scores the weight itself, two score twice that
    assert 2.0 * weights[0] == pytest.approx(2.444784842672896, abs=1e-15)


def test_delta_weight_side_swap_negates() -> None:
    rng = np.random.default_rng(8)
    pos = rng.integers(0, 20, size=30)
    neg = rng.integers(0, 20, size=30)
    rows, positive = rows_with_doc_freqs(pos, neg, n_pos=25, n_neg=25)
    forward = delta_weights(rows, positive)
    swapped = delta_weights(rows, np.logical_not(positive))
    np.testing.assert_allclose(forward, -swapped, atol=1e-14)


def test_delta_weight_balanced_term_is_zero() -> None:
    assert delta_weights(*rows_with_doc_freqs([4], [4], n_pos=9, n_neg=9))[0] == 0.0


def test_vocabulary_round_trip(tmp_path) -> None:
    # through the one file that holds a vocabulary, its model's: terms in order, frequencies, counts, n-gram sizes
    vocab = Vocabulary(("a b", "b", "c  d"), np.array([3, 0, 12]), n_docs=12, min_df=1, ngrams=(2, 1, 3))
    rows = CountRows(np.arange(7), np.array([0, 1, 2, 0, 1, 2]), np.ones(6), 3)
    save_model(train_sentiment(rows, [-1, 0, 1] * 2, Variant.NAIVE_BAYES, vocab=vocab), tmp_path / "model.txt")
    loaded = load_model(tmp_path / "model.txt").vocab
    assert loaded.terms == vocab.terms and loaded.index == vocab.index
    assert loaded.doc_freq.tolist() == vocab.doc_freq.tolist()
    assert (loaded.n_docs, loaded.min_df, loaded.ngrams) == (vocab.n_docs, vocab.min_df, vocab.ngrams)


def _toy_vocab() -> Vocabulary:
    docs = [["a", "b"], ["b", "c"], ["a", "c"], ["a", "b", "c"]]
    return vocabulary_from_token_docs(docs, min_df=2, ngrams=(1, 2))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_load_vocabulary_fuzz_raises_only_format_errors(tmp_path, data) -> None:
    # only the vocabulary, one member of its model's document, is edited
    vocab = _toy_vocab()
    rows = CountRows(np.arange(4) * vocab.dim, np.tile(np.arange(vocab.dim), 3), np.ones(3 * vocab.dim), vocab.dim)
    path = tmp_path / "model.json"
    save_model(train_sentiment(rows, [-1, 0, 1], Variant.NAIVE_BAYES, vocab=vocab), path)
    path.write_bytes(data.draw(damaged_model(path.read_text(encoding="utf-8"), within="vocabulary")))
    try:
        model = load_model(path)
    except SentagreeError:
        return
    assert model.vocab is None or len(model.vocab.terms) == model.vocab.doc_freq.size == model.dim


@pytest.mark.parametrize("ngrams", [(), (0, 1), (1, -2)])
def test_vocabulary_rejects_ngram_sizes_below_one(ngrams) -> None:
    with pytest.raises(VocabularyError, match="ngrams must hold at least one n-gram size, each >= 1"):
        Vocabulary(("a",), np.array([1]), 1, 1, ngrams)


def test_vocabulary_from_token_docs_rejects_ngram_sizes_below_one() -> None:
    with pytest.raises(VocabularyError, match=r"got \(0, 1\)"):
        vocabulary_from_token_docs([["a", "b"]], min_df=1, ngrams=(0, 1))


@pytest.mark.parametrize(("field", "bad", "message"), [
    ("min_df", 2.5, "min_df must be a positive integer, got 2.5"),
    ("min_df", 0, "min_df must be a positive integer, got 0"),
    ("min_df", True, "min_df must be a positive integer, got True"),
    ("n_docs", -1, "n_docs must be a non-negative integer, got -1"),
    ("n_docs", 4.0, "n_docs must be a non-negative integer, got 4.0"),
])
def test_vocabulary_counts_are_integers(field, bad, message) -> None:
    # a vocabulary that saves with its model also reloads: no count a file cannot hold as an integer
    fields = dict(terms=("a",), doc_freq=np.array([2]), n_docs=4, min_df=2, ngrams=(1,))
    with pytest.raises(VocabularyError, match=f"^{message}$"):
        Vocabulary(**{**fields, field: bad})
    assert Vocabulary(**{**fields, field: np.int64(2)}).dim == 1


@pytest.mark.parametrize(("terms", "doc_freq", "message"), [
    (("bad", "bad", "good"), [8, 3, 8], "^term 'bad' repeats$"),
    (("a", "b", "c", "b"), [1, 1, 1, 1], "^term 'b' repeats$"),
    (("bad", "good"), [8, 3, 8], r"^doc_freq of shape \(3,\) for 2 terms$"),
    (("bad", "good"), [[8, 3]], r"^doc_freq of shape \(1, 2\) for 2 terms$"),
    (("bad", "good"), [8, -5], r"^a document frequency is outside \[0, n_docs = 24\]$"),
    (("bad", "good"), [8, 25], r"^a document frequency is outside \[0, n_docs = 24\]$"),
])
def test_vocabulary_rejects_repeated_terms_and_bad_document_frequencies(terms, doc_freq, message) -> None:
    with pytest.raises(VocabularyError, match=message):
        Vocabulary(terms, np.array(doc_freq), n_docs=24, min_df=2, ngrams=(1,))
    assert Vocabulary(("bad", "good"), np.array([0, 24]), n_docs=24, min_df=2, ngrams=(1,)).dim == 2


def test_vocabulary_from_token_docs_rejects_a_fractional_min_df() -> None:
    with pytest.raises(VocabularyError, match="^min_df must be a positive integer, got 2.5$"):
        vocabulary_from_token_docs([["a", "b"]] * 3, min_df=2.5)
