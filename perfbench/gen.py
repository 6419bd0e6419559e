"""Seeded synthetic inputs for the benchmark workloads.

Everything here is a pure function of its arguments: the same seed gives
byte-identical files.  The generators write plain CSV with the standard
library and never import ``sentagree``, so a change to the program
cannot change the inputs it is measured on.

Two kinds of file are produced:

* gold corpora (``TweetID, HandLabel, Date, Text``), one post per row in
  time order, for ``crossval``, ``curve`` and ``compare``;
* raw annotation tables (``TweetID, HandLabel, AnnotatorID, Date,
  Text``), one annotation per row, for ``agreement``, ``ordering`` and
  ``merge``.

The knobs the workloads vary are parameters: label noise (solver
convergence), filler vocabulary width and Zipf skew (vocab and vectorize
cost), lexicon shift (the learning-curve dip) and table size (pair
extraction and bootstrap).  The rest of the shape is fixed by the
constants below.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

LABEL_NAMES = ("Negative", "Neutral", "Positive")  # label code + 1
START = datetime(2014, 1, 1)

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_EMOTICONS = {-1: (":(", ":'(", "D:"), 0: (":|", ":/", "-_-"), 1: (":)", ":D", "<3")}

SENTIMENT_WORDS = 2  # sentiment words per gold post
ANNOTATORS = 20
ANNOTATION_PROBS = (0.5, 0.35, 0.15)  # 1, 2, 3 annotations per post
SELF_SHARE = 0.3  # chance a repeat annotation comes from an earlier annotator
CLASS_PROBS = (0.3, 0.4, 0.3)  # true class of a raw table post


def word(index: int, prefix: str = "") -> str:
    """Deterministic pronounceable word for ``index``.

    Consonant-vowel syllables never repeat a letter three times, so the
    normalizer's elongation rule leaves these words alone.
    """
    base = len(_CONSONANTS) * len(_VOWELS)
    syllables = []
    n = index
    while True:
        n, r = divmod(n, base)
        syllables.append(_CONSONANTS[r // len(_VOWELS)] + _VOWELS[r % len(_VOWELS)])
        if n == 0:
            break
    return prefix + "".join(syllables)


@dataclass(frozen=True)
class GoldSpec:
    """Shape of one synthetic gold corpus."""

    posts: int
    label_noise: float = 0.1  # share of labels redrawn uniformly at random
    vocab_width: int = 2000  # filler words
    zipf_skew: float = 1.1  # filler word frequency ~ rank ** -skew
    lexicon: int = 12  # sentiment words per class before the shift
    shift_at: int | None = None  # post index where the class lexicons change
    shift_lexicon: int = 300  # sentiment words per class after the shift
    filler_words: int = 6


def _zipf_probs(width: int, skew: float) -> np.ndarray:
    weights = np.arange(1, width + 1, dtype=np.float64) ** -skew
    return weights / weights.sum()


def _elongate(token: str, rng: np.random.Generator) -> str:
    vowel = next((i for i, ch in enumerate(token) if ch in _VOWELS), None)
    if vowel is None:
        return token
    return token[: vowel + 1] + token[vowel] * int(rng.integers(2, 5)) + token[vowel + 1 :]


def gold_posts(spec: GoldSpec, seed: int | tuple[int, ...]) -> list[tuple[str, int, str, str]]:
    """Rows ``(post_id, label_code, date, text)`` of a gold corpus.

    Posts carry tweet decorations: URLs, mentions, hashtags, emoticons
    and elongated words.
    """
    rng = np.random.default_rng(seed)
    probs = _zipf_probs(spec.vocab_width, spec.zipf_skew)
    fillers = np.array([word(i) for i in range(spec.vocab_width)])
    old = {c: [word(i, f"s{c + 1}") for i in range(spec.lexicon)] for c in (-1, 0, 1)}
    new = {c: [word(i, f"n{c + 1}") for i in range(spec.shift_lexicon)] for c in (-1, 0, 1)}
    rows = []
    for i in range(spec.posts):
        if i % 3 == 0:  # balanced classes: each block of three holds one of each
            block = [int(c) for c in rng.permutation((-1, 0, 1))]
        code = block[i % 3]
        lexicon = new if spec.shift_at is not None and i >= spec.shift_at else old
        tokens = [str(t) for t in rng.choice(lexicon[code], size=SENTIMENT_WORDS)]
        tokens += [str(t) for t in rng.choice(fillers, size=spec.filler_words, p=probs)]
        rng.shuffle(tokens)
        draw = rng.random(6)
        if draw[0] < 0.1:
            j = int(rng.integers(len(tokens)))
            tokens[j] = _elongate(tokens[j], rng)
        if draw[1] < 0.3:
            tokens.insert(0, "@" + str(rng.choice(fillers, p=probs)))
        if draw[2] < 0.2:
            tokens.append("#" + str(rng.choice(fillers, p=probs)))
        if draw[3] < 0.25:
            tokens.append(str(rng.choice(_EMOTICONS[code])))
        if draw[4] < 0.15:
            tokens.append(f"https://t.co/{word(int(rng.integers(10**6)))}")
        if draw[5] < 0.1:
            tokens[0] = tokens[0].capitalize() + "!!"
        if rng.random() < spec.label_noise:
            code = int(rng.integers(-1, 2))
        stamp = (START + timedelta(minutes=i)).isoformat(sep=" ")
        rows.append((f"t{i}", code, stamp, " ".join(tokens)))
    return rows


def write_gold(path: Path, spec: GoldSpec, seed: int | tuple[int, ...]) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["TweetID", "HandLabel", "Date", "Text"])
        for post_id, code, stamp, text in gold_posts(spec, seed):
            writer.writerow([post_id, LABEL_NAMES[code + 1], stamp, text])
    return path


def _annotate(true_code: int, accuracy: float, rng: np.random.Generator) -> int:
    """An annotator's label: right with ``accuracy``, else mostly an
    adjacent class, rarely the opposite pole."""
    if rng.random() < accuracy:
        return true_code
    if true_code == 0:
        return int(rng.choice((-1, 1)))
    return 0 if rng.random() < 0.85 else -true_code


def annotation_rows(posts: int, seed: int | tuple[int, ...]) -> list[tuple[str, int, str, str, str]]:
    """Rows ``(post_id, label_code, annotator, date, text)`` in time order."""
    rng = np.random.default_rng(seed)
    accuracy = rng.uniform(0.6, 0.9, size=ANNOTATORS)
    self_accuracy = np.minimum(accuracy + 0.08, 0.97)
    events = []
    for i in range(posts):
        true_code = int(rng.choice((-1, 0, 1), p=CLASS_PROBS))
        count = int(rng.choice((1, 2, 3), p=ANNOTATION_PROBS))
        text = " ".join(word(int(t)) for t in rng.integers(0, 400, size=5))
        posted = START + timedelta(minutes=i)
        seen: list[int] = []
        for _ in range(count):
            if seen and rng.random() < SELF_SHARE:
                who = seen[int(rng.integers(len(seen)))]
                acc = self_accuracy[who]
            else:
                who = int(rng.integers(ANNOTATORS))
                acc = accuracy[who]
            seen.append(who)
            delay = timedelta(seconds=int(rng.integers(0, 7 * 24 * 3600)))
            events.append((posted + delay, f"t{i}", _annotate(true_code, acc, rng), f"a{who:02d}", text))
    events.sort(key=lambda e: e[0])
    return [(pid, code, who, stamp.isoformat(sep=" "), text) for stamp, pid, code, who, text in events]


def write_table(path: Path, posts: int, seed: int | tuple[int, ...]) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["TweetID", "HandLabel", "AnnotatorID", "Date", "Text"])
        for post_id, code, who, stamp, text in annotation_rows(posts, seed):
            writer.writerow([post_id, LABEL_NAMES[code + 1], who, stamp, text])
    return path
