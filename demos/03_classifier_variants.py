"""Train each classifier variant on the same synthetic corpus.

Documents are bags of class-flavored words plus shared filler, so every
variant should do well — the point is to see the six architectures side
by side: how they carve the two decision-value axes into three ordered
classes, and what kind of confidence (if any) each one reports.
"""

import numpy as np

from sentagree import (
    GoldPost,
    SentimentLabel,
    TrainConfig,
    Variant,
    count_vector,
    normalize,
    predict,
    predict_batch,
    prepare,
    train_sentiment,
)

WORDS = {
    -1: "awful terrible nasty angry worst hate broken sad".split(),
    0: "update report schedule notice meeting agenda minutes record".split(),
    1: "great lovely wonderful superb happy best love enjoy".split(),
}
FILLER = "the a on at today city train coffee street people".split()


def synthetic_corpus(n, seed=0):
    rng = np.random.default_rng(seed)
    posts = []
    for i in range(n):
        code = int(rng.integers(-1, 2))
        tokens = list(rng.choice(WORDS[code], size=4)) + list(rng.choice(FILLER, size=3))
        rng.shuffle(tokens)
        posts.append(GoldPost(post_id=f"d{i}", label=SentimentLabel(code),
                              text=" ".join(tokens)))
    return posts


def main() -> None:
    gold = synthetic_corpus(600, seed=7)
    prepared = prepare(gold, min_df=5)  # undated posts keep their order; counted in one pass
    vocab, rows, labels = prepared.vocab, prepared.counts, prepared.labels
    print(f"{len(gold)} documents, vocabulary of {vocab.dim} terms\n")

    probes = {
        "clearly negative": "awful broken worst day on the train",
        "purely factual": "meeting agenda and schedule update for today",
        "clearly positive": "wonderful superb coffee best street people",
    }

    for variant in Variant:
        model = train_sentiment(rows, labels, variant, TrainConfig(seed=0), vocab)
        hits = int((predict_batch(model, rows) == labels).sum())
        print(f"{variant.value}: training accuracy {hits / len(gold):.3f}")
        for name, text in probes.items():
            label, confidence = predict(model, count_vector(normalize(text), vocab))
            shown = "-" if confidence is None else f"{confidence:.2f}"
            print(f"    {name:<17} -> {label.name:<8} (confidence {shown})")
        print()


if __name__ == "__main__":
    main()
