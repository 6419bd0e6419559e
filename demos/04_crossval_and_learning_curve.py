"""Blocked stratified cross-validation, then a learning curve with a twist.

The corpus is time-stamped and the folds keep each class's posts in
contiguous temporal blocks, so a model is never trained on the future
of its own test data.  Halfway through the stream the vocabulary is
swapped out — the learning curve makes the damage visible as a dip at
the first prefix that straddles the shift.
"""

from datetime import datetime, timedelta

import numpy as np

from sentagree import (
    GoldPost,
    Measure,
    SentimentLabel,
    TrainConfig,
    Variant,
    cross_validate,
    learning_curve,
    prepare,
)

LEXICONS = {
    -1: "awful terrible nasty angry worst hate broken sad".split(),
    0: "update report schedule notice meeting agenda minutes record".split(),
    1: "great lovely wonderful superb happy best love enjoy".split(),
}


def streamed_corpus(n, shift_at=None, seed=0):
    rng = np.random.default_rng(seed)
    start = datetime(2014, 1, 1)
    posts = []
    for i in range(n):
        code = int(rng.integers(-1, 2))
        words = LEXICONS[code]
        if shift_at is not None and i >= shift_at:
            # the old lexicon disappears, replaced by a much larger one
            # whose individual words are too rare to relearn quickly
            words = [f"{w}{j}" for w in words for j in range(40)]
        tokens = list(rng.choice(words, size=5)) + ["the", "on", "today"]
        posts.append(
            GoldPost(post_id=f"d{i}", label=SentimentLabel(code),
                     timestamp=start + timedelta(minutes=i), text=" ".join(tokens))
        )
    return posts


def main() -> None:
    gold = streamed_corpus(1200, seed=5)
    result = cross_validate(prepare(gold, min_df=5), Variant.TWO_PLANE, TrainConfig(seed=0), k=10)
    print(f"10-fold blocked cross-validation on {len(gold)} posts "
          f"(fold sizes {list(result.fold_sizes)}):")
    for measure, summary in result.summaries.items():
        print(f"  {measure.value:<16} {summary.mean:.3f} "
              f"+/- {summary.half_width:.3f}")

    shifted = streamed_corpus(1200, shift_at=600, seed=5)
    curve = learning_curve(
        shifted, Variant.TWO_PLANE, TrainConfig(seed=0),
        step=200, k=5, measures=(Measure.ALPHA_INTERVAL, Measure.ACCURACY), min_df=5,
    )
    print("\nlearning curve on the shifted stream (vocabulary swaps at post 600):")
    print(f"  {'prefix':>6}  {'alpha_interval':>14}  {'accuracy':>8}")
    for point in curve.points:
        alpha = point.result.summaries[Measure.ALPHA_INTERVAL].mean
        acc = point.result.summaries[Measure.ACCURACY].mean
        print(f"  {point.prefix_size:>6}  {alpha:>14.3f}  {acc:>8.3f}")
    for size, reason in curve.skipped:
        print(f"  {size:>6}  skipped: {reason}")


if __name__ == "__main__":
    main()
