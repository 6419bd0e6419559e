"""Turn raw annotation events into agreement pairs and a merged gold corpus.

A handful of posts are annotated one, two, or three times — some twice
by the same coder (self-agreement), some by different coders
(inter-annotator agreement), and one with a three-way conflict that the
merge rules must resolve.
"""

from datetime import datetime, timedelta

from sentagree import AnnotationRecord, SentimentLabel, extract_pairs, merge_gold


def record(post, coder, label, seq, minute):
    return AnnotationRecord(
        post_id=post,
        annotator_id=coder,
        label=SentimentLabel.from_string(label),
        seq=seq,
        timestamp=datetime(2014, 3, 1, 9, 0) + timedelta(minutes=minute),
        text=f"text of {post}",
    )


def main() -> None:
    records = [
        record("p1", "anna", "Negative", 0, 0),
        record("p1", "anna", "Negative", 1, 90),   # relabeled later: self pair
        record("p2", "anna", "Positive", 2, 5),
        record("p2", "ben", "Positive", 3, 6),     # two coders agree: inter pair
        record("p3", "anna", "Negative", 4, 10),
        record("p3", "ben", "Neutral", 5, 11),
        record("p3", "cara", "Positive", 6, 12),   # full three-way disagreement
        record("p4", "ben", "Neutral", 7, 20),     # single annotation, no pair
    ]

    pairs = extract_pairs(records)
    print(f"{len(records)} annotation events over 4 posts -> {len(pairs)} pairs")
    # a PairTable holds its pairs as columns: label codes, self flags, post indices
    for first, second, same, post in zip(pairs.first, pairs.second, pairs.self, pairs.post):
        kind = "self " if same else "inter"
        print(f"  {pairs.post_ids[post]}: {kind}  {SentimentLabel(first).name:<8} / {SentimentLabel(second).name}")

    gold = merge_gold(records)  # a GoldTable: one row per post, in columns too
    print("\nmerged gold standard:")
    for post_id, code, count in zip(gold.post_ids, gold.label, gold.merged_from):
        print(f"  {post_id}: {SentimentLabel(code).name:<8} (merged from {count} annotation(s))")

    # p3 had one vote per class; the conflict resolution keeps the corpus
    # usable instead of dropping the post.
    p3 = SentimentLabel(gold.label[gold.post_ids.index("p3")])
    print(f"\nthree-way conflict on p3 resolved to: {p3.name}")


if __name__ == "__main__":
    main()
