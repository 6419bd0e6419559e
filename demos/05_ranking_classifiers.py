"""Rank all six variants across several datasets with the Friedman test.

Each synthetic dataset gets an alpha_interval score per variant from a
quick cross-validation; the Friedman test then asks whether the rank
differences are systematic, and the Nemenyi critical distance groups
variants that the evidence cannot separate.
"""

import numpy as np

from sentagree import (
    GoldPost,
    Measure,
    ScoreTable,
    SentimentLabel,
    TrainConfig,
    Variant,
    compare_ranks,
    cross_validate,
    friedman,
    nemenyi_cd,
    prepare,
)

LEXICONS = {
    -1: "awful terrible nasty angry worst hate broken sad".split(),
    0: "update report schedule notice meeting agenda minutes record".split(),
    1: "great lovely wonderful superb happy best love enjoy".split(),
}


def noisy_corpus(n, noise, seed):
    """Class-flavored bags of words; `noise` relabels that share of posts."""
    rng = np.random.default_rng(seed)
    posts = []
    for i in range(n):
        code = int(rng.integers(-1, 2))
        tokens = list(rng.choice(LEXICONS[code], size=4)) + ["the", "on", "today"]
        if rng.random() < noise:
            code = int(rng.integers(-1, 2))
        posts.append(GoldPost(post_id=f"d{i}", label=SentimentLabel(code),
                              text=" ".join(tokens)))
    return posts


def main() -> None:
    variants = list(Variant)
    datasets = {f"set{seed}": noisy_corpus(150, noise=0.15, seed=seed)
                for seed in range(5)}

    scores = []
    for name, gold in datasets.items():
        prepared = prepare(gold, min_df=2)  # counted once, shared by every variant
        row = []
        for variant in variants:
            result = cross_validate(
                prepared, variant, TrainConfig(seed=0), k=3,
                measures=(Measure.ALPHA_INTERVAL,),
            )
            row.append(result.summaries[Measure.ALPHA_INTERVAL].mean)
        scores.append(row)
        shown = "  ".join(f"{v:.3f}" for v in row)
        print(f"{name}: {shown}")

    table = ScoreTable(
        scores=np.array(scores),
        dataset_names=tuple(datasets),
        classifier_names=tuple(v.value for v in variants),
    )
    report = compare_ranks(friedman(table))
    print(f"\nFriedman statistic {report.summary.statistic:.2f}, "
          f"p = {report.summary.p_value:.4f}")
    print(f"critical distance at alpha=0.05: "
          f"{nemenyi_cd(len(variants), len(datasets)):.3f}\n")

    print("average ranks (lower is better):")
    for name, rank in sorted(report.to_dict()["ranks"].items(), key=lambda kv: kv[1]):
        print(f"  {rank:.2f}  {name}")

    print("\ngroups not separated by the critical distance:")
    for group in report.groups:
        print("  {" + ", ".join(group) + "}")


if __name__ == "__main__":
    main()
