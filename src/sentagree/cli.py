"""Command-line interface.

Seven subcommands cover the library surface: ``agreement``,
``ordering``, ``merge``, ``train``, ``crossval``, ``curve``, and
``compare``.  Reports are emitted as canonical JSON (sorted keys,
two-space indent) or as a flat CSV projection of the same rows; a fixed
seed makes any run byte-identical.  Input paths that do not exist are
retried relative to the directory named by the ``SENTAGREE_DATA_DIR``
environment variable.  All failures print one ``error: <code>:
<message>`` line to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

from . import agreement as agr
from . import classify, corpus, evaluation, features, ranking
from .errors import SentagreeError

DATA_DIR_ENV = "SENTAGREE_DATA_DIR"

_MEASURE_CHOICES = [m.value for m in agr.Measure]
_VARIANT_CHOICES = [v.value for v in classify.Variant]


def _resolve(path: str) -> Path:
    candidate = Path(path)
    if candidate.exists():
        return candidate
    data_dir = os.environ.get(DATA_DIR_ENV)
    if data_dir:
        fallback = Path(data_dir) / path
        if fallback.exists():
            return fallback
    return candidate


def _dataset_name(path: str) -> str:
    return Path(path).stem


def _emit(args: argparse.Namespace, payload: dict, rows: list[dict], columns: list[str]) -> None:
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["/" if row.get(c) is None else _plain(row.get(c)) for c in columns])
        text = buffer.getvalue()
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")


def _plain(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # plain digits even for numpy scalars
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


class UsageError(SentagreeError):
    """A command line that parses but cannot be run as given."""

    code = "usage"


def _load_gold_any(path: Path) -> list[corpus.GoldPost]:
    """Load a gold corpus; raw annotation files are merged on the fly."""
    if corpus._is_annotation_table(path):
        return corpus.merge_gold(corpus.load_annotations(path))
    return corpus.load_gold(path)


def _single(values: list[str], flag: str) -> str:
    """The one value of a repeatable flag in a command that uses only one."""
    if len(values) > 1:
        raise UsageError(f"{flag} takes one value for this command, got {len(values)}")
    return values[0]


def _train_config(args: argparse.Namespace) -> classify.TrainConfig:
    return classify.TrainConfig(
        cost=args.cost, seed=args.seed, bin_grid=args.bins
    )


# --- subcommands -------------------------------------------------------------

_KIND_ORDER = (corpus.PairKind.SELF, corpus.PairKind.INTER)
_MEASURE_ORDER = (
    agr.Measure.ACC_WITHIN_1,
    agr.Measure.ACCURACY,
    agr.Measure.F1_BAR,
    agr.Measure.ALPHA_INTERVAL,
    agr.Measure.ALPHA_NOMINAL,
)


def cmd_agreement(args: argparse.Namespace) -> None:
    wanted = tuple(agr.Measure(m) for m in args.measure) if args.measure else _MEASURE_ORDER
    repeated = [m.value for m in wanted if wanted.count(m) > 1]
    if repeated:
        raise UsageError(f"--measure {repeated[0]} is given more than once")
    rows = []
    for path in args.input:
        pairs = corpus.extract_pairs(corpus.load_annotations(_resolve(path)))
        for kind in _KIND_ORDER:
            subset = [p for p in pairs if p.kind is kind]
            for measure in wanted:
                row = {
                    "dataset": _dataset_name(path),
                    "kind": kind.value,
                    "measure": measure.value,
                    "n_pairs": len(subset),
                    "point": None,
                    "low": None,
                    "high": None,
                }
                if subset:
                    try:
                        ci = agr.bootstrap_ci(subset, measure, seed=args.seed)
                        row.update(point=ci.point, low=ci.low, high=ci.high)
                    except agr.UndefinedMeasureError:
                        pass
                rows.append(row)
    payload = {"command": "agreement", "seed": args.seed, "rows": rows}
    _emit(args, payload, rows, ["dataset", "kind", "measure", "n_pairs", "point", "low", "high"])


def cmd_ordering(args: argparse.Namespace) -> None:
    excluded = set(args.exclude or [])
    unknown = sorted(excluded - {_dataset_name(path) for path in args.input})
    if unknown:
        raise UsageError(f"--exclude {unknown[0]} names no input dataset")
    rows = []
    sums = []
    for path in args.input:
        name = _dataset_name(path)
        pairs = corpus.extract_pairs(corpus.load_annotations(_resolve(path)))
        row = {
            "dataset": name,
            "relative_gain": None,
            "dist_neg_neutral": None,
            "dist_pos_neutral": None,
            "excluded": name in excluded,
        }
        try:
            diag = agr.ordering_diagnostics(pairs)
            row.update(
                relative_gain=diag.relative_gain,
                dist_neg_neutral=diag.dist_neg_neutral,
                dist_pos_neutral=diag.dist_pos_neutral,
            )
            if name not in excluded:
                sums.append(diag)
        except agr.UndefinedMeasureError:
            row["excluded"] = True
        rows.append(row)
    if sums:
        n = len(sums)
        rows.append(
            {
                "dataset": "AVERAGE",
                "relative_gain": sum(d.relative_gain for d in sums) / n,
                "dist_neg_neutral": sum(d.dist_neg_neutral for d in sums) / n,
                "dist_pos_neutral": sum(d.dist_pos_neutral for d in sums) / n,
                "excluded": False,
            }
        )
    payload = {"command": "ordering", "rows": rows}
    _emit(
        args, payload, rows,
        ["dataset", "relative_gain", "dist_neg_neutral", "dist_pos_neutral", "excluded"],
    )


def cmd_merge(args: argparse.Namespace) -> None:
    path = _resolve(_single(args.input, "--input"))
    gold = corpus.merge_gold(corpus.load_annotations(path))
    corpus.save_gold(gold, args.out, delimiter=corpus.sniff_delimiter(path))


def cmd_train(args: argparse.Namespace) -> None:
    gold = _load_gold_any(_resolve(_single(args.input, "--input")))
    vocab = features.build_vocabulary(gold, min_df=args.min_df)
    vectors = [features.count_vector(features.normalize(p.text), vocab) for p in gold]
    model = classify.train_sentiment(
        vectors, [p.label for p in gold], args.variant, _train_config(args), vocab
    )
    model_path = Path(args.out)
    vocab_path = model_path.with_name(model_path.name + ".vocab")
    classify.save_model(model, model_path)
    features.save_vocabulary(vocab, vocab_path)
    summary = {
        "command": "train",
        "variant": args.variant,
        "posts": len(gold),
        "dim": vocab.dim,
        "vocab_hash": features.vocabulary_hash(vocab),
        "model": str(model_path),
        "vocabulary": str(vocab_path),
    }
    sys.stdout.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")


def _crossval_rows(result: evaluation.CrossValResult) -> list[dict]:
    rows = []
    for measure, summary in result.summaries.items():
        rows.append(
            {
                "measure": measure.value,
                "mean": summary.mean,
                "low": summary.mean - summary.half_width,
                "high": summary.mean + summary.half_width,
                "per_fold": [float(v) for v in summary.per_fold],
            }
        )
    return rows


def cmd_crossval(args: argparse.Namespace) -> None:
    gold = _load_gold_any(_resolve(_single(args.input, "--input")))
    measures = tuple(args.measure) if args.measure else evaluation.DEFAULT_MEASURES
    result = evaluation.cross_validate(
        gold,
        variant=args.variant,
        config=_train_config(args),
        k=args.k,
        measures=measures,
        min_df=args.min_df,
    )
    rows = _crossval_rows(result)
    payload = {
        "command": "crossval",
        "variant": args.variant,
        "k": args.k,
        "seed": args.seed,
        "rows": rows,
        "pooled_matrix": result.pooled.counts.tolist(),
    }
    csv_rows = [{k: v for k, v in row.items() if k != "per_fold"} for row in rows]
    _emit(args, payload, csv_rows, ["measure", "mean", "low", "high"])


def cmd_curve(args: argparse.Namespace) -> None:
    gold = _load_gold_any(_resolve(_single(args.input, "--input")))
    measures = tuple(args.measure) if args.measure else evaluation.DEFAULT_MEASURES
    curve = evaluation.learning_curve(
        gold,
        variant=args.variant,
        config=_train_config(args),
        step=args.step,
        k=args.k,
        measures=measures,
        min_df=args.min_df,
    )
    rows = []
    for point in curve.points:
        for row in _crossval_rows(point.result):
            rows.append({"prefix_size": point.prefix_size, **row})
    payload = {
        "command": "curve",
        "variant": args.variant,
        "k": args.k,
        "step": args.step,
        "seed": args.seed,
        "rows": rows,
        "skipped": [{"prefix_size": size, "reason": reason} for size, reason in curve.skipped],
    }
    csv_rows = [{k: v for k, v in row.items() if k != "per_fold"} for row in rows]
    _emit(args, payload, csv_rows, ["prefix_size", "measure", "mean", "low", "high"])


def cmd_compare(args: argparse.Namespace) -> None:
    if len(args.input) < 2:
        raise UsageError("compare needs at least two dataset files")
    measure = agr.Measure(_single(args.measure, "--measure")) if args.measure else agr.Measure.ALPHA_INTERVAL
    variants = [v.value for v in classify.Variant]
    scores = []
    names = []
    for path in args.input:
        gold = _load_gold_any(_resolve(path))
        names.append(_dataset_name(path))
        scores.append(
            [
                evaluation.cross_validate(
                    gold,
                    variant=variant,
                    config=_train_config(args),
                    k=args.k,
                    measures=(measure,),
                    min_df=args.min_df,
                ).summaries[measure].mean
                for variant in variants
            ]
        )
    table = ranking.ScoreTable(
        scores=scores, dataset_names=tuple(names), classifier_names=tuple(variants)
    )
    report = ranking.compare_ranks(ranking.friedman(table))
    payload = {
        "command": "compare",
        "measure": measure.value,
        "k": args.k,
        "seed": args.seed,
        "scores": {
            name: dict(zip(variants, [float(v) for v in row]))
            for name, row in zip(names, scores)
        },
        "report": report.to_dict(),
    }
    rows = [
        {
            "variant": name,
            "avg_rank": float(rank),
            "cd": report.cd,
            "statistic": report.summary.statistic,
            "p_value": report.summary.p_value,
        }
        for name, rank in sorted(
            zip(report.summary.classifier_names, report.summary.avg_ranks),
            key=lambda pair: pair[1],
        )
    ]
    _emit(args, payload, rows, ["variant", "avg_rank", "cd", "statistic", "p_value"])


# --- parser ------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", action="append", required=True, metavar="FILE",
                     help="input file (agreement, ordering and compare take several)")
    sub.add_argument("--out", default="-", metavar="FILE", help="output path ('-' = stdout)")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--seed", type=int, default=0)


def _add_training(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--variant", choices=_VARIANT_CHOICES, default=classify.Variant.TWO_PLANE.value)
    sub.add_argument("--min-df", type=int, default=5, dest="min_df")
    sub.add_argument("--cost", type=float, default=1.0)
    sub.add_argument("--bins", type=int, default=10)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sentagree",
        description="Agreement measurement and ordinal sentiment classification toolkit.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("agreement", help="agreement measures with bootstrap intervals")
    _add_common(p)
    p.add_argument("--measure", action="append", choices=_MEASURE_CHOICES)
    p.set_defaults(func=cmd_agreement)

    p = subs.add_parser("ordering", help="ordinal-scale diagnostics per dataset")
    _add_common(p)
    p.add_argument("--exclude", action="append", metavar="DATASET",
                   help="dataset name to leave out of the average row (repeatable)")
    p.set_defaults(func=cmd_ordering)

    p = subs.add_parser("merge", help="merge multiple annotations into a gold corpus")
    _add_common(p)
    p.set_defaults(func=cmd_merge)

    p = subs.add_parser("train", help="train a sentiment model on a gold corpus")
    _add_common(p)
    _add_training(p)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("crossval", help="blocked stratified cross-validation")
    _add_common(p)
    _add_training(p)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--measure", action="append", choices=_MEASURE_CHOICES)
    p.set_defaults(func=cmd_crossval)

    p = subs.add_parser("curve", help="learning curve over time-ordered prefixes")
    _add_common(p)
    _add_training(p)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--step", type=int, default=10000)
    p.add_argument("--measure", action="append", choices=_MEASURE_CHOICES)
    p.set_defaults(func=cmd_curve)

    p = subs.add_parser("compare", help="rank all variants across datasets")
    _add_common(p)
    _add_training(p)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--measure", action="append", choices=_MEASURE_CHOICES)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("merge", "train") and args.out == "-":
            raise UsageError(f"{args.command} writes files and needs --out FILE, not '-'")
        args.func(args)
    except SentagreeError as exc:
        message = " ".join(str(exc).split())
        sys.stderr.write(f"error: {exc.code}: {message}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: io: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
