"""Command-line interface.

Seven subcommands cover the library surface: ``agreement``,
``ordering``, ``merge``, ``train``, ``crossval``, ``curve``, and
``compare``.  Each takes only the options it reads (``_COMMANDS``):
``ordering`` and ``merge`` take no ``--seed``, ``merge`` and ``train``
no ``--format``.  Reports are emitted as canonical JSON (sorted keys,
two-space indent) or as a flat CSV projection of the same rows, and a
rerun with the same options is byte-identical.  Input paths that do not
exist are retried relative to the directory named by the
``SENTAGREE_DATA_DIR`` environment variable, and an ``--out`` that names
an input file is refused before any command runs.  All failures print one
``error: <code>: <message>`` line to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

from . import agreement as agr
from . import corpus
from .errors import CorpusFormatError, SentagreeError

if TYPE_CHECKING:
    # The training commands import the classifier modules where they run, so
    # ``agreement``, ``ordering`` and ``merge`` never load them.  They call
    # through the module attributes, which a tracer may patch.
    from . import classify, evaluation

DATA_DIR_ENV = "SENTAGREE_DATA_DIR"

_MEASURE_CHOICES = [m.value for m in agr.Measure]
#: ``classify.Variant``'s values in its order, written out so the parser loads no classifier.
_VARIANT_CHOICES = ("NeutralZoneSVM", "TwoPlaneSVM", "TwoPlaneSVMbin", "CascadingSVM", "ThreePlaneSVM", "NaiveBayes")


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
    """A command line that does not parse, or cannot be run as given."""

    code = "usage"


def _dataset_names(paths: list[str | Path]) -> list[str]:
    """The dataset name (file stem) of each input; no two may share one."""
    seen: dict[str, str | Path] = {}
    for path in paths:
        name = Path(path).stem
        if name in seen:
            raise UsageError(f"--input {seen[name]} and --input {path} share the dataset name {name!r}")
        seen[name] = path
    return list(seen)


def _single(values: list, flag: str):
    """The one value of a repeatable flag in a command that uses only one."""
    if len(values) > 1:
        raise UsageError(f"{flag} takes one value for this command, got {len(values)}")
    return values[0]


def _measures(values: list[str] | None, default: tuple) -> tuple[agr.Measure, ...]:
    """The measures a repeatable ``--measure`` names, each at most once,
    or ``default`` when it is not given."""
    if not values:
        return default
    wanted = tuple(agr.Measure(m) for m in values)
    repeated = [m.value for m in wanted if wanted.count(m) > 1]
    if repeated:
        raise UsageError(f"--measure {repeated[0]} is given more than once")
    return wanted


def _train_config(args: argparse.Namespace) -> classify.TrainConfig:
    from . import classify

    try:
        return classify.TrainConfig(cost=args.cost, seed=args.seed, bin_grid=args.bins)
    except ValueError as exc:
        # TrainConfig's messages start with the field; name the flag that set it
        field, _, rest = str(exc).partition(" ")
        flag = {"cost": "--cost", "bin_grid": "--bins"}.get(field, field)
        raise UsageError(f"{flag} {rest}") from None


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
    wanted = _measures(args.measure, _MEASURE_ORDER)
    rows = []
    for name, path in zip(_dataset_names(args.input), args.input):
        pairs = corpus.extract_pairs(corpus.load_annotations(path))
        for kind in _KIND_ORDER:
            subset = pairs[pairs.self == (kind is corpus.PairKind.SELF)]
            for measure in wanted:
                row = {
                    "dataset": name,
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
    names = _dataset_names(args.input)
    excluded = set(args.exclude or [])
    unknown = sorted(excluded - set(names))
    if unknown:
        raise UsageError(f"--exclude {unknown[0]} names no input dataset")
    rows = []
    sums = []
    for name, path in zip(names, args.input):
        pairs = corpus.extract_pairs(corpus.load_annotations(path))
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
    path = _single(args.input, "--input")
    table = corpus.load_annotations(path)
    if not table:
        raise CorpusFormatError(f"{path}: no posts found")
    corpus.save_gold(corpus.merge_gold(table), args.out, delimiter=table.delimiter)


def cmd_train(args: argparse.Namespace) -> None:
    from . import classify, evaluation

    config = _train_config(args)
    gold = corpus.load_gold(_single(args.input, "--input"))
    prepared = evaluation.prepare(gold, min_df=args.min_df)
    model = classify.train_sentiment(prepared.counts, prepared.labels, args.variant, config, prepared.vocab)
    classify.save_model(model, args.out)
    summary = {"command": "train", "variant": args.variant, "posts": len(gold), "dim": model.dim, "model": args.out}
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
    from . import evaluation

    config = _train_config(args)
    measures = _measures(args.measure, evaluation.DEFAULT_MEASURES)
    gold = corpus.load_gold(_single(args.input, "--input"))
    prepared = evaluation.prepare(gold, min_df=args.min_df)
    result = evaluation.cross_validate(prepared, args.variant, config, args.k, measures)
    rows = _crossval_rows(result)
    payload = {
        "command": "crossval",
        "variant": args.variant,
        "k": args.k,
        "seed": args.seed,
        "rows": rows,
        "pooled_matrix": result.pooled.counts.tolist(),
    }
    _emit(args, payload, rows, ["measure", "mean", "low", "high"])


def cmd_curve(args: argparse.Namespace) -> None:
    from . import evaluation

    config = _train_config(args)
    measures = _measures(args.measure, evaluation.DEFAULT_MEASURES)
    gold = corpus.load_gold(_single(args.input, "--input"))
    curve = evaluation.learning_curve(gold, args.variant, config, args.step, args.k, measures, min_df=args.min_df)
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
    _emit(args, payload, rows, ["prefix_size", "measure", "mean", "low", "high"])


def cmd_compare(args: argparse.Namespace) -> None:
    if len(args.input) < 2:
        raise UsageError("compare needs at least two dataset files")
    from . import evaluation, ranking

    measure = agr.Measure(_single(args.measure, "--measure")) if args.measure else agr.Measure.ALPHA_INTERVAL
    config = _train_config(args)
    names = _dataset_names(args.input)
    variants = _VARIANT_CHOICES
    prepared = [evaluation.prepare(corpus.load_gold(path), min_df=args.min_df) for path in args.input]
    results = evaluation._cross_validate(prepared, variants, config, args.k, (measure,))
    scores = [[result.summaries[measure].mean for result in row] for row in results]
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are :class:`UsageError`, so a
    misused flag ends in the same one-line error as every other fault."""

    def error(self, message: str) -> NoReturn:
        raise UsageError(message)


def _int_at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a non-integer as "invalid int value: ..."
    return parse


#: Every option of a subcommand, by flag.
_OPTIONS = {
    "--input": dict(action="append", required=True, metavar="FILE",
                    help="input file (agreement, ordering and compare take several)"),
    "--out": dict(default="-", metavar="FILE", help="output path ('-' = stdout)"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--seed": dict(type=_int_at_least(0), default=0),
    "--exclude": dict(action="append", metavar="DATASET",
                      help="dataset name to leave out of the average row (repeatable)"),
    "--variant": dict(choices=_VARIANT_CHOICES, default="TwoPlaneSVM"),
    "--min-df": dict(type=_int_at_least(1), default=5, dest="min_df"),
    "--cost": dict(type=float, default=1.0),
    "--bins": dict(type=int, default=10),
    "--k": dict(type=_int_at_least(2), default=10),
    "--step": dict(type=_int_at_least(1), default=10000),
    "--measure": dict(action="append", choices=_MEASURE_CHOICES),
}

#: Subcommand -> its function, its help line and the options it reads, no other.
_COMMANDS = {
    "agreement": (cmd_agreement, "agreement measures with bootstrap intervals",
                  "--input --out --format --seed --measure"),
    "ordering": (cmd_ordering, "ordinal-scale diagnostics per dataset", "--input --out --format --exclude"),
    "merge": (cmd_merge, "merge multiple annotations into a gold corpus", "--input --out"),
    "train": (cmd_train, "train a sentiment model on a gold corpus",
              "--input --out --seed --variant --min-df --cost --bins"),
    "crossval": (cmd_crossval, "blocked stratified cross-validation",
                 "--input --out --format --seed --variant --min-df --cost --bins --k --measure"),
    "curve": (cmd_curve, "learning curve over time-ordered prefixes",
              "--input --out --format --seed --variant --min-df --cost --bins --k --step --measure"),
    "compare": (cmd_compare, "rank all variants across datasets",
                "--input --out --format --seed --min-df --cost --bins --k --measure"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sentagree",
        description="Agreement measurement and ordinal sentiment classification toolkit.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_line, flags) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_line)
        for flag in flags.split():
            sub.add_argument(flag, **_OPTIONS[flag])
        sub.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command in ("merge", "train") and args.out == "-":
            raise UsageError(f"{args.command} writes files and needs --out FILE, not '-'")
        args.input = [_resolve(path) for path in args.input]
        out = Path(args.out)
        if args.out != "-" and out.exists() and any(path.exists() and out.samefile(path) for path in args.input):
            raise UsageError(f"--out would write {out}, which is the --input file")
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
