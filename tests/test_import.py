"""What a fresh interpreter loads, and the lazy package namespace.

``import sentagree`` loads no submodule.  ``agreement``, ``ordering`` and
``merge`` load only ``corpus`` and ``agreement`` (with ``errors``), never
the classifier stack or scipy; the training commands load the modules
they run, and only ``compare``'s ranking loads scipy, never
``scipy.stats``.  Training across processes forks without
``multiprocessing``, which no command loads.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sentagree
from sentagree import corpus

from conftest import separable_corpus

#: The public names, grouped by the submodule that defines them.
PUBLIC = {
    "agreement": ["CoincidenceMatrix", "ConfidenceInterval", "Measure", "OrderingDiagnostics", "bootstrap_ci",
                  "build_coincidence", "compute_measure", "ordering_diagnostics", "sentiment_score"],
    "classify": ["LinearModel", "SentimentModel", "TrainConfig", "Variant", "load_model", "predict", "predict_batch",
                 "save_model", "train_binary", "train_sentiment"],
    "corpus": ["AnnotationRecord", "GoldPost", "GoldTable", "LabelPair", "PairKind", "SentimentLabel", "extract_pairs",
               "load_annotations", "load_gold", "merge_gold", "save_gold", "time_ordered_chunks"],
    "errors": ["CorpusFormatError", "EvaluationError", "FoldPlanError", "ModelFormatError", "SentagreeError",
               "UndefinedMeasureError", "VocabularyError"],
    "evaluation": ["DEFAULT_MEASURES", "CrossValResult", "CurvePoint", "FoldPlan", "LearningCurve", "cross_validate",
                   "learning_curve", "plan_folds", "prepare", "score_predictions"],
    "features": ["CountRows", "Vocabulary", "count_vector", "delta_weights", "english_suffix_stem", "normalize",
                 "vocabulary_from_token_docs"],
    "ranking": ["RankReport", "RankSummary", "ScoreTable", "compare_ranks", "friedman", "nemenyi_cd"],
}
SUBMODULES = ["agreement", "classify", "cli", "corpus", "errors", "evaluation", "features", "ranking"]
CLASSIFIER_STACK = ["sentagree.classify", "sentagree.evaluation", "sentagree.features", "sentagree.ranking"]

PROBE = """
import json, sys
table, gold, out = sys.argv[1:]
heavy = {heavy!r}

def loaded():
    return sorted(m for m in sys.modules if m in heavy or m.split(".")[0] in ("scipy", "multiprocessing"))

stages = {{}}
import sentagree
stages["package"] = sorted(m for m in sys.modules if m.startswith("sentagree"))
import sentagree.cli
stages["cli"] = loaded()
for argv in (["agreement", "--input", table], ["ordering", "--input", table], ["merge", "--input", table, "--out", out]):
    assert sentagree.cli.main(argv) == 0, argv
stages["table commands"] = loaded()
assert sentagree.cli.main(["crossval", "--input", gold, "--k", "3", "--variant", "NaiveBayes"]) == 0
stages["crossval NaiveBayes"] = loaded()
assert sentagree.cli.main(["crossval", "--input", gold, "--k", "3"]) == 0
stages["crossval"] = loaded()
from sentagree import ranking
table = ranking.ScoreTable([[0.9, 0.5, 0.5], [0.7, 0.8, 0.1]], ("d1", "d2"), ("a", "b", "c"))
summary = ranking.friedman(table)
stages["friedman"] = loaded()
print(json.dumps({{"stages": stages, "p_value": summary.p_value}}))
""".format(heavy=CLASSIFIER_STACK)


def test_cli_import_loads_no_scipy_and_friedman_no_scipy_stats(annotations_csv, tmp_path) -> None:
    gold = tmp_path / "gold.csv"
    corpus.save_gold(separable_corpus(45, seed=5), gold)
    source_root = str(Path(sentagree.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", PROBE, str(annotations_csv), str(gold), str(tmp_path / "merged.csv")],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    probe = json.loads(result.stdout.splitlines()[-1])
    stages = probe["stages"]
    assert stages["package"] == ["sentagree"]
    assert stages["cli"] == stages["table commands"] == []
    # cross-validation runs no ranking; only compare does
    assert stages["crossval NaiveBayes"] == stages["crossval"] == CLASSIFIER_STACK[:3]
    assert "scipy.stats" not in stages["friedman"]
    assert set(CLASSIFIER_STACK) <= set(stages["friedman"]) and "scipy" in stages["friedman"]
    assert 0.0 < probe["p_value"] <= 1.0


def test_all_holds_the_public_names_in_order() -> None:
    names = [name for group in PUBLIC.values() for name in group]
    assert len(names) == len(set(names)) == 61
    assert sentagree.__all__ == sorted(names)


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_public_name_is_its_submodules_object(module) -> None:
    source = importlib.import_module(f"sentagree.{module}")
    for name in PUBLIC[module]:
        assert getattr(sentagree, name) is getattr(source, name), name


def test_star_import_binds_every_public_name() -> None:
    namespace: dict = {}
    exec("from sentagree import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sentagree.__all__


def test_dir_lists_the_public_names_and_submodules() -> None:
    listed = dir(sentagree)
    assert set(sentagree.__all__) | set(SUBMODULES) <= set(listed)
    assert listed == sorted(listed)


def test_submodules_are_attributes_of_the_package() -> None:
    for module in SUBMODULES:
        assert getattr(sentagree, module) is importlib.import_module(f"sentagree.{module}")


def test_an_unknown_name_is_an_attribute_error() -> None:
    with pytest.raises(AttributeError, match="^module 'sentagree' has no attribute 'no_such_name'$"):
        sentagree.no_such_name  # noqa: B018
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from sentagree import no_such_name", {})
