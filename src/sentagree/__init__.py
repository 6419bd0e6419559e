"""sentagree: agreement measurement and ordinal sentiment classification.

The package covers the full pipeline for multiply-annotated short
texts: corpus ingestion and pair extraction, chance-corrected agreement
measures with bootstrap intervals, gold-standard merging, tweet-aware
text features, six linear-SVM/Bayes classifier variants over the
three-point sentiment scale, blocked stratified cross-validation with
learning curves, and Friedman/Nemenyi ranking of classifiers across
datasets.

The namespace is lazy (PEP 562): ``import sentagree`` loads no
submodule, and a public name or submodule loads its submodule on first
access.  So ``agreement``, ``ordering`` and ``merge`` never load the
classifier stack (``classify``, ``features``, ``evaluation`` and
``ranking``).
"""

__version__ = "0.1.0"

#: Submodule -> the public names it provides: the one list of them, which each submodule's ``__all__`` reads.
_EXPORTS = {
    "agreement": """CoincidenceMatrix ConfidenceInterval Measure OrderingDiagnostics bootstrap_ci
        build_coincidence compute_measure ordering_diagnostics sentiment_score""",
    "classify": """LinearModel SentimentModel TrainConfig Variant load_model predict predict_batch save_model
        train_binary train_sentiment""",
    "cli": "",
    "corpus": """AnnotationRecord GoldPost GoldTable PairKind SentimentLabel extract_pairs
        load_annotations load_gold merge_gold save_gold time_ordered_chunks""",
    "errors": """CorpusFormatError EvaluationError FoldPlanError ModelFormatError SentagreeError
        UndefinedMeasureError VocabularyError""",
    "evaluation": """DEFAULT_MEASURES CrossValResult CurvePoint FoldPlan LearningCurve cross_validate
        learning_curve plan_folds prepare score_predictions""",
    "features": """CountRows Vocabulary count_vector delta_weights english_suffix_stem normalize
        vocabulary_from_token_docs""",
    "ranking": "RankReport RankSummary ScoreTable compare_ranks friedman nemenyi_cd",
}

#: Each public name, and each submodule name, -> the submodule that holds it.
_ORIGIN = {
    **{module: module for module in _EXPORTS},
    **{name: module for module, names in _EXPORTS.items() for name in names.split()},
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names.split())


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # an import statement's path, which -X importtime logs (importlib.import_module's is not);
    # importing a submodule binds it as a global of this package
    __import__(f"{__name__}.{module}")
    value = globals()[module]
    if name != module:
        value = getattr(value, name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_ORIGIN))
