"""Exception hierarchy shared across the package.

Every error raised by the library carries a short machine-readable
``code`` so that command-line wrappers can emit a single parsable
diagnostic line without inspecting exception types.  The one rule for
integer arguments, :func:`_check_count`, lives here too, so that every
module can apply it without importing another.
"""

from __future__ import annotations

from numbers import Integral

from . import _EXPORTS

__all__ = _EXPORTS["errors"].split()


class SentagreeError(ValueError):
    """Base class for all library errors."""

    code = "error"


class CorpusFormatError(SentagreeError):
    """An annotation or gold file violates the expected tabular format."""

    code = "corpus-format"


class UndefinedMeasureError(SentagreeError):
    """A reliability or performance measure is undefined on the given data."""

    code = "undefined-measure"


class VocabularyError(SentagreeError):
    """A vocabulary is empty, malformed, or inconsistent with its user."""

    code = "vocabulary"


class ModelFormatError(SentagreeError):
    """A serialized model is malformed or references a different vocabulary."""

    code = "model-format"


class FoldPlanError(SentagreeError):
    """A cross-validation split cannot be constructed for the given corpus."""

    code = "fold-plan"


class EvaluationError(SentagreeError):
    """Training or scoring failed while evaluating a classifier."""

    code = "evaluation"


def _is_integer(value: object) -> bool:
    """Whether ``value`` is an integer, Python's or numpy's; a bool is not one."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _check_count(name: str, value: object, least: int, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` for a ``value`` that is not an integer or is below ``least``."""
    if not _is_integer(value) or value < least:
        kind = {0: "a non-negative integer", 1: "a positive integer"}.get(least, f"an integer at least {least}")
        raise error(f"{name} must be {kind}, got {value!r}")
