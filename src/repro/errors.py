"""Exception hierarchy for the ``repro`` crowd-mining library.

Every error raised deliberately by the library derives from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` from
misuse of the Python API, etc.) propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class InvalidItemError(ReproError):
    """An item is not part of the active :class:`~repro.core.items.ItemDomain`."""


class InvalidRuleError(ReproError):
    """A rule violates a structural constraint.

    Raised, e.g., when antecedent and consequent overlap or when the
    consequent is empty.
    """


class InvalidThresholdError(ReproError, ValueError):
    """A threshold or size parameter is outside its valid range.

    Supports and confidences outside ``[0, 1]``, negative rates, sizes
    that are not positive integers. Also a :class:`ValueError`, the
    builtin for a parameter of the right type but a wrong value.
    """


class EmptyDatabaseError(ReproError):
    """An operation requires a non-empty transaction database."""


class BudgetExhaustedError(ReproError):
    """The mining session ran out of question budget."""


class NoQuestionAvailableError(ReproError):
    """A question-selection strategy could not produce a question.

    This happens when every known rule is already classified with
    sufficient confidence and open questions are disabled.
    """


class CrowdExhaustedError(ReproError):
    """No crowd member is available (or willing) to answer a question."""


class ConfigurationError(ReproError):
    """An experiment or component configuration is inconsistent."""


class EstimationError(ReproError):
    """A statistical estimate was requested from insufficient data."""
