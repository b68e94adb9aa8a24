"""Rule quality measures.

The crowd-mining significance test operates on the pair
``(support, confidence)`` — the same two measures a crowd member's
answer reports. :class:`RuleStats` is that pair as a small immutable
value object, plus derived measures (lift, leverage, conviction) that
the library exposes for downstream analysis of mined rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro._util import check_fraction


@dataclass(frozen=True, slots=True)
class RuleStats:
    """Support and confidence of a rule, both in ``[0, 1]``.

    ``support`` is the frequency of the rule body (antecedent ∪
    consequent); ``confidence`` is the conditional frequency of the
    consequent given the antecedent. For itemset rules (empty
    antecedent) the two coincide.
    """

    support: float
    confidence: float

    def __post_init__(self) -> None:
        check_fraction(self.support, "support")
        check_fraction(self.confidence, "confidence")
        if self.support > self.confidence + 1e-12:
            # supp(A∪B) ≤ supp(A) always, hence confidence ≥ support.
            raise ValueError(
                f"support ({self.support}) cannot exceed confidence ({self.confidence})"
            )

    def __reduce__(self) -> tuple:
        # Positional: the slots dataclass default reflects over
        # ``fields()`` per object, and a checkpoint pickles every answer.
        # Loading re-runs the validation above.
        return RuleStats, (self.support, self.confidence)

    @property
    def antecedent_support(self) -> float:
        """Implied ``supp(A) = support / confidence`` (1.0 when confidence is 0)."""
        if self.confidence == 0.0:
            return 0.0 if self.support == 0.0 else 1.0
        return min(1.0, self.support / self.confidence)

    def as_tuple(self) -> tuple[float, float]:
        """``(support, confidence)`` as a plain tuple (for numpy interop)."""
        return (self.support, self.confidence)

    def meets(self, support_threshold: float, confidence_threshold: float) -> bool:
        """True when both components clear the given thresholds."""
        return self.support >= support_threshold and self.confidence >= confidence_threshold

    def __str__(self) -> str:
        return f"(s={self.support:.3f}, c={self.confidence:.3f})"


def lift(rule_support: float, antecedent_support: float, consequent_support: float) -> float:
    """Lift of a rule: ``supp(A∪B) / (supp(A) · supp(B))``.

    Returns ``inf`` when either marginal support is zero but the joint
    is positive (a degenerate but representable situation in noisy
    crowd estimates), and ``0.0`` when the joint support is zero.
    """
    check_fraction(rule_support, "rule_support")
    check_fraction(antecedent_support, "antecedent_support")
    check_fraction(consequent_support, "consequent_support")
    if rule_support == 0.0:
        return 0.0
    denominator = antecedent_support * consequent_support
    if denominator == 0.0:
        return math.inf
    return rule_support / denominator


def leverage(
    rule_support: float, antecedent_support: float, consequent_support: float
) -> float:
    """Leverage: ``supp(A∪B) − supp(A) · supp(B)``.

    Lies in ``[−0.25, 1]`` for probabilistically consistent inputs
    (``max(0, supp(A)+supp(B)−1) ≤ supp(A∪B) ≤ min(supp(A), supp(B))``).
    """
    check_fraction(rule_support, "rule_support")
    check_fraction(antecedent_support, "antecedent_support")
    check_fraction(consequent_support, "consequent_support")
    return rule_support - antecedent_support * consequent_support


def conviction(confidence: float, consequent_support: float) -> float:
    """Conviction: ``(1 − supp(B)) / (1 − conf)``; ``inf`` for conf = 1."""
    check_fraction(confidence, "confidence")
    check_fraction(consequent_support, "consequent_support")
    if confidence >= 1.0:
        return math.inf
    return (1.0 - consequent_support) / (1.0 - confidence)
