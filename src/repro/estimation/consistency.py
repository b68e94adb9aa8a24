"""Within-member consistency checking (spammer screening).

The papers point out a cheap, crowd-mining-specific quality signal:
support is antitone along the rule lattice, so a member who reports a
*higher* support for a more specific rule than for its generalization
is inconsistent with any possible personal database. Honest-but-noisy
members violate this only slightly; spammers violate it wildly.

:class:`ConsistencyChecker` accumulates every member's reported
supports (one float per answered rule, the only part of an answer the
check reads), scores the monotonicity violations between comparable
rule pairs, and exposes trust weights (1 for perfectly consistent
members, decaying with violation magnitude) suitable for
:class:`~repro.estimation.aggregate.WeightedAggregator`.

Comparability is judged on rule *bodies*: a rule's support depends only
on ``antecedent ∪ consequent``, so any two answered rules whose bodies
are subset-ordered give a checkable support pair — a much denser test
than full rule-generalization comparability, which matters because each
member only ever answers a handful of questions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.measures import RuleStats
from repro.core.rule import Rule


@dataclass(slots=True)
class MemberRecord:
    """One member's answer history and violation tally.

    ``answers`` maps each rule the member answered to the support they
    reported: support is all the monotonicity check compares.
    """

    answers: dict[Rule, float] = field(default_factory=dict)
    violation_total: float = 0.0
    comparable_pairs: int = 0

    @property
    def mean_violation(self) -> float:
        """Average violation magnitude over comparable pairs (0 if none)."""
        if self.comparable_pairs == 0:
            return 0.0
        return self.violation_total / self.comparable_pairs


class ConsistencyChecker:
    """Trust scoring from support-monotonicity violations.

    Parameters
    ----------
    tolerance:
        *Mean* violation forgiven entirely. Honest members violate
        rarely and mildly (noise and Likert coarsening on borderline
        pairs), so their mean stays small even though an individual
        violation can reach a grid step; random answerers violate on
        roughly half of comparable pairs.
    severity:
        How fast trust decays past the tolerance; trust is
        ``1 / (1 + severity · excess)`` where ``excess`` is the mean
        violation beyond tolerance.
    """

    def __init__(self, tolerance: float = 0.05, severity: float = 20.0) -> None:
        if tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        if severity < 0:
            raise ValueError("severity must be non-negative")
        self.tolerance = float(tolerance)
        self.severity = float(severity)
        self._members: dict[str, MemberRecord] = {}
        #: Monotonic change counter: any recorded answer may move some
        #: member's mean violation, hence their trust weight — consumers
        #: caching trust-weighted aggregates key on this.
        self.version = 0

    def record(self, member_id: str, rule: Rule, stats: RuleStats) -> None:
        """Record one answer and update the member's violation tally.

        The new answer is compared against every *comparable* rule the
        member answered before: for ``general ⪯ specific``, reported
        ``supp(specific) − supp(general)`` above zero is a violation.
        """
        self.version += 1
        record = self._members.setdefault(member_id, MemberRecord())
        body = rule.body
        support = stats.support
        for other_rule, other_support in record.answers.items():
            other_body = other_rule.body
            if body < other_body:
                general_support, specific_support = support, other_support
            elif other_body < body:
                general_support, specific_support = other_support, support
            elif body == other_body and other_rule != rule:
                # Equal bodies must report equal supports (any split of
                # the same body has the same support); score the gap.
                record.comparable_pairs += 1
                record.violation_total += abs(support - other_support)
                continue
            else:
                continue
            record.comparable_pairs += 1
            violation = max(0.0, specific_support - general_support)
            record.violation_total += violation
        # Revised answers replace the old observation.
        record.answers[rule] = support

    def violation_score(self, member_id: str) -> float:
        """Mean violation magnitude for the member (0 when unknown)."""
        record = self._members.get(member_id)
        return 0.0 if record is None else record.mean_violation

    def trust(self, member_id: str) -> float:
        """Trust weight in ``(0, 1]``; 1 means no evidence of spamming."""
        excess = max(0.0, self.violation_score(member_id) - self.tolerance)
        return 1.0 / (1.0 + self.severity * excess)

    def trust_weights(self) -> dict[str, float]:
        """Trust weights for every member seen so far."""
        return {member_id: self.trust(member_id) for member_id in self._members}

    def flagged(self, threshold: float = 0.5) -> list[str]:
        """Members whose trust fell below ``threshold`` (likely spammers)."""
        return sorted(
            member_id
            for member_id in self._members
            if self.trust(member_id) < threshold
        )
