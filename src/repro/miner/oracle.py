"""Ground-truth oracle: the exact answer the miner is trying to find.

Evaluation needs the *true* set of significant rules — the rules whose
exact crowd-mean support and confidence (computed from the materialized
personal databases, which the miner itself never sees) clear the query
thresholds. This module computes that set exhaustively:

1. **Candidate bodies.** A rule can only be significant if its body's
   crowd-mean support clears ``θ_s``. When all personal databases have
   equal size (the builders guarantee this), crowd-mean support equals
   support in the concatenation of all databases, so the bitset
   itemset miner (:mod:`repro.classic.itemsets`) over the union
   enumerates every candidate body exactly. Unequal sizes fall back to
   mining with a safety margin and filtering by the exact mean.
2. **Splits.** For each candidate body, every antecedent/consequent
   split is scored by its exact crowd-mean confidence (support is
   split-invariant), and the splits clearing ``θ_c`` are the
   significant rules.

The oracle is exponential in the body-size cap, which is why the cap
exists (habit rules are short; the open-answer policy uses the same
default cap, keeping miner and oracle aligned).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.classic.itemsets import frequent_itemsets
from repro.core.itemset import Itemset
from repro.core.measures import RuleStats
from repro.core.rule import Rule
from repro.estimation.significance import Thresholds
from repro.synth.population import Population


@dataclass(frozen=True, slots=True)
class GroundTruth:
    """The exact significant-rule set of a population.

    ``stats`` maps every *candidate* rule that was scored to its exact
    crowd-mean stats; ``significant`` is the subset clearing both
    thresholds.
    """

    thresholds: Thresholds
    significant: frozenset[Rule]
    stats: dict[Rule, RuleStats] = field(hash=False)

    def __contains__(self, rule: Rule) -> bool:
        return rule in self.significant

    def __len__(self) -> int:
        return len(self.significant)

    def is_significant(self, rule: Rule) -> bool:
        """True when ``rule`` is truly significant."""
        return rule in self.significant


def _mean_confidences(
    population: Population, body: Itemset, body_counts: list[int]
) -> dict[Rule, float]:
    """Exact mean confidence of every split of ``body``.

    ``body_counts`` holds, per member, the number of transactions
    containing the body (precomputed by the caller).
    """
    result: dict[Rule, float] = {}
    members = population.members
    for antecedent in body.subsets(proper=True):
        if not antecedent:
            continue
        consequent = body - antecedent
        confidences = []
        for member, body_count in zip(members, body_counts):
            if body_count == 0:
                confidences.append(0.0)
                continue
            antecedent_count = member.db.count(antecedent)
            confidences.append(body_count / antecedent_count if antecedent_count else 0.0)
        result[Rule(antecedent, consequent)] = float(np.mean(confidences))
    return result


def compute_ground_truth(
    population: Population,
    thresholds: Thresholds,
    max_body_size: int = 4,
    include_itemset_rules: bool = False,
    margin: float = 0.75,
) -> GroundTruth:
    """Compute the exact significant-rule set of ``population``.

    Parameters
    ----------
    population:
        The crowd's materialized truth.
    thresholds:
        The query thresholds ``(θ_s, θ_c)``.
    max_body_size:
        Cap on rule body size — must cover the longest rule the miner
        can report (the open-answer policy's ``max_body_size``).
    include_itemset_rules:
        Also score degenerate ``∅ → body`` rules.
    margin:
        Safety factor applied to the union-mining threshold when
        personal databases have unequal sizes (mean support and union
        support then differ; candidates are over-generated and filtered
        by the exact mean).
    """
    union = population.union_db()
    mining_threshold = thresholds.support
    if not population.equal_sized:
        mining_threshold = max(1.0 / len(union), thresholds.support * margin)
    candidates = frequent_itemsets(union, mining_threshold, max_size=max_body_size)

    stats: dict[Rule, RuleStats] = {}
    significant: set[Rule] = set()
    for body in candidates:
        if len(body) < 2 and not include_itemset_rules:
            continue
        body_counts = [member.db.count(body) for member in population.members]
        sizes = [len(member.db) for member in population.members]
        mean_support = float(
            np.mean([c / s if s else 0.0 for c, s in zip(body_counts, sizes)])
        )
        if mean_support < thresholds.support:
            continue
        if include_itemset_rules:
            rule = Rule.itemset_rule(body)
            stats[rule] = RuleStats(mean_support, mean_support)
            if mean_support >= thresholds.confidence:
                significant.add(rule)
        if len(body) >= 2:
            for rule, mean_conf in _mean_confidences(
                population, body, body_counts
            ).items():
                mean_conf = max(mean_conf, mean_support)
                stats[rule] = RuleStats(mean_support, min(1.0, mean_conf))
                if mean_conf >= thresholds.confidence:
                    significant.add(rule)
    return GroundTruth(
        thresholds=thresholds,
        significant=frozenset(significant),
        stats=stats,
    )
