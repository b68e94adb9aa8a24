"""Association-rule generation from frequent itemsets.

Splits each frequent itemset into antecedent/consequent pairs and keeps
the rules whose confidence clears a threshold — the second phase of
classic association-rule mining (Agrawal & Srikant, VLDB 1994). The
confidence-based pruning uses the standard fact that for a fixed
itemset, moving items from the antecedent to the consequent can only
lower confidence.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro._util import check_fraction
from repro.classic.itemsets import frequent_itemsets
from repro.core.itemset import Itemset
from repro.core.measures import RuleStats
from repro.core.rule import Rule


def rules_from_itemsets(
    supports: Mapping[Itemset, float],
    min_confidence: float,
    include_itemset_rules: bool = False,
) -> dict[Rule, RuleStats]:
    """Generate all confident rules from a frequent-itemset table.

    Parameters
    ----------
    supports:
        Mapping from frequent itemsets to their supports, as produced
        by :func:`~repro.classic.itemsets.frequent_itemsets`. Must be
        downward closed (every subset of a listed itemset listed too),
        which the miner guarantees.
    min_confidence:
        Confidence threshold in ``[0, 1]``.
    include_itemset_rules:
        When true, also emit the degenerate ``∅ → itemset`` rule for
        every frequent itemset (confidence = support).

    Returns
    -------
    dict
        Mapping from each rule to its :class:`RuleStats`. Rules are
        generated only from itemsets of size ≥ 2 (plus the degenerate
        rules when requested).
    """
    check_fraction(min_confidence, "min_confidence")
    result: dict[Rule, RuleStats] = {}
    for itemset, support in supports.items():
        if include_itemset_rules:
            rule = Rule.itemset_rule(itemset)
            stats = RuleStats(support, support)
            if stats.confidence >= min_confidence:
                result[rule] = stats
        if len(itemset) < 2:
            continue
        for antecedent in itemset.subsets(proper=True):
            if not antecedent:
                continue
            consequent = itemset - antecedent
            antecedent_support = supports.get(antecedent)
            if antecedent_support is None or antecedent_support <= 0.0:
                # Not downward closed for this subset: skip rather than
                # fabricate a confidence.
                continue
            confidence = min(1.0, support / antecedent_support)
            if confidence >= min_confidence:
                result[Rule(antecedent, consequent)] = RuleStats(support, confidence)
    return result


def mine_rules(
    db,
    min_support: float,
    min_confidence: float,
    max_size: int | None = None,
) -> dict[Rule, RuleStats]:
    """End-to-end classic rule mining over a materialized database.

    A convenience front-end combining
    :func:`~repro.classic.itemsets.frequent_itemsets` with
    :func:`rules_from_itemsets`.

    Parameters
    ----------
    db:
        A :class:`~repro.core.transactions.TransactionDB`.
    min_support, min_confidence:
        The usual thresholds.
    max_size:
        Optional cap on rule body size.
    """
    supports = frequent_itemsets(db, min_support, max_size=max_size)
    return rules_from_itemsets(supports, min_confidence)
