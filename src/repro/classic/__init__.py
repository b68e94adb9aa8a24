"""Classic (database-resident) mining substrate.

These algorithms operate on *materialized* transaction databases. The
crowd-mining core never scans a database — personal databases are
virtual — but needs this substrate for ground truth, baselines and
synthetic-population construction. One frequent-itemset miner
(:mod:`repro.classic.itemsets`) serves all of them.
"""

from repro.classic.interestingness import (
    MissingSupportError,
    ScoredRule,
    filter_redundant,
    rank_rules,
    score_rules,
)
from repro.classic.itemsets import frequent_itemsets
from repro.classic.maximal import closed_itemsets, maximal_itemsets
from repro.classic.rulegen import mine_rules, rules_from_itemsets

__all__ = [
    "MissingSupportError",
    "ScoredRule",
    "closed_itemsets",
    "filter_redundant",
    "frequent_itemsets",
    "maximal_itemsets",
    "rank_rules",
    "score_rules",
    "mine_rules",
    "rules_from_itemsets",
]
