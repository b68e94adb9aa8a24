"""Tests for rule generation from frequent itemsets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classic import frequent_itemsets, mine_rules, rules_from_itemsets
from repro.core import Itemset, Rule, RuleStats, TransactionDB
from tests.classic import fpgrowth_reference

random_dbs = st.lists(
    st.lists(st.sampled_from(list("abcde")), max_size=4),
    min_size=1,
    max_size=30,
).map(TransactionDB)


class TestRulesFromItemsets:
    def test_simple_pair(self):
        supports = {
            Itemset(["a"]): 0.8,
            Itemset(["b"]): 0.5,
            Itemset(["a", "b"]): 0.4,
        }
        rules = rules_from_itemsets(supports, min_confidence=0.5)
        assert rules[Rule(["a"], ["b"])] == RuleStats(0.4, 0.5)
        assert rules[Rule(["b"], ["a"])] == RuleStats(0.4, 0.8)

    def test_confidence_threshold_filters(self):
        supports = {
            Itemset(["a"]): 0.8,
            Itemset(["b"]): 0.5,
            Itemset(["a", "b"]): 0.4,
        }
        rules = rules_from_itemsets(supports, min_confidence=0.6)
        assert Rule(["a"], ["b"]) not in rules  # conf 0.5 < 0.6
        assert Rule(["b"], ["a"]) in rules  # conf 0.8

    def test_singletons_yield_no_rules_by_default(self):
        rules = rules_from_itemsets({Itemset(["a"]): 0.5}, 0.0)
        assert rules == {}

    def test_itemset_rules_option(self):
        rules = rules_from_itemsets(
            {Itemset(["a"]): 0.5}, 0.3, include_itemset_rules=True
        )
        assert rules[Rule.itemset_rule(["a"])] == RuleStats(0.5, 0.5)

    def test_missing_subset_skipped_not_fabricated(self):
        # Not downward closed: {a} absent → no rule with antecedent {a}.
        supports = {Itemset(["a", "b"]): 0.4, Itemset(["b"]): 0.5}
        rules = rules_from_itemsets(supports, 0.0)
        assert Rule(["a"], ["b"]) not in rules
        assert Rule(["b"], ["a"]) in rules

    def test_three_item_bodies_generate_all_splits(self):
        supports = {
            Itemset(s): 0.5
            for s in (["a"], ["b"], ["c"], ["a", "b"], ["a", "c"], ["b", "c"],
                      ["a", "b", "c"])
        }
        rules = rules_from_itemsets(supports, 0.0)
        three_body = [r for r in rules if len(r.body) == 3]
        assert len(three_body) == 6  # 2^3 − 2 splits


class TestMineRules:
    def test_algorithms_agree(self, tiny_db):
        # The miner and the FP-Growth reference yield the same rules.
        reference = fpgrowth_reference.frequent_itemsets(tiny_db, 0.15)
        assert mine_rules(tiny_db, 0.15, 0.5) == rules_from_itemsets(reference, 0.5)

    def test_stats_match_database(self, tiny_db):
        rules = mine_rules(tiny_db, 0.15, 0.3)
        for rule, stats in rules.items():
            exact = tiny_db.rule_stats(rule)
            assert stats.support == pytest.approx(exact.support)
            assert stats.confidence == pytest.approx(exact.confidence)

    @settings(max_examples=30, deadline=None)
    @given(random_dbs)
    def test_all_rules_meet_thresholds(self, db):
        rules = mine_rules(db, 0.2, 0.6)
        for stats in rules.values():
            assert stats.support >= 0.2 - 1e-9
            assert stats.confidence >= 0.6 - 1e-9

    @settings(max_examples=30, deadline=None)
    @given(random_dbs)
    def test_rule_support_consistency(self, db):
        # Every generated rule's support equals its body's support.
        supports = frequent_itemsets(db, 0.2)
        rules = rules_from_itemsets(supports, 0.5)
        for rule, stats in rules.items():
            assert stats.support == pytest.approx(supports[rule.body])
