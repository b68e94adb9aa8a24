"""Tests for interestingness ranking and redundancy filtering."""

import math

import pytest

from repro.classic import (
    MissingSupportError,
    filter_redundant,
    frequent_itemsets,
    rank_rules,
    rules_from_itemsets,
    score_rules,
)
from repro.core import Itemset, Rule, RuleStats


@pytest.fixture
def world():
    supports = {
        Itemset(["a"]): 0.5,
        Itemset(["b"]): 0.4,
        Itemset(["c"]): 0.5,
        Itemset(["a", "b"]): 0.4,  # perfectly correlated with b
        Itemset(["a", "c"]): 0.25,  # independent
    }
    rules = {
        Rule(["a"], ["b"]): RuleStats(0.4, 0.8),
        Rule(["b"], ["a"]): RuleStats(0.4, 1.0),
        Rule(["a"], ["c"]): RuleStats(0.25, 0.5),
    }
    return rules, supports


class TestScoreRules:
    def test_lift_values(self, world):
        rules, supports = world
        scored = {s.rule: s for s in score_rules(rules, supports)}
        assert scored[Rule(["a"], ["b"])].lift == pytest.approx(0.4 / (0.5 * 0.4))
        assert scored[Rule(["a"], ["c"])].lift == pytest.approx(1.0)

    def test_leverage_values(self, world):
        rules, supports = world
        scored = {s.rule: s for s in score_rules(rules, supports)}
        assert scored[Rule(["a"], ["c"])].leverage == pytest.approx(0.0)
        assert scored[Rule(["a"], ["b"])].leverage == pytest.approx(0.2)

    def test_conviction_exact_rule_infinite(self, world):
        rules, supports = world
        scored = {s.rule: s for s in score_rules(rules, supports)}
        assert math.isinf(scored[Rule(["b"], ["a"])].conviction)

    def test_missing_support_raises(self):
        rules = {Rule(["x"], ["y"]): RuleStats(0.2, 0.5)}
        with pytest.raises(MissingSupportError):
            score_rules(rules, {})

    def test_measure_lookup(self, world):
        rules, supports = world
        scored = score_rules(rules, supports)[0]
        assert scored.measure("support") == scored.stats.support
        with pytest.raises(ValueError):
            scored.measure("beauty")


class TestRankRules:
    def test_ranks_by_lift(self, world):
        rules, supports = world
        ranked = rank_rules(rules, supports, by="lift")
        lifts = [r.lift for r in ranked]
        finite = [v for v in lifts if not math.isinf(v)]
        assert finite == sorted(finite, reverse=True)

    def test_infinite_values_first(self, world):
        rules, supports = world
        ranked = rank_rules(rules, supports, by="conviction")
        assert math.isinf(ranked[0].conviction)

    def test_top_k(self, world):
        rules, supports = world
        assert len(rank_rules(rules, supports, top=2)) == 2

    def test_integration_with_miner(self, tiny_db):
        supports = frequent_itemsets(tiny_db, 0.15)
        rules = rules_from_itemsets(supports, 0.4)
        ranked = rank_rules(rules, supports, by="leverage")
        assert len(ranked) == len(rules)


class TestFilterRedundant:
    def test_longer_rule_without_improvement_dropped(self):
        rules = {
            Rule(["a"], ["c"]): RuleStats(0.4, 0.8),
            Rule(["a", "b"], ["c"]): RuleStats(0.2, 0.8),  # same conf, longer
        }
        kept = filter_redundant(rules)
        assert set(kept) == {Rule(["a"], ["c"])}

    def test_improving_specialization_kept(self):
        rules = {
            Rule(["a"], ["c"]): RuleStats(0.4, 0.6),
            Rule(["a", "b"], ["c"]): RuleStats(0.2, 0.95),
        }
        kept = filter_redundant(rules)
        assert set(kept) == set(rules)

    def test_min_improvement_threshold(self):
        rules = {
            Rule(["a"], ["c"]): RuleStats(0.4, 0.6),
            Rule(["a", "b"], ["c"]): RuleStats(0.2, 0.65),
        }
        assert len(filter_redundant(rules, min_improvement=0.1)) == 1
        assert len(filter_redundant(rules, min_improvement=0.01)) == 2

    def test_different_consequents_never_compared(self):
        rules = {
            Rule(["a"], ["c"]): RuleStats(0.4, 0.9),
            Rule(["a", "b"], ["d"]): RuleStats(0.2, 0.5),
        }
        assert len(filter_redundant(rules)) == 2

    def test_negative_improvement_rejected(self):
        with pytest.raises(ValueError):
            filter_redundant({}, min_improvement=-0.1)
