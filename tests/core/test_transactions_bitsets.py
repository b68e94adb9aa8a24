"""The bitset index answers exactly what per-item tid sets answer.

``TransactionDB`` keeps one tid bitset per item. This pins its queries
to a test-local formulation over frozensets of transaction ids, the
index the database kept before: counts, supports, matching ids and item
frequencies must be equal, and rule stats equal as doubles.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Itemset, Rule, RuleStats, TransactionDB
from repro.errors import EmptyDatabaseError

ITEMS = ["a", "b", "c", "d", "a10", "a9", "é", "z"]

rows = st.lists(st.lists(st.sampled_from(ITEMS), max_size=5), max_size=70)
itemsets = st.sets(st.sampled_from(ITEMS + ["absent", "zz"]), max_size=4)


class FrozensetIndex:
    """Item -> frozenset of the ids of the rows holding it."""

    def __init__(self, rows):
        self.rows = [frozenset(row) for row in rows]
        index = {}
        for tid, row in enumerate(self.rows):
            for item in row:
                index.setdefault(item, set()).add(tid)
        self.index = {item: frozenset(tids) for item, tids in index.items()}

    def matching_ids(self, items):
        result = frozenset(range(len(self.rows)))
        for item in items:
            result &= self.index.get(item, frozenset())
        return result

    def count(self, items):
        return len(self.matching_ids(items))

    def rule_stats(self, antecedent, consequent):
        n = len(self.rows)
        body_count = self.count(set(antecedent) | set(consequent))
        support = body_count / n
        if not antecedent:
            return RuleStats(support, support)
        antecedent_count = self.count(antecedent)
        confidence = 0.0 if antecedent_count == 0 else body_count / antecedent_count
        return RuleStats(support, confidence)


def assert_same_answers(db, reference, items):
    assert db.matching_ids(items) == reference.matching_ids(items)
    assert db.count(items) == reference.count(items)
    if len(reference.rows):
        assert db.support(items) == reference.count(items) / len(reference.rows)


def same_doubles(ours, theirs):
    return (ours.support, ours.confidence) == (theirs.support, theirs.confidence)


class TestAgainstFrozensets:
    @settings(max_examples=200, deadline=None)
    @given(rows, itemsets)
    def test_counts_supports_and_ids(self, rows, items):
        db, reference = TransactionDB(rows), FrozensetIndex(rows)
        assert_same_answers(db, reference, items)
        assert_same_answers(db, reference, Itemset(items))

    @settings(max_examples=200, deadline=None)
    @given(rows.filter(len), itemsets, itemsets.filter(len))
    def test_rule_stats(self, rows, antecedent, consequent):
        consequent -= antecedent
        if not consequent:
            return
        db, reference = TransactionDB(rows), FrozensetIndex(rows)
        ours = db.rule_stats(Rule(antecedent, consequent))
        assert same_doubles(ours, reference.rule_stats(antecedent, consequent))

    @settings(max_examples=100, deadline=None)
    @given(rows.filter(len))
    def test_item_frequencies(self, rows):
        db, reference = TransactionDB(rows), FrozensetIndex(rows)
        n = len(reference.rows)
        expected = {item: len(tids) / n for item, tids in reference.index.items()}
        assert db.item_frequencies() == expected

    @settings(max_examples=100, deadline=None)
    @given(rows, itemsets)
    def test_pickle_round_trip_rebuilds_the_index(self, rows, items):
        db = pickle.loads(pickle.dumps(TransactionDB(rows)))
        assert list(db) == FrozensetIndex(rows).rows
        assert_same_answers(db, FrozensetIndex(rows), items)


class TestEdges:
    def test_empty_database(self):
        db, reference = TransactionDB([]), FrozensetIndex([])
        for items in ((), ("a",)):
            assert db.matching_ids(items) == reference.matching_ids(items) == frozenset()
            assert db.count(items) == 0
        with pytest.raises(EmptyDatabaseError):
            db.support(())
        with pytest.raises(EmptyDatabaseError):
            db.rule_stats(Rule(["a"], ["b"]))
        with pytest.raises(EmptyDatabaseError):
            db.item_frequencies()

    def test_empty_itemset_matches_every_row(self):
        db = TransactionDB([["a"], [], ["b", "c"]])
        assert db.matching_ids(Itemset.empty()) == frozenset({0, 1, 2})
        assert db.count(()) == 3
        assert db.support(()) == 1.0

    def test_absent_items_match_nothing(self):
        db = TransactionDB([["a"], ["a", "b"]])
        assert db.matching_ids(["absent"]) == frozenset()
        assert db.count(["a", "absent"]) == 0
        assert same_doubles(db.rule_stats(Rule(["a"], ["absent"])), RuleStats(0.0, 0.0))

    def test_vacuous_antecedent_has_confidence_zero(self):
        db = TransactionDB([["a"], ["b"]])
        stats = db.rule_stats(Rule(["absent"], ["a"]))
        assert same_doubles(stats, RuleStats(0.0, 0.0))
        reference = FrozensetIndex([["a"], ["b"]]).rule_stats({"absent"}, {"a"})
        assert same_doubles(stats, reference)

    def test_itemset_rule_confidence_is_its_support(self):
        db = TransactionDB([["a"], ["a", "b"], ["b"]])
        stats = db.rule_stats(Rule([], ["a"]))
        assert same_doubles(stats, RuleStats(2 / 3, 2 / 3))

    def test_bitsets_list_each_occurring_item(self):
        db = TransactionDB([["a9"], ["a10", "a9"], []])
        assert dict(db.item_bitsets()) == {"a9": 0b011, "a10": 0b010}
        with pytest.raises(TypeError):
            db.item_bitsets()["a9"] = 0
