"""Tests for maximal/closed itemset computation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classic import (
    closed_itemsets,
    frequent_itemsets,
    maximal_itemsets,
)
from repro.core import Itemset, TransactionDB

random_dbs = st.lists(
    st.lists(st.sampled_from(list("abcde")), max_size=4),
    min_size=1,
    max_size=25,
).map(TransactionDB)


class TestMaximal:
    def test_simple(self):
        supports = {
            Itemset(["a"]): 0.8,
            Itemset(["b"]): 0.6,
            Itemset(["a", "b"]): 0.5,
        }
        assert maximal_itemsets(supports) == {Itemset(["a", "b"]): 0.5}

    def test_incomparable_both_kept(self):
        supports = {Itemset(["a"]): 0.5, Itemset(["b"]): 0.5}
        assert set(maximal_itemsets(supports)) == {Itemset(["a"]), Itemset(["b"])}

    def test_empty(self):
        assert maximal_itemsets({}) == {}

    @settings(max_examples=25, deadline=None)
    @given(random_dbs)
    def test_maximal_reconstructs_frequency(self, db):
        supports = frequent_itemsets(db, 0.2)
        maximal = maximal_itemsets(supports)
        # Every frequent itemset is a subset of some maximal one.
        for itemset in supports:
            assert any(itemset <= m for m in maximal)
        # And no maximal set has a frequent strict superset.
        for m in maximal:
            assert not any(m < other for other in supports)


class TestClosed:
    def test_subsumed_by_equal_support_superset(self):
        supports = {
            Itemset(["a"]): 0.5,
            Itemset(["a", "b"]): 0.5,  # same support → {a} not closed
            Itemset(["b"]): 0.8,
        }
        closed = closed_itemsets(supports)
        assert Itemset(["a"]) not in closed
        assert Itemset(["a", "b"]) in closed
        assert Itemset(["b"]) in closed

    def test_all_distinct_supports_all_closed(self):
        supports = {
            Itemset(["a"]): 0.8,
            Itemset(["b"]): 0.6,
            Itemset(["a", "b"]): 0.5,
        }
        assert closed_itemsets(supports) == supports

    @settings(max_examples=25, deadline=None)
    @given(random_dbs)
    def test_closed_superset_of_maximal(self, db):
        supports = frequent_itemsets(db, 0.2)
        closed = set(closed_itemsets(supports))
        maximal = set(maximal_itemsets(supports))
        assert maximal <= closed

    @settings(max_examples=25, deadline=None)
    @given(random_dbs)
    def test_closed_reconstructs_supports(self, db):
        # supp(X) = max over closed supersets of X — the defining
        # property of the closed representation.
        supports = frequent_itemsets(db, 0.2)
        closed = closed_itemsets(supports)
        for itemset, support in supports.items():
            covering = [s for c, s in closed.items() if itemset <= c]
            assert covering
            assert max(covering) == pytest.approx(support)
