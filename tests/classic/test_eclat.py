"""The itemset miner's vertical core, against two independent oracles.

The miner intersects tid bitsets depth-first (Eclat's vertical layout,
Zaki 2000). Its answers must agree with the FP-Growth reference and,
on small item sets, with brute-force enumeration.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classic import frequent_itemsets
from repro.core import Itemset, TransactionDB
from repro.errors import EmptyDatabaseError
from tests.classic import fpgrowth_reference
from tests.classic.test_bruteforce import brute_force

random_dbs = st.lists(
    st.lists(st.sampled_from(list("abcdefg")), max_size=5),
    min_size=1,
    max_size=40,
).map(TransactionDB)

thresholds = st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.0])


class TestSmallCases:
    def test_tiny_db(self, tiny_db):
        result = frequent_itemsets(tiny_db, 0.5)
        assert result[Itemset(["cough", "tea"])] == pytest.approx(0.5)

    def test_max_size(self, tiny_db):
        result = frequent_itemsets(tiny_db, 0.1, max_size=1)
        assert all(len(i) == 1 for i in result)

    def test_empty_db_raises(self):
        with pytest.raises(EmptyDatabaseError):
            frequent_itemsets(TransactionDB([]), 0.5)

    def test_zero_support_rejected(self, tiny_db):
        with pytest.raises(ValueError):
            frequent_itemsets(tiny_db, 0.0)

    def test_nothing_frequent(self):
        assert frequent_itemsets(TransactionDB([["a"], ["b"]]), 0.9) == {}


class TestThreeWayEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(random_dbs, thresholds)
    def test_all_three_agree(self, db, min_support):
        ours = frequent_itemsets(db, min_support)
        reference = fpgrowth_reference.frequent_itemsets(db, min_support)
        exhaustive = brute_force(db, min_support)
        assert ours == reference
        assert set(ours) == set(exhaustive)
        for itemset, support in exhaustive.items():
            assert ours[itemset] == pytest.approx(support)

    @settings(max_examples=20, deadline=None)
    @given(random_dbs)
    def test_size_cap_agrees(self, db):
        reference = fpgrowth_reference.frequent_itemsets(db, 0.2, max_size=2)
        assert frequent_itemsets(db, 0.2, max_size=2) == reference
