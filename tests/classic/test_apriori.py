"""The itemset miner keeps Apriori's contract.

Threshold semantics, the size cap, exact supports and the Apriori
property (every subset of a frequent itemset is frequent), checked on
:func:`repro.classic.frequent_itemsets`.
"""

import pytest

from repro.classic import frequent_itemsets
from repro.core import Itemset, TransactionDB
from repro.errors import EmptyDatabaseError


class TestSmallCases:
    def test_tiny_db(self, tiny_db):
        result = frequent_itemsets(tiny_db, 0.5)
        assert result[Itemset(["cough"])] == pytest.approx(4 / 6)
        assert result[Itemset(["tea"])] == pytest.approx(4 / 6)
        assert result[Itemset(["cough", "tea"])] == pytest.approx(3 / 6)
        assert Itemset(["honey"]) not in result  # 2/6 < 0.5

    def test_threshold_boundary_inclusive(self):
        db = TransactionDB([["a"], ["a"], ["b"], ["b"]])
        result = frequent_itemsets(db, 0.5)
        assert Itemset(["a"]) in result and Itemset(["b"]) in result

    def test_single_transaction(self):
        db = TransactionDB([["a", "b"]])
        result = frequent_itemsets(db, 1.0)
        assert result == {
            Itemset(["a"]): 1.0,
            Itemset(["b"]): 1.0,
            Itemset(["a", "b"]): 1.0,
        }

    def test_nothing_frequent(self):
        db = TransactionDB([["a"], ["b"], ["c"], ["d"]])
        assert frequent_itemsets(db, 0.5) == {}

    def test_max_size_cap(self, tiny_db):
        result = frequent_itemsets(tiny_db, 0.1, max_size=1)
        assert all(len(itemset) == 1 for itemset in result)

    def test_empty_db_raises(self):
        with pytest.raises(EmptyDatabaseError):
            frequent_itemsets(TransactionDB([]), 0.5)

    def test_zero_support_rejected(self, tiny_db):
        with pytest.raises(ValueError, match="strictly positive"):
            frequent_itemsets(tiny_db, 0.0)

    def test_support_above_one_rejected(self, tiny_db):
        with pytest.raises(Exception):
            frequent_itemsets(tiny_db, 1.5)


class TestProperties:
    def test_downward_closure(self, tiny_db):
        result = frequent_itemsets(tiny_db, 0.15)
        for itemset in result:
            for sub in itemset.subsets(proper=True):
                if sub:
                    assert sub in result

    def test_supports_are_exact(self, tiny_db):
        result = frequent_itemsets(tiny_db, 0.15)
        for itemset, support in result.items():
            assert support == pytest.approx(tiny_db.support(itemset))

    def test_monotone_in_threshold(self, tiny_db):
        loose = frequent_itemsets(tiny_db, 0.15)
        tight = frequent_itemsets(tiny_db, 0.5)
        assert set(tight) <= set(loose)
