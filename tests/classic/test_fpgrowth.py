"""The itemset miner reproduces FP-Growth: same itemsets, order and supports.

``fpgrowth_reference`` is a test-local FP-Growth. Habit pools draw their
rules in the miner's emission order, so the miner must match the
reference item for item and in order, with bit-identical supports, not
only as a set. A test-local, textbook Apriori (Agrawal & Srikant, VLDB
1994) is a second, levelwise oracle for the same itemsets and supports.
"""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classic import frequent_itemsets
from repro.core import Itemset, TransactionDB
from repro.errors import EmptyDatabaseError
from tests.classic import fpgrowth_reference

ITEMS = list("abcdefg")

random_dbs = st.lists(
    st.lists(st.sampled_from(ITEMS), max_size=5),
    min_size=1,
    max_size=40,
).map(TransactionDB)

#: Every row is a prefix of one item order: the FP-tree is a single
#: path, at the top level and in every conditional tree.
nested_dbs = st.tuples(
    st.permutations(ITEMS),
    st.lists(st.integers(0, len(ITEMS)), min_size=1, max_size=30),
).map(lambda drawn: TransactionDB(drawn[0][:k] for k in drawn[1]))

thresholds = st.one_of(
    st.sampled_from([0.05, 0.1, 0.25, 0.5, 0.75, 1.0]),
    st.floats(min_value=0.01, max_value=1.0),
)

max_sizes = st.sampled_from([None, 1, 2, 3, 4])


def apriori(db, min_support, max_size=None):
    """Levelwise Apriori: join (k-1)-prefix-sharing sets, prune, count."""
    n = len(db)
    min_count = max(1, math.ceil(min_support * n - 1e-9))
    result = {}
    candidates = [(item,) for item in db.items]
    size = 1
    while candidates:
        frequent = [c for c in candidates if db.count(c) >= min_count]
        result.update({Itemset(c): db.count(c) / n for c in frequent})
        if max_size is not None and size >= max_size:
            break
        known = set(frequent)
        joined = (
            left + right[-1:]
            for i, left in enumerate(frequent)
            for right in frequent[i + 1 :]
            if left[:-1] == right[:-1]
        )
        candidates = [
            c for c in joined if all(sub in known for sub in combinations(c, size))
        ]
        size += 1
    return result


def assert_matches_reference(db, min_support, max_size=None):
    ours = frequent_itemsets(db, min_support, max_size=max_size)
    reference = fpgrowth_reference.frequent_itemsets(db, min_support, max_size=max_size)
    assert list(ours.items()) == list(reference.items())


class TestSmallCases:
    def test_tiny_db(self, tiny_db):
        result = frequent_itemsets(tiny_db, 0.5)
        assert result[Itemset(["cough", "tea"])] == pytest.approx(0.5)

    def test_single_path_tree(self):
        # All transactions nest: the tree is a single path and the
        # combinatorial shortcut kicks in.
        db = TransactionDB([["a"], ["a", "b"], ["a", "b", "c"]])
        result = frequent_itemsets(db, 1 / 3)
        assert result[Itemset(["a"])] == pytest.approx(1.0)
        assert result[Itemset(["a", "b"])] == pytest.approx(2 / 3)
        assert result[Itemset(["a", "b", "c"])] == pytest.approx(1 / 3)

    def test_max_size_cap(self, tiny_db):
        result = frequent_itemsets(tiny_db, 0.1, max_size=2)
        assert all(len(itemset) <= 2 for itemset in result)

    @pytest.mark.parametrize("max_size", [0, -1])
    def test_max_size_below_one_rejected(self, max_size):
        # FP-Growth answered 0 on this single-path database but every
        # singleton on a branching one; a cap below 1 is an error.
        db = TransactionDB([["a"], ["a", "b"], ["a", "b", "c"]])
        with pytest.raises(ValueError, match="max_size"):
            frequent_itemsets(db, 0.3, max_size=max_size)

    @pytest.mark.parametrize("max_size", [2.5, 1.5, "2"])
    def test_fractional_max_size_rejected(self, max_size):
        # A cap of 2.5 used to stop the single-path expansion at 2 but
        # let the branching walk emit 3-itemsets.
        db = TransactionDB([["a", "b", "c"], ["a", "b"], ["a", "c"], ["b", "c", "d"]])
        with pytest.raises(ValueError, match="max_size"):
            frequent_itemsets(db, 0.1, max_size=max_size)

    def test_empty_db_raises(self):
        with pytest.raises(EmptyDatabaseError):
            frequent_itemsets(TransactionDB([]), 0.5)

    def test_zero_support_rejected(self, tiny_db):
        with pytest.raises(ValueError):
            frequent_itemsets(tiny_db, 0.0)

    def test_nothing_frequent(self):
        db = TransactionDB([["a"], ["b"]])
        assert frequent_itemsets(db, 0.9) == {}


class TestEquivalence:
    """Keys, order and float supports equal FP-Growth's, always."""

    @settings(max_examples=60, deadline=None)
    @given(random_dbs, thresholds)
    def test_matches_apriori(self, db, min_support):
        a = apriori(db, min_support)
        f = frequent_itemsets(db, min_support)
        assert set(a) == set(f)
        for itemset in a:
            assert a[itemset] == pytest.approx(f[itemset])

    @settings(max_examples=20, deadline=None)
    @given(random_dbs)
    def test_matches_apriori_with_size_cap(self, db):
        a = apriori(db, 0.2, max_size=2)
        f = frequent_itemsets(db, 0.2, max_size=2)
        assert a == f

    @settings(max_examples=150, deadline=None)
    @given(random_dbs, thresholds, max_sizes)
    def test_matches_reference(self, db, min_support, max_size):
        assert_matches_reference(db, min_support, max_size)

    @settings(max_examples=60, deadline=None)
    @given(nested_dbs, thresholds, max_sizes)
    def test_matches_reference_on_nested_dbs(self, db, min_support, max_size):
        assert_matches_reference(db, min_support, max_size)

    def test_matches_on_dense_db(self, rng):
        rows = [
            [f"i{k}" for k in range(10) if rng.random() < 0.5] for _ in range(150)
        ]
        assert_matches_reference(TransactionDB(rows), 0.1)
