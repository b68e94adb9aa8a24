"""Brute-force validation of the itemset miner and its FP-Growth reference.

On tiny databases the full powerset can be enumerated, giving an
*exhaustive* independent oracle: every frequent itemset a miner reports
must appear with the exact same support, and nothing frequent may be
missed. This closes the loop the reference-equivalence tests leave
open (the miner and its reference could share a bug).
"""

from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classic import frequent_itemsets
from repro.core import Itemset, TransactionDB
from tests.classic import fpgrowth_reference

tiny_dbs = st.lists(
    st.lists(st.sampled_from(list("abcde")), max_size=4),
    min_size=1,
    max_size=12,
).map(TransactionDB)

MINERS = {
    "itemsets": frequent_itemsets,
    "fpgrowth": fpgrowth_reference.frequent_itemsets,
}


def brute_force(db: TransactionDB, min_support: float) -> dict[Itemset, float]:
    """Exhaustive frequent-itemset enumeration over the item powerset."""
    items = db.items
    result = {}
    subsets = chain.from_iterable(
        combinations(items, k) for k in range(1, len(items) + 1)
    )
    for subset in subsets:
        itemset = Itemset(subset)
        support = db.support(itemset)
        if support >= min_support - 1e-12:
            result[itemset] = support
    return result


@pytest.mark.parametrize("miner", MINERS.values(), ids=MINERS.keys())
class TestAgainstBruteForce:
    @settings(max_examples=25, deadline=None)
    @given(tiny_dbs, st.sampled_from([0.1, 0.3, 0.5, 0.9]))
    def test_exact_agreement(self, miner, db, min_support):
        expected = brute_force(db, min_support)
        actual = miner(db, min_support)
        assert set(actual) == set(expected)
        for itemset, support in expected.items():
            assert actual[itemset] == pytest.approx(support)

    def test_worked_example(self, miner):
        db = TransactionDB(
            [["a", "b", "c"], ["a", "b"], ["a", "c"], ["b"], ["a"]]
        )
        expected = brute_force(db, 0.4)
        assert miner(db, 0.4) == expected
