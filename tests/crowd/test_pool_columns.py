"""Habit pools are bit-identical to the constructor they replaced.

``reference_columns`` is a test-local copy of the pool constructor that
looked every antecedent up by its item tuple, fed by the test-local
FP-Growth of ``tests/classic/fpgrowth_reference.py``. The pool built
on the miner's masks must hold the same rules in the same order, and
every per-rule column must match: each rule's body, antecedent mask,
body support, confidence and weight, integers exactly and floats by
bit pattern.
Item names whose sorted order differs from the order they first
appear in (``"a10"`` sorts before ``"a9"``, non-ASCII after ASCII)
check that mask bits are ranked by name.
"""

from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classic.itemsets import mask_items
from repro.classic.rulegen import mine_rules
from repro.core import Itemset, TransactionDB
from repro.crowd import HabitPool, OpenAnswerPolicy
from tests.classic import fpgrowth_reference
from tests.crowd.test_open_behavior import reference_choose

ITEMS = ["a9", "a10", "b", "é", "ä", "Z", "a", "c1"]

databases = st.lists(
    st.lists(st.sampled_from(ITEMS), max_size=6), min_size=0, max_size=40
).map(TransactionDB)

policies = st.builds(
    OpenAnswerPolicy,
    personal_min_support=st.sampled_from([0.05, 0.1, 0.2, 0.4]),
    personal_min_confidence=st.sampled_from([0.0, 0.3, 0.6, 1.0]),
    max_body_size=st.integers(1, 5),
    sharpness=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.7, 1e4]),
)


def _masks(size):
    return np.array(
        [
            sum(1 << p for p in positions)
            for positions in chain.from_iterable(
                combinations(range(size), k) for k in range(1, size)
            )
        ],
        dtype=np.int32,
    )


def reference_columns(db, policy):
    """Per rule: the body, antecedent mask, body support, confidence and weight
    the tuple-keyed constructor stored."""
    supports = (
        fpgrowth_reference.frequent_itemsets(
            db, policy.personal_min_support, max_size=policy.max_body_size
        )
        if len(db)
        else {}
    )
    counts = {itemset.items: value for itemset, value in supports.items()}
    support = np.array(list(counts.values()), dtype=np.float64)
    position = {items: k for k, items in enumerate(counts)}
    bodies = [items for items in counts if len(items) > 1]
    antecedent = np.array(
        [
            position[a]
            for items in bodies
            for k in range(1, len(items))
            for a in combinations(items, k)
        ],
        dtype=np.int64,
    )
    sizes = np.array([len(items) for items in bodies], dtype=np.int64)
    split_body = np.repeat(np.arange(len(bodies)), (1 << sizes) - 2)
    body_support = support[[position[items] for items in bodies]]
    mask = np.concatenate([np.empty(0, np.int32), *map(_masks, sizes.tolist())])
    confidence = np.minimum(1.0, body_support[split_body] / support[antecedent])
    keep = confidence >= policy.personal_min_confidence
    kept = np.zeros(len(bodies), dtype=bool)
    kept[split_body[keep]] = True
    rule_body = (np.cumsum(kept) - 1)[split_body[keep]].astype(np.int32)
    kept_bodies = [items for items, k in zip(bodies, kept.tolist()) if k]
    kept_support = body_support[kept]
    confidence = confidence[keep]
    prominence = np.array(
        [
            (s * c) ** policy.sharpness
            for s, c in zip(kept_support[rule_body].tolist(), confidence.tolist())
        ],
        dtype=np.float64,
    )
    return {
        "bodies": [kept_bodies[k] for k in rule_body.tolist()],
        "body_support": kept_support[rule_body],
        "mask": mask[keep],
        "confidence": confidence,
        "prominence": prominence,
    }


def pool_columns(pool):
    """The same per-rule columns, read from a pool."""
    return {
        "bodies": [mask_items(pool._bodies[k], pool._names) for k in pool._body.tolist()],
        "body_support": pool._body_support[pool._body],
        "mask": pool._mask,
        "confidence": pool._confidence,
        "prominence": pool._prominence,
    }


def assert_same_pool(db, policy):
    pool = HabitPool(db, policy)
    got, want = pool_columns(pool), reference_columns(db, policy)
    assert got.pop("bodies") == want.pop("bodies")
    for name, column in want.items():
        assert got[name].dtype == column.dtype, name
        assert got[name].shape == column.shape, name
        # Bit patterns, so -0.0, NaN payloads and last-ulp drift all show.
        assert got[name].tobytes() == column.tobytes(), name
    return pool


class TestColumnsMatchTheTupleKeyedPool:
    @settings(max_examples=300, deadline=None)
    @given(databases, policies)
    def test_random_databases(self, db, policy):
        assert_same_pool(db, policy)

    @pytest.mark.parametrize("max_body_size", [1, 2, 3, 4, 5])
    def test_names_ranked_by_sort_order_not_first_sight(self, max_body_size):
        # a9 is seen first but a10 sorts first; é and ä sort after ASCII
        # and é is seen before ä.
        rows = (
            [["a9"], ["é"], ["a10", "a9"], ["ä", "é", "a9"], ["a10", "é", "ä", "b"]] * 4
            + [["b", "a9", "a10", "é", "ä"]] * 3
            + [["Z", "a9"], ["a", "c1", "a10"]]
        )
        policy = OpenAnswerPolicy(
            personal_min_support=0.1,
            personal_min_confidence=0.2,
            max_body_size=max_body_size,
        )
        pool = assert_same_pool(TransactionDB(rows), policy)
        assert list(pool._names) == sorted(pool._names)
        if max_body_size > 1:
            assert len(pool) > 0

    def test_many_ranked_items_span_several_mask_words(self):
        # 70 frequent items: antecedent masks need two 64-bit words.
        names = [f"i{k}" for k in range(70)]
        rows = [names[k : k + 3] for k in range(68)] * 4
        policy = OpenAnswerPolicy(personal_min_support=0.01, max_body_size=3)
        db = TransactionDB(rows)
        pool = assert_same_pool(db, policy)
        assert len(pool._names) == 70
        assert max(pool._bodies) >= 1 << 64
        rules = mine_rules(db, 0.01, policy.personal_min_confidence, max_size=3)
        assert list(pool.rules()) == list(rules.items())
        last = list(rules)[-1]
        avoid = set(rules) - {last}
        assert pool.choose(Itemset.empty(), avoid, np.random.default_rng(1))[0] == last
        # A context item ranked past the first mask word.
        context = Itemset([pool._names[-1]])
        ours, theirs = np.random.default_rng(2), np.random.default_rng(2)
        got = pool.choose(context, (), ours)
        assert got is not None and context.issubset(got[0].antecedent)
        assert got == reference_choose(rules, policy, context, set(), theirs)
