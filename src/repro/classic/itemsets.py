"""Frequent-itemset mining over transaction-id bitsets.

The one itemset miner of the library. Each item's transactions are one
Python ``int`` bitset, and the support of an itemset is the popcount
of the AND of its items' bitsets (Zaki's vertical layout, as in Eclat).

The miner returns FP-Growth's result in FP-Growth's emission order
(Han, Pei & Yin, SIGMOD 2000), not just the same set. At each level the
surviving items are ordered by descending count, ties broken by name,
which is the order FP-Growth inserts transactions into its tree. When
the items' bitsets nest along that order the FP-tree would be a single
path, and every combination of the items is emitted by size. Otherwise
the items are walked from the least frequent up, each followed by its
conditional itemsets: those of its intersection with the items before
it. Habit pools draw their rules in this order, so the order is part of
every session's behaviour.
"""

from __future__ import annotations

import math
from itertools import combinations

from repro._util import check_fraction
from repro.core.itemset import Itemset
from repro.core.transactions import TransactionDB
from repro.errors import EmptyDatabaseError


def _grow(
    level: list[tuple[str, int, int]],
    suffix: tuple[str, ...],
    min_count: int,
    max_size: int | None,
    out: dict[tuple[str, ...], int],
) -> None:
    """Emit every frequent extension of ``suffix`` by the ``level`` items.

    ``level`` holds ``(item, bitset, count)`` for the items frequent
    together with ``suffix``; their bitsets are already intersected
    with the suffix's.
    """
    level.sort(key=lambda entry: (-entry[2], entry[0]))
    if all(b & a == b for (_, a, _), (_, b, _) in zip(level, level[1:])):
        # A single-path FP-tree: every combination is frequent, with
        # the count of its least frequent item.
        for k in range(1, len(level) + 1):
            if max_size is not None and len(suffix) + k > max_size:
                break
            for combo in combinations(level, k):
                items = tuple(sorted([item for item, _, _ in combo] + list(suffix)))
                out[items] = combo[-1][2]
        return
    for index in range(len(level) - 1, -1, -1):
        item, bits, count = level[index]
        itemset = (item,) + suffix
        out[tuple(sorted(itemset))] = count
        if max_size is not None and len(itemset) >= max_size:
            continue
        conditional = []
        for other, other_bits, _ in level[:index]:
            joint = other_bits & bits
            joint_count = joint.bit_count()
            if joint_count >= min_count:
                conditional.append((other, joint, joint_count))
        if conditional:
            _grow(conditional, itemset, min_count, max_size, out)


def itemset_counts(
    db: TransactionDB, min_support: float, max_size: int | None = None
) -> dict[tuple[str, ...], int]:
    """Transaction count of every itemset with support ≥ ``min_support``.

    The core of :func:`frequent_itemsets`, with the same parameters.
    Keys are sorted item tuples, in FP-Growth's emission order (see the
    module docstring). An empty database has no frequent itemsets.
    """
    check_fraction(min_support, "min_support")
    if min_support <= 0.0:
        raise ValueError("min_support must be strictly positive")
    if max_size is not None and max_size < 1:
        raise ValueError("max_size must be at least 1")
    min_count = max(1, math.ceil(min_support * len(db) - 1e-9))
    width = (len(db) + 7) // 8
    columns: dict[str, bytearray] = {}
    for tid, row in enumerate(db):
        byte, bit = tid >> 3, 1 << (tid & 7)
        for item in row:
            column = columns.get(item)
            if column is None:
                column = columns[item] = bytearray(width)
            column[byte] |= bit
    level = []
    for item, column in columns.items():
        bits = int.from_bytes(column, "little")
        count = bits.bit_count()
        if count >= min_count:
            level.append((item, bits, count))
    out: dict[tuple[str, ...], int] = {}
    if level:
        _grow(level, (), min_count, max_size, out)
    return out


def frequent_itemsets(
    db: TransactionDB,
    min_support: float,
    max_size: int | None = None,
) -> dict[Itemset, float]:
    """All itemsets with support ≥ ``min_support`` (and their supports).

    Parameters
    ----------
    db:
        The transaction database to mine.
    min_support:
        Relative support threshold in ``(0, 1]``. A threshold of 0 is
        rejected: it would enumerate the full powerset of every
        transaction.
    max_size:
        Optional cap on itemset cardinality, at least 1.

    Returns
    -------
    dict
        Mapping from each frequent :class:`Itemset` (singletons and up;
        the empty itemset is excluded) to its relative support, in
        FP-Growth's emission order.
    """
    counts = itemset_counts(db, min_support, max_size)
    if len(db) == 0:
        raise EmptyDatabaseError("cannot mine an empty database")
    n = len(db)
    return {Itemset(items): count / n for items, count in counts.items()}
