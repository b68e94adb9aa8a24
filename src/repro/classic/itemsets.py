"""Frequent-itemset mining over transaction-id bitsets.

The one itemset miner of the library. It reads the database's own
index (:meth:`~repro.core.transactions.TransactionDB.item_bitsets`:
one Python ``int`` bitset per item), and the support of an itemset is
the popcount of the AND of its items' bitsets (Zaki's vertical layout,
as in Eclat). The recursion keys itemsets by an ``int`` mask over the
frequent items ranked by name, so bit ``r`` stands for the ``r``-th
item in sorted order and a mask's set bits, read upwards, spell the
itemset's sorted tuple. :func:`frequent_itemsets` decodes the masks
for its callers; habit pools (:mod:`repro.crowd.open_behavior`) keep
them.

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

from repro._util import check_fraction, check_positive
from repro.core.itemset import Itemset
from repro.core.transactions import TransactionDB
from repro.errors import EmptyDatabaseError


def _grow(
    level: list[tuple[int, int, int]],
    suffix: int,
    size: int,
    min_count: int,
    max_size: int | None,
    out: dict[int, int],
) -> None:
    """Emit every frequent extension of ``suffix`` by the ``level`` items.

    ``suffix`` is the mask of a frequent itemset of ``size`` items, and
    ``level`` holds ``(-count, bit, bitset)`` for the items frequent
    together with it; their bitsets are already intersected with the
    suffix's. Sorting the entries orders them by descending count, ties
    broken by name (ranks follow names).
    """
    level.sort()
    if all(b & a == b for (_, _, a), (_, _, b) in zip(level, level[1:])):
        # A single-path FP-tree: every combination is frequent, with
        # the count of its least frequent item.
        for k in range(1, len(level) + 1):
            if max_size is not None and size + k > max_size:
                break
            for combo in combinations(level, k):
                out[suffix | sum([bit for _, bit, _ in combo])] = -combo[-1][0]
        return
    deeper = max_size is None or size + 1 < max_size
    for index in range(len(level) - 1, -1, -1):
        negative_count, bit, bits = level[index]
        itemset = suffix | bit
        out[itemset] = -negative_count
        if not deeper:
            continue
        conditional = []
        for _, other, other_bits in level[:index]:
            joint = other_bits & bits
            joint_count = joint.bit_count()
            if joint_count >= min_count:
                conditional.append((-joint_count, other, joint))
        if len(conditional) == 1:
            # One item: its only extension, emitted without a call.
            out[itemset | conditional[0][1]] = -conditional[0][0]
        elif conditional:
            _grow(conditional, itemset, size + 1, min_count, max_size, out)


def itemset_masks(
    db: TransactionDB, min_support: float, max_size: int | None = None
) -> tuple[tuple[str, ...], dict[int, int]]:
    """The frequent itemsets as masks: ``(names, {mask: count})``.

    ``names`` lists the frequent items sorted; bit ``r`` of a mask
    stands for ``names[r]``. The counts are transaction counts, in
    FP-Growth's emission order (see the module docstring). Parameters
    as for :func:`frequent_itemsets`; an empty database has no
    frequent itemsets.
    """
    check_fraction(min_support, "min_support")
    if min_support <= 0.0:
        raise ValueError("min_support must be strictly positive")
    if max_size is not None:
        check_positive(max_size, "max_size")
    min_count = max(1, math.ceil(min_support * len(db) - 1e-9))
    frequent = sorted(
        (item, bits)
        for item, bits in db.item_bitsets().items()
        if bits.bit_count() >= min_count
    )
    names = tuple(item for item, _ in frequent)
    out: dict[int, int] = {}
    if frequent:
        level = [(-bits.bit_count(), 1 << r, bits) for r, (_, bits) in enumerate(frequent)]
        _grow(level, 0, 0, min_count, max_size, out)
    return names, out


def mask_items(mask: int, names: tuple[str, ...]) -> tuple[str, ...]:
    """The sorted item tuple a mask over ``names`` stands for."""
    items = []
    while mask:
        low = mask & -mask
        items.append(names[low.bit_length() - 1])
        mask ^= low
    return tuple(items)


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
        Optional cap on itemset cardinality, a positive integer.

    Returns
    -------
    dict
        Mapping from each frequent :class:`Itemset` (singletons and up;
        the empty itemset is excluded) to its relative support, in
        FP-Growth's emission order.
    """
    names, counts = itemset_masks(db, min_support, max_size)
    if len(db) == 0:
        raise EmptyDatabaseError("cannot mine an empty database")
    n = len(db)
    return {Itemset(mask_items(mask, names)): count / n for mask, count in counts.items()}
