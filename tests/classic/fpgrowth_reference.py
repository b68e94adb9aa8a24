"""FP-Growth over an FP-tree: the reference the itemset miner is pinned to.

Han, Pei & Yin (SIGMOD 2000). The library's miner
(:mod:`repro.classic.itemsets`) must return exactly what this returns,
keys, order and float supports alike, because habit pools draw their
rules in this order. The FP-tree stores transactions as paths of a
prefix tree ordered by descending item frequency, with a header table
linking all nodes of each item. For each item (suffix), FP-Growth
builds the conditional FP-tree of its prefix paths and recurses;
single-path trees are expanded combinatorially.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from itertools import combinations

from repro._util import check_fraction
from repro.core.itemset import Itemset
from repro.core.transactions import TransactionDB
from repro.errors import EmptyDatabaseError


class FPNode:
    """A node of an FP-tree: one item with a count and child links."""

    __slots__ = ("item", "count", "parent", "children", "next_same_item")

    def __init__(self, item: str | None, parent: "FPNode | None") -> None:
        self.item = item
        self.count = 0
        self.parent = parent
        self.children: dict[str, FPNode] = {}
        #: Intrusive linked list threading all nodes that carry the same item.
        self.next_same_item: FPNode | None = None

    def __repr__(self) -> str:
        return f"FPNode({self.item!r}, count={self.count})"

    def prefix_path(self) -> list[str]:
        """Items on the path from this node's parent up to the root."""
        path: list[str] = []
        node = self.parent
        while node is not None and node.item is not None:
            path.append(node.item)
            node = node.parent
        path.reverse()
        return path


class FPTree:
    """An FP-tree over weighted transactions.

    Parameters
    ----------
    transactions:
        ``(items, weight)`` pairs. Weights are how conditional pattern
        bases re-enter tree construction; plain databases use weight 1.
    min_count:
        Items whose total weighted count falls below this are dropped
        before insertion (they cannot take part in frequent patterns).
    """

    def __init__(
        self,
        transactions: Iterable[tuple[Iterable[str], int]],
        min_count: int,
    ) -> None:
        transactions = [(tuple(items), int(weight)) for items, weight in transactions]
        counts: dict[str, int] = {}
        for items, weight in transactions:
            for item in set(items):
                counts[item] = counts.get(item, 0) + weight
        self.item_counts: dict[str, int] = {
            item: count for item, count in counts.items() if count >= min_count
        }
        # Descending frequency, ties broken lexicographically for determinism.
        self._order: dict[str, tuple[int, str]] = {
            item: (-count, item) for item, count in self.item_counts.items()
        }
        self.root = FPNode(None, None)
        self.header: dict[str, FPNode] = {}
        self._header_tail: dict[str, FPNode] = {}
        for items, weight in transactions:
            filtered = sorted(
                {i for i in items if i in self.item_counts},
                key=self._order.__getitem__,
            )
            if filtered:
                self._insert(filtered, weight)

    def _insert(self, items: list[str], weight: int) -> None:
        node = self.root
        for item in items:
            child = node.children.get(item)
            if child is None:
                child = FPNode(item, node)
                node.children[item] = child
                tail = self._header_tail.get(item)
                if tail is None:
                    self.header[item] = child
                else:
                    tail.next_same_item = child
                self._header_tail[item] = child
            child.count += weight
            node = child

    # -- queries -----------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True when no transaction survived the frequency filter."""
        return not self.root.children

    def nodes_of(self, item: str) -> Iterator[FPNode]:
        """All nodes carrying ``item``, via the header-table links."""
        node = self.header.get(item)
        while node is not None:
            yield node
            node = node.next_same_item

    def conditional_pattern_base(self, item: str) -> list[tuple[list[str], int]]:
        """Prefix paths of ``item`` with the item-node counts as weights."""
        base: list[tuple[list[str], int]] = []
        for node in self.nodes_of(item):
            path = node.prefix_path()
            if path:
                base.append((path, node.count))
        return base

    def single_path(self) -> list[tuple[str, int]] | None:
        """The unique root-to-leaf path if the tree is one path, else ``None``."""
        path: list[tuple[str, int]] = []
        node = self.root
        while node.children:
            if len(node.children) > 1:
                return None
            (child,) = node.children.values()
            path.append((child.item, child.count))  # type: ignore[arg-type]
            node = child
        return path

    def items_ascending(self) -> list[str]:
        """Items ordered by ascending frequency (FP-Growth's suffix order)."""
        return sorted(self.item_counts, key=self._order.__getitem__, reverse=True)


def _grow(
    tree: FPTree,
    suffix: tuple[str, ...],
    min_count: int,
    max_size: int | None,
    out: dict[Itemset, int],
) -> None:
    single = tree.single_path()
    if single is not None:
        # Every combination of path items, appended to the suffix, is
        # frequent with the count of its deepest (least frequent) node.
        for k in range(1, len(single) + 1):
            if max_size is not None and len(suffix) + k > max_size:
                break
            for combo in combinations(single, k):
                items = tuple(item for item, _ in combo) + suffix
                count = min(c for _, c in combo)
                out[Itemset(items)] = count
        return
    for item in tree.items_ascending():
        new_suffix = (item,) + suffix
        out[Itemset(new_suffix)] = tree.item_counts[item]
        if max_size is not None and len(new_suffix) >= max_size:
            continue
        base = tree.conditional_pattern_base(item)
        conditional = FPTree(base, min_count)
        if not conditional.is_empty:
            _grow(conditional, new_suffix, min_count, max_size, out)


def frequent_itemsets(
    db: TransactionDB,
    min_support: float,
    max_size: int | None = None,
) -> dict[Itemset, float]:
    """All itemsets with support ≥ ``min_support``, via FP-Growth."""
    check_fraction(min_support, "min_support")
    if min_support <= 0.0:
        raise ValueError("min_support must be strictly positive for FP-Growth")
    if len(db) == 0:
        raise EmptyDatabaseError("cannot mine an empty database")
    n = len(db)
    min_count = max(1, math.ceil(min_support * n - 1e-9))
    tree = FPTree(((row, 1) for row in db), min_count)
    counts: dict[Itemset, int] = {}
    if not tree.is_empty:
        _grow(tree, (), min_count, max_size, counts)
    return {itemset: count / n for itemset, count in counts.items()}
