"""Canonical itemsets.

An :class:`Itemset` is an immutable set of item names with a canonical
(sorted-tuple) form, so itemsets hash and compare deterministically and
print stably — properties the knowledge base, caches, and tests all
rely on. It supports the subset partial order that underlies support
monotonicity (the Apriori property): ``A ⊆ B ⇒ supp(A) ≥ supp(B)``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import combinations


class Itemset:
    """An immutable, canonically-ordered set of items.

    Examples
    --------
    >>> a = Itemset(["tea", "honey"])
    >>> b = Itemset(["honey", "tea"])
    >>> a == b
    True
    >>> str(a)
    '{honey, tea}'
    >>> a <= Itemset(["honey", "tea", "lemon"])
    True
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, items: Iterable[str] = ()) -> None:
        if isinstance(items, Itemset):
            self._items: tuple[str, ...] = items._items
        else:
            collected = set()
            for item in items:
                if not isinstance(item, str):
                    raise TypeError(f"items must be strings, got {type(item).__name__}")
                collected.add(item)
            self._items = tuple(sorted(collected))
        self._hash = hash(self._items)

    # -- basic protocol --------------------------------------------------------

    @property
    def items(self) -> tuple[str, ...]:
        """Items in canonical sorted order."""
        return self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[str]:
        return iter(self._items)

    def __contains__(self, item: object) -> bool:
        return item in set(self._items) if len(self._items) > 8 else item in self._items

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> tuple[str, ...]:
        # The cached hash is salted per-process (str hashing), so only
        # the items travel; the hash is recomputed on load.
        return self._items

    def __setstate__(self, state: tuple[str, ...]) -> None:
        self._items = tuple(state)
        self._hash = hash(self._items)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Itemset):
            return self._items == other._items
        return NotImplemented

    def __repr__(self) -> str:
        return f"Itemset({list(self._items)!r})"

    def __str__(self) -> str:
        return "{" + ", ".join(self._items) + "}"

    def __bool__(self) -> bool:
        return bool(self._items)

    # -- set algebra -----------------------------------------------------------

    def union(self, other: "Itemset | Iterable[str]") -> "Itemset":
        """Set union, returning a new :class:`Itemset`."""
        return Itemset(set(self._items) | set(other))

    def __or__(self, other: "Itemset") -> "Itemset":
        return self.union(other)

    def intersection(self, other: "Itemset | Iterable[str]") -> "Itemset":
        """Set intersection, returning a new :class:`Itemset`."""
        return Itemset(set(self._items) & set(other))

    def __and__(self, other: "Itemset") -> "Itemset":
        return self.intersection(other)

    def difference(self, other: "Itemset | Iterable[str]") -> "Itemset":
        """Set difference, returning a new :class:`Itemset`."""
        return Itemset(set(self._items) - set(other))

    def __sub__(self, other: "Itemset") -> "Itemset":
        return self.difference(other)

    def isdisjoint(self, other: "Itemset | Iterable[str]") -> bool:
        """True when the two itemsets share no item."""
        return set(self._items).isdisjoint(set(other))

    # -- partial order -----------------------------------------------------------

    def issubset(self, other: "Itemset | Iterable[str]") -> bool:
        """True when every item of ``self`` appears in ``other``."""
        return set(self._items).issubset(set(other))

    def issuperset(self, other: "Itemset | Iterable[str]") -> bool:
        """True when ``self`` contains every item of ``other``."""
        return set(self._items).issuperset(set(other))

    def __le__(self, other: "Itemset") -> bool:
        return self.issubset(other)

    def __lt__(self, other: "Itemset") -> bool:
        return self.issubset(other) and self._items != other._items

    def __ge__(self, other: "Itemset") -> bool:
        return self.issuperset(other)

    def __gt__(self, other: "Itemset") -> bool:
        return self.issuperset(other) and self._items != other._items

    # -- enumeration helpers -------------------------------------------------------

    def subsets(self, size: int | None = None, proper: bool = False) -> Iterator["Itemset"]:
        """Yield subsets of this itemset.

        Parameters
        ----------
        size:
            If given, yield only subsets of exactly this many items.
        proper:
            If true, skip the subset equal to ``self``.
        """
        sizes = range(len(self._items) + 1) if size is None else (size,)
        for k in sizes:
            if k < 0 or k > len(self._items):
                continue
            for combo in combinations(self._items, k):
                if proper and k == len(self._items):
                    continue
                yield Itemset(combo)

    def immediate_subsets(self) -> Iterator["Itemset"]:
        """Yield the subsets obtained by dropping exactly one item."""
        for item in self._items:
            yield Itemset(i for i in self._items if i != item)

    def with_item(self, item: str) -> "Itemset":
        """A new itemset with ``item`` added."""
        return Itemset(self._items + (item,))

    # -- construction ---------------------------------------------------------------

    @classmethod
    def empty(cls) -> "Itemset":
        """The empty itemset."""
        return _EMPTY

    @classmethod
    def of(cls, *items: str) -> "Itemset":
        """Variadic constructor: ``Itemset.of("tea", "honey")``."""
        return cls(items)

    @classmethod
    def _of_sorted(cls, items: tuple[str, ...]) -> "Itemset":
        """The itemset of ``items``, already a sorted tuple of distinct
        strings: nothing is checked or sorted again."""
        itemset = cls.__new__(cls)
        itemset._items = items
        itemset._hash = hash(items)
        return itemset


_EMPTY = Itemset(())
