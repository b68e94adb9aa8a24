"""Materialized transaction databases.

The paper's personal databases ``D_u`` are *virtual* — they exist only
in crowd members' heads. To simulate a crowd (and to run the classic
miners that provide ground truth and baselines) we need their
materialized counterpart: :class:`TransactionDB`, a bag of transactions
where each transaction is a set of items representing one occasion.

The database indexes its rows once, as one tid bitset per item: a
Python ``int`` whose bit ``t`` is set when transaction ``t`` holds the
item (Zaki's vertical layout). Counting an itemset is an AND of its
items' bitsets and an ``int.bit_count``, with no native extensions.
The same bitsets serve a member's closed answers (:meth:`rule_stats`),
the itemset miner (:mod:`repro.classic.itemsets`) and, through it,
the habit pools of :mod:`repro.crowd.open_behavior`.
"""

from __future__ import annotations

import pickle
from collections.abc import Iterable, Iterator, Mapping, Sequence
from types import MappingProxyType

from repro.core.itemset import Itemset
from repro.core.measures import RuleStats
from repro.core.rule import Rule
from repro.errors import EmptyDatabaseError


class TransactionDB:
    """An immutable bag of transactions with support-counting queries.

    Parameters
    ----------
    transactions:
        An iterable of item collections. Each transaction is
        deduplicated (it is a *set* of facts about one occasion); empty
        transactions are allowed and simply never support anything.

    Examples
    --------
    >>> db = TransactionDB([["cough", "tea"], ["cough"], ["tea"]])
    >>> db.support(Itemset(["cough", "tea"]))
    0.3333333333333333
    >>> db.rule_stats(Rule.parse("cough -> tea")).confidence
    0.5
    """

    __slots__ = ("_transactions", "_index", "_pickled_rows")

    def __init__(self, transactions: Iterable[Iterable[str]]) -> None:
        rows = tuple(map(frozenset, transactions))
        # One byte column per item, set bit by bit, then read as an int:
        # OR-ing into growing ints would cost a copy per occurrence.
        width = (len(rows) + 7) // 8
        columns: dict[str, bytearray] = {}
        for tid, row in enumerate(rows):
            byte, bit = tid >> 3, 1 << (tid & 7)
            for item in row:
                column = columns.get(item)
                if column is None:
                    column = columns[item] = bytearray(width)
                column[byte] |= bit
        self._transactions: tuple[frozenset[str], ...] = rows
        self._index: dict[str, int] = {
            item: int.from_bytes(column, "little") for item, column in columns.items()
        }
        self._pickled_rows: bytes | None = None

    def __getstate__(self) -> bytes:
        # Only the rows travel; the bitset index is rebuilt on load.
        # The database is immutable, so its rows are encoded once and
        # every later checkpoint reuses the bytes.
        if self._pickled_rows is None:
            self._pickled_rows = pickle.dumps(
                self._transactions, protocol=pickle.HIGHEST_PROTOCOL
            )
        return self._pickled_rows

    def __setstate__(self, state: bytes) -> None:
        self.__init__(pickle.loads(state))
        self._pickled_rows = state

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._transactions)

    def __iter__(self) -> Iterator[frozenset[str]]:
        return iter(self._transactions)

    def __getitem__(self, tid: int) -> frozenset[str]:
        return self._transactions[tid]

    def __repr__(self) -> str:
        return f"TransactionDB({len(self._transactions)} transactions, {len(self._index)} items)"

    @property
    def items(self) -> tuple[str, ...]:
        """All items that occur at least once, sorted."""
        return tuple(sorted(self._index))

    def item_bitsets(self) -> Mapping[str, int]:
        """Every item's tid bitset: bit ``t`` is set when row ``t`` holds it.

        A read-only view of the index, listing each item that occurs at
        least once.
        """
        return MappingProxyType(self._index)

    # -- support queries ---------------------------------------------------------

    def _cover(self, items: Iterable[str]) -> int:
        """The tid bitset of the rows holding every one of ``items``."""
        bits = (1 << len(self._transactions)) - 1
        get = self._index.get
        for item in items:
            bits &= get(item, 0)
        return bits

    def matching_ids(self, itemset: Itemset | Iterable[str]) -> frozenset[int]:
        """Ids of transactions containing every item of ``itemset``.

        The empty itemset matches every transaction.
        """
        bits = self._cover(Itemset(itemset))
        return frozenset(t for t, bit in enumerate(reversed(bin(bits))) if bit == "1")

    def count(self, itemset: Itemset | Iterable[str]) -> int:
        """Number of transactions containing ``itemset``."""
        return self._cover(Itemset(itemset)).bit_count()

    def support(self, itemset: Itemset | Iterable[str]) -> float:
        """Fraction of transactions containing ``itemset``.

        Raises :class:`EmptyDatabaseError` on an empty database, where
        support is undefined.
        """
        if not self._transactions:
            raise EmptyDatabaseError("support is undefined on an empty database")
        return self.count(itemset) / len(self._transactions)

    def rule_stats(self, rule: Rule) -> RuleStats:
        """Exact support and confidence of ``rule`` in this database.

        Confidence is defined as 0 when the antecedent never occurs
        (the conditional is vacuous), matching the convention that an
        unobserved habit is not a habit.
        """
        n = len(self._transactions)
        if not n:
            raise EmptyDatabaseError("rule stats are undefined on an empty database")
        antecedent = self._cover(rule.antecedent.items)
        get = self._index.get
        body = antecedent
        for item in rule.consequent.items:
            body &= get(item, 0)
        body_count = body.bit_count()
        support = body_count / n
        if rule.is_itemset_rule:
            return RuleStats(support, support)
        antecedent_count = antecedent.bit_count()
        confidence = 0.0 if antecedent_count == 0 else body_count / antecedent_count
        return RuleStats(support, confidence)

    def item_frequencies(self) -> dict[str, float]:
        """Support of every individual item, as a dict."""
        if not self._transactions:
            raise EmptyDatabaseError("frequencies are undefined on an empty database")
        n = len(self._transactions)
        return {item: bits.bit_count() / n for item, bits in self._index.items()}

    # -- derived databases ----------------------------------------------------------

    def project(self, items: Iterable[str]) -> "TransactionDB":
        """Restrict every transaction to ``items`` (empty rows kept)."""
        keep = frozenset(items)
        return TransactionDB(row & keep for row in self._transactions)

    def sample(self, n: int, rng) -> "TransactionDB":
        """A bootstrap sample of ``n`` transactions (with replacement)."""
        if not self._transactions:
            raise EmptyDatabaseError("cannot sample from an empty database")
        ids = rng.integers(0, len(self._transactions), size=n)
        return TransactionDB(self._transactions[int(i)] for i in ids)

    @classmethod
    def concatenate(cls, databases: Sequence["TransactionDB"]) -> "TransactionDB":
        """One database holding all transactions of ``databases`` in order."""
        def rows() -> Iterator[frozenset[str]]:
            for db in databases:
                yield from db
        return cls(rows())
