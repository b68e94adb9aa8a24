"""Materialized transaction databases.

The paper's personal databases ``D_u`` are *virtual* — they exist only
in crowd members' heads. To simulate a crowd (and to run the classic
miners that provide ground truth and baselines) we need their
materialized counterpart: :class:`TransactionDB`, a bag of transactions
where each transaction is a set of items representing one occasion.

The implementation keeps a per-item inverted index (item → frozenset
of transaction ids) so support counting of an itemset is a set
intersection — fast enough for the tens of thousands of transactions
the experiments use, with no native extensions. The itemset miner
(:mod:`repro.classic.itemsets`) builds its own tid bitsets (Python
ints) from the rows.
"""

from __future__ import annotations

import pickle
from collections.abc import Iterable, Iterator, Sequence

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
        rows: list[frozenset[str]] = []
        index: dict[str, set[int]] = {}
        for tid, raw in enumerate(transactions):
            row = frozenset(raw)
            rows.append(row)
            for item in row:
                index.setdefault(item, set()).add(tid)
        self._transactions: tuple[frozenset[str], ...] = tuple(rows)
        self._index: dict[str, frozenset[int]] = {
            item: frozenset(tids) for item, tids in index.items()
        }
        self._pickled_rows: bytes | None = None

    def __getstate__(self) -> bytes:
        # Only the rows travel; the inverted index is rebuilt on load.
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

    # -- support queries ---------------------------------------------------------

    def matching_ids(self, itemset: Itemset | Iterable[str]) -> frozenset[int]:
        """Ids of transactions containing every item of ``itemset``.

        The empty itemset matches every transaction.
        """
        items = tuple(Itemset(itemset))
        if not items:
            return frozenset(range(len(self._transactions)))
        try:
            postings = sorted((self._index[item] for item in items), key=len)
        except KeyError:
            return frozenset()
        result = set(postings[0])
        for posting in postings[1:]:
            result &= posting
            if not result:
                break
        return frozenset(result)

    def count(self, itemset: Itemset | Iterable[str]) -> int:
        """Number of transactions containing ``itemset``."""
        return len(self.matching_ids(itemset))

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
        if not self._transactions:
            raise EmptyDatabaseError("rule stats are undefined on an empty database")
        body_count = self.count(rule.body)
        support = body_count / len(self._transactions)
        if rule.is_itemset_rule:
            return RuleStats(support, support)
        antecedent_count = self.count(rule.antecedent)
        confidence = 0.0 if antecedent_count == 0 else body_count / antecedent_count
        return RuleStats(support, confidence)

    def item_frequencies(self) -> dict[str, float]:
        """Support of every individual item, as a dict."""
        if not self._transactions:
            raise EmptyDatabaseError("frequencies are undefined on an empty database")
        n = len(self._transactions)
        return {item: len(tids) / n for item, tids in self._index.items()}

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
