"""Open-question behaviour: which habit does a member volunteer?

When asked an open question, a person reports something *prominent* in
their own life — not a uniform sample of their personal database. The
paper models exactly this: open answers surface significant patterns
quickly because people spontaneously recall their frequent habits.

:class:`OpenAnswerPolicy` holds the parameters of that behaviour and
:class:`HabitPool` carries it out against a materialized personal
database: mine the member's own rules once (the bitset itemset miner
of :mod:`repro.classic.itemsets` at *personal* thresholds, in
FP-Growth's order), score each rule by prominence (support ×
confidence, optionally sharpened), and sample proportionally —
excluding rules the asker says it already knows, so repeated open
questions to the same member keep yielding new information until the
member's memory is exhausted.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations, compress, count, repeat

import numpy as np

from repro._util import check_fraction, check_nonnegative, check_positive, weighted_index
from repro.classic.itemsets import itemset_masks, mask_items
from repro.core.itemset import Itemset
from repro.core.measures import RuleStats
from repro.core.rule import Rule
from repro.core.transactions import TransactionDB


@dataclass(slots=True)
class OpenAnswerPolicy:
    """Prominence-weighted sampling of a member's own rules.

    Parameters
    ----------
    personal_min_support / personal_min_confidence:
        Thresholds defining what counts as "a habit of mine" worth
        mentioning. These are *personal* significance levels — they are
        deliberately lower than typical query thresholds, since a
        member may mention habits the crowd overall does not share.
    max_body_size:
        People volunteer short patterns; cap the rule body size.
    sharpness:
        Exponent applied to prominence scores before sampling. 0 makes
        the member pick uniformly among their habits; large values make
        them always report their single most prominent habit.
    """

    personal_min_support: float = 0.05
    personal_min_confidence: float = 0.3
    max_body_size: int = 4
    sharpness: float = 2.0

    def __post_init__(self) -> None:
        check_fraction(self.personal_min_support, "personal_min_support")
        check_fraction(self.personal_min_confidence, "personal_min_confidence")
        check_nonnegative(self.sharpness, "sharpness")
        check_positive(self.max_body_size, "max_body_size")


def _antecedents(items: tuple) -> Iterator[tuple]:
    """The proper, non-empty antecedents of a rule body, in mining order.

    By size, then lexicographically — the order :meth:`Itemset.subsets`
    yields them and :func:`~repro.classic.rulegen.rules_from_itemsets`
    emits rules in.
    """
    return chain.from_iterable(combinations(items, k) for k in range(1, len(items)))


#: The bits of one 64-bit mask word.
_WORD = (1 << 64) - 1


class HabitPool:
    """Every rule one member could volunteer, stored as columns.

    The rules are those :func:`~repro.classic.rulegen.mine_rules` finds
    in the member's database at the policy's personal thresholds, in
    the same order, with the same support and confidence. Instead of a
    :class:`Rule` and a :class:`RuleStats` per habit, the pool keeps one
    entry per rule *body* (a frequent itemset, kept as the miner's mask
    over the member's frequent items, ranked by name) and, per rule,
    the body's index, a bit mask of which body items form the
    antecedent, the antecedent's mask, the confidence and the
    prominence weight. Names are read only for the rule a member picks.

    Building a pool runs no Python code per rule: each body's items are
    read off its mask words by lowest-set-bit steps, every antecedent's
    mask is a sum of those bits, and its count comes out of the miner's
    table by one ``searchsorted``. Excluding a known rule maps it to
    its body's mask and split once: the pool never changes, so it keeps
    the position of every excluded rule it holds, at most one entry
    per rule in the pool. A rule outside the pool costs its body's mask
    on every call, and is not kept.
    """

    __slots__ = (
        "_bit",
        "_names",
        "_bodies",
        "_body_ids",
        "_body_support",
        "_first_split",
        "_split_index",
        "_rule_of_split",
        "_body",
        "_mask",
        "_antecedent",
        "_confidence",
        "_prominence",
        "_positions",
    )

    def __init__(self, db: TransactionDB, policy: OpenAnswerPolicy) -> None:
        names, counts = itemset_masks(
            db, policy.personal_min_support, max_size=policy.max_body_size
        )
        n = max(1, len(db))
        # Every frequent itemset's mask as 64-bit words, and its count;
        # supports are ``count / n`` in float64, the same doubles the
        # Python division gives.
        words = _mask_words(list(counts), len(names))
        itemset_count = np.fromiter(counts.values(), np.float64, len(counts))
        sizes = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
        is_body = sizes > 1
        #: Body masks in mining order, and the reverse map mask -> index.
        self._bodies = list(compress(counts, is_body.tolist()))
        self._body_ids = dict(zip(self._bodies, count()))
        bodies = np.flatnonzero(is_body)
        sizes = sizes[bodies]
        body_support = itemset_count[bodies] / n
        # Every split of every body, in mining order (by body, then as
        # :func:`_antecedents` lists them).
        width = int(sizes.max(initial=2))
        splits = (1 << sizes) - 2
        split_body = np.repeat(np.arange(len(sizes)), splits)
        first_split = np.cumsum(splits) - splits
        table, offset, self._split_index = _split_table(width)
        split = (offset[sizes] - first_split)[split_body] + np.arange(len(split_body))
        # Each antecedent's mask is the sum of its items' bits; it is one
        # of the miner's itemsets (they are downward closed), whose count
        # gives the antecedent's support.
        antecedents = _subset_words(words[bodies], width)[split_body, table[split]]
        ant_support = itemset_count[_find_rows(words, antecedents)] / n
        confidence = np.minimum(1.0, body_support[split_body] / ant_support)
        kept = np.flatnonzero(confidence >= policy.personal_min_confidence)
        #: Item name -> its mask bit, for the frequent items.
        self._bit = {name: 1 << r for r, name in enumerate(names)}
        self._names = names
        self._body_support = body_support
        #: Per body, its first split; per split, its rule's position or -1.
        self._first_split = first_split
        self._rule_of_split = np.full(len(split), -1)
        self._rule_of_split[kept] = np.arange(len(kept))
        self._body = split_body[kept]
        self._mask = table[split[kept]]
        self._antecedent = antecedents[kept]
        self._confidence = confidence[kept]
        # Python's float power, not numpy's vectorized one: weights must
        # equal (s·c)**κ bit for bit, or the draws would drift. (x**0
        # is 1.)
        products = body_support[self._body] * self._confidence
        self._prominence = np.fromiter(
            map(pow, products.tolist(), repeat(policy.sharpness)),
            np.float64,
            len(products),
        )
        #: Excluded rule -> its position, for the rules in the pool.
        self._positions: dict[Rule, int] = {}

    def __len__(self) -> int:
        return len(self._body)

    def rules(self) -> Iterator[tuple[Rule, RuleStats]]:
        """Every rule in the pool with its true stats, in mining order."""
        for position in range(len(self)):
            yield self._rule_at(position)

    def choose(
        self,
        context: Itemset,
        avoid: Iterable[Rule],
        rng: np.random.Generator,
    ) -> tuple[Rule, RuleStats] | None:
        """Pick a rule to volunteer, or ``None`` when memory is exhausted.

        ``context`` (possibly empty) must be contained in the
        antecedent of the volunteered rule; ``avoid`` lists rules the
        member must not volunteer (already told, or already known to
        the asker) and may mention rules outside the pool. The draw is
        prominence-weighted over the remaining rules in pool order.
        """
        keep = np.ones(len(self), dtype=bool)
        keep[[p for p in map(self._position, avoid) if p >= 0]] = False
        if context:
            # context ⊆ antecedent. That alone also keeps the consequent
            # outside the context: the two sides of a rule are disjoint.
            wanted = self._mask_of(context.items)
            if wanted is None:
                return None
            for word, antecedents in enumerate(self._antecedent.T):
                part = np.uint64(wanted >> 64 * word & _WORD)
                keep &= antecedents & part == part
        candidates = np.flatnonzero(keep)
        if not len(candidates):
            return None
        # Weights are finite and non-negative by construction.
        pick = weighted_index(rng, self._prominence[candidates])
        return self._rule_at(int(candidates[pick]))

    def _mask_of(self, items: tuple[str, ...]) -> int | None:
        """The mask of ``items``, or ``None`` when one is not ranked here.

        Stops at the first such item: most rules an asker names are
        not the member's habits.
        """
        mask = 0
        for item in items:
            bit = self._bit.get(item)
            if bit is None:
                return None
            mask |= bit
        return mask

    def _position(self, rule: Rule) -> int:
        """The pool position of ``rule``, or -1 when it is not a habit here.

        A position found is kept for the pool's later calls.
        """
        position = self._positions.get(rule)
        if position is not None:
            return position
        body = rule.body.items
        index = self._body_ids.get(self._mask_of(body))
        if index is None:
            return -1
        antecedent = rule.antecedent.items
        local = sum(1 << k for k, item in enumerate(body) if item in antecedent)
        split = self._split_index[(1 << len(body)) + local]
        if split < 0:  # an itemset rule: every habit has an antecedent
            return -1
        position = self._rule_of_split.item(self._first_split.item(index) + split)
        if position >= 0:
            self._positions[rule] = position
        return position

    def _rule_at(self, position: int) -> tuple[Rule, RuleStats]:
        index = self._body.item(position)
        bits = self._mask.item(position)
        items = mask_items(self._bodies[index], self._names)
        antecedent = [item for k, item in enumerate(items) if bits >> k & 1]
        consequent = [item for k, item in enumerate(items) if not bits >> k & 1]
        stats = RuleStats(self._body_support.item(index), self._confidence.item(position))
        return Rule(antecedent, consequent), stats


def _mask_words(masks: list[int], n_items: int) -> np.ndarray:
    """Python ``int`` masks over ``n_items`` ranks as rows of ``uint64`` words."""
    width = max(1, (n_items + 63) // 64)
    raw = b"".join(map(int.to_bytes, masks, repeat(8 * width), repeat("little")))
    return np.frombuffer(raw, dtype="<u8").reshape(len(masks), width)


@cache
def _split_table(width: int) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Antecedent masks over body positions, for every body size to ``width``.

    Each size's masks are in :func:`_antecedents` order, and
    ``offset[m]`` is where size ``m``'s start. The last entry maps
    ``2**m + mask`` back to the mask's place among size ``m``'s, or -1
    for a mask that is no antecedent.
    """
    masks = [
        [sum(1 << p for p in positions) for positions in _antecedents(tuple(range(m)))]
        for m in range(2, width + 1)
    ]
    table = np.array(list(chain.from_iterable(masks)), dtype=np.int32)
    offset = np.zeros(width + 1, dtype=np.int64)
    offset[2:] = np.cumsum([0, *map(len, masks)])[:-1]
    for shared in (table, offset):
        shared.flags.writeable = False  # shared by every pool
    index = [-1] * (2 << width)
    for m, size_masks in enumerate(masks, start=2):
        for k, mask in enumerate(size_masks):
            index[(1 << m) + mask] = k
    return table, offset, tuple(index)


def _subset_words(words: np.ndarray, width: int) -> np.ndarray:
    """Per body, the mask of every subset of its items, as ``uint64`` words.

    ``words`` holds each body's mask, of at most ``width`` items. Entry
    ``[b, local]`` is the subset of body ``b`` whose items, numbered by
    rank within the body, are the set bits of ``local``, so a split's
    antecedent is its body's entry at the split's antecedent mask. Each
    lowest-set-bit step takes every body's next item: the lowest set
    bit of its lowest word that has one. The table holds ``2**width``
    masks per body.
    """
    rest = words.copy()
    subsets = np.zeros((len(words), 1 << width, words.shape[1]), dtype=np.uint64)
    for k in range(width):
        low = rest & -rest
        for word in range(1, words.shape[1]):
            low[low[:, :word].any(axis=1), word] = 0
        rest ^= low
        subsets[:, 1 << k : 2 << k] = subsets[:, : 1 << k] | low[:, None]
    return subsets


def _find_rows(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The index in ``table`` of each of ``rows`` (every one is there).

    One ``searchsorted`` over the last word, asked in ascending order:
    each search then starts from the last hit, which on the largest
    pools more than pays for sorting the rows. Wider
    keys are first folded into one, word by word: each key is replaced
    by its rank among the table's keys, which keeps it below the
    table's length.
    """
    key, query = table[:, -1], rows[:, -1]
    for w in range(table.shape[1] - 2, -1, -1):
        high, low = np.unique(key), np.unique(table[:, w])
        key = np.searchsorted(high, key) * len(low) + np.searchsorted(low, table[:, w])
        query = np.searchsorted(high, query) * len(low) + np.searchsorted(low, rows[:, w])
    order, asked = np.argsort(key), np.argsort(query)
    found = np.empty(len(query), dtype=np.int64)
    found[asked] = order[np.searchsorted(key[order], query[asked])]
    return found
