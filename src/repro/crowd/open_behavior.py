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

from repro._util import check_fraction, check_nonnegative, check_positive, weighted_choice
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


_ONE = np.uint64(1)
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

    Building a pool runs no Python code per rule: every antecedent's
    mask comes out of one array product, and its count out of the
    miner's table by one ``searchsorted``. Excluding a known rule maps
    it to its body's mask and split.
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
    )

    def __init__(self, db: TransactionDB, policy: OpenAnswerPolicy) -> None:
        names, counts = itemset_masks(
            db, policy.personal_min_support, max_size=policy.max_body_size
        )
        n = max(1, len(db))
        sizes = list(map(int.bit_count, counts))
        is_body = list(map((1).__lt__, sizes))
        #: Body masks in mining order, and the reverse map mask -> index.
        self._bodies = list(compress(counts, is_body))
        self._body_ids = dict(zip(self._bodies, count()))
        sizes = np.array(list(compress(sizes, is_body)), dtype=np.int64)
        # Every frequent itemset's mask as 64-bit words, and its count;
        # supports are ``count / n`` in float64, the same doubles the
        # Python division gives.
        words = _mask_words(list(counts), len(names))
        itemset_count = np.fromiter(counts.values(), np.float64, len(counts))
        body_support = itemset_count[is_body] / n
        ranks = _rank_matrix(words[is_body], sizes)
        # Every split of every body, in mining order (by body, then as
        # :func:`_antecedents` lists them).
        splits = (1 << sizes) - 2
        split_body = np.repeat(np.arange(len(sizes)), splits)
        first_split = np.cumsum(splits) - splits
        table, offset, taken, self._split_index = _split_table(ranks.shape[1])
        split = (offset[sizes] - first_split)[split_body] + np.arange(len(split_body))
        # Each antecedent's mask is the sum of its items' bits; it is one
        # of the miner's itemsets (they are downward closed), whose count
        # gives the antecedent's support.
        antecedents = _antecedent_words(taken[split], ranks, split_body, words.shape[1])
        ant_support = itemset_count[_find_rows(words, antecedents)] / n
        confidence = np.minimum(1.0, body_support[split_body] / ant_support)
        keep = confidence >= policy.personal_min_confidence
        #: Item name -> its mask bit, for the frequent items.
        self._bit = {name: 1 << r for r, name in enumerate(names)}
        self._names = names
        self._body_support = body_support
        #: Per body, its first split; per split, its rule's position or -1.
        self._first_split = first_split
        self._rule_of_split = np.where(keep, np.cumsum(keep) - 1, -1)
        self._body = split_body[keep]
        self._mask = table[split[keep]]
        self._antecedent = antecedents[keep]
        self._confidence = confidence[keep]
        # Python's float power, not numpy's vectorized one: weights must
        # equal (s·c)**κ bit for bit, or the draws would drift. (x**0
        # is 1.)
        products = body_support[self._body] * self._confidence
        self._prominence = np.fromiter(
            map(pow, products.tolist(), repeat(policy.sharpness)),
            np.float64,
            len(products),
        )

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
        pick = weighted_choice(
            rng, range(len(candidates)), self._prominence[candidates]
        )
        return self._rule_at(int(candidates[pick]))

    def _mask_of(self, items: tuple[str, ...]) -> int | None:
        """The mask of ``items``, or ``None`` when one is not ranked here."""
        absent = 1 << len(self._names)
        mask = sum(map(self._bit.get, items, repeat(absent)))
        return None if mask >= absent else mask

    def _position(self, rule: Rule) -> int:
        """The pool position of ``rule``, or -1 when it is not a habit here."""
        body = rule.body.items
        index = self._body_ids.get(self._mask_of(body))
        if index is None:
            return -1
        antecedent = rule.antecedent.items
        local = sum(1 << k for k, item in enumerate(body) if item in antecedent)
        split = self._split_index[(1 << len(body)) + local]
        if split < 0:  # an itemset rule: every habit has an antecedent
            return -1
        return self._rule_of_split.item(self._first_split.item(index) + split)

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


def _rank_matrix(words: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per mask row, the ranks of its set bits ascending.

    Rows are padded with ``64 * words.shape[1]``, a rank past every
    item.
    """
    per_row = 64 * words.shape[1]
    ranks = np.full((len(words), int(sizes.max(initial=2))), per_row, dtype=np.uint64)
    flags = np.unpackbits(words.view(np.uint8), bitorder="little")
    row, rank = np.divmod(np.flatnonzero(flags), per_row)
    ranks[row, np.arange(len(row)) - (np.cumsum(sizes) - sizes)[row]] = rank
    return ranks


@cache
def _split_table(
    width: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]:
    """Antecedent masks over body positions, for every body size to ``width``.

    Each size's masks are in :func:`_antecedents` order, and
    ``offset[m]`` is where size ``m``'s start; row ``k`` of the 0/1
    matrix lists mask ``k``'s bits. The last entry maps ``2**m + mask``
    back to the mask's place among size ``m``'s, or -1 for a mask that
    is no antecedent.
    """
    masks = [
        [sum(1 << p for p in positions) for positions in _antecedents(tuple(range(m)))]
        for m in range(2, width + 1)
    ]
    table = np.array(list(chain.from_iterable(masks)), dtype=np.int32)
    offset = np.zeros(width + 1, dtype=np.int64)
    offset[2:] = np.cumsum([0, *map(len, masks)])[:-1]
    taken = (table[:, None] >> np.arange(width) & 1).astype(np.uint64)
    for shared in (table, offset, taken):
        shared.flags.writeable = False  # shared by every pool
    index = [-1] * (2 << width)
    for m, size_masks in enumerate(masks, start=2):
        for k, mask in enumerate(size_masks):
            index[(1 << m) + mask] = k
    return table, offset, taken, tuple(index)


def _antecedent_words(
    taken: np.ndarray, ranks: np.ndarray, split_body: np.ndarray, width: int
) -> np.ndarray:
    """Per split, the antecedent's mask as ``width`` ``uint64`` words.

    ``taken`` marks, per split, which body positions form the
    antecedent; ``ranks`` holds each body's item ranks by position.
    Word ``w`` of a mask is the row-wise dot product of the split's
    ``taken`` row with its body's bits in word ``w``.
    """
    bits = _ONE << (ranks & 63)
    word = ranks >> 6
    return np.stack(
        [
            np.einsum("ij,ij->i", taken, np.where(word == w, bits, 0)[split_body])
            for w in range(width)
        ],
        axis=1,
    )


def _find_rows(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The index in ``table`` of each of ``rows`` (every one is there).

    One ``searchsorted`` over the last word. Wider keys are first
    folded into one, word by word: each key is replaced by its rank
    among the table's keys, which keeps it below the table's length.
    """
    key, query = table[:, -1], rows[:, -1]
    for w in range(table.shape[1] - 2, -1, -1):
        high, low = np.unique(key), np.unique(table[:, w])
        key = np.searchsorted(high, key) * len(low) + np.searchsorted(low, table[:, w])
        query = np.searchsorted(high, query) * len(low) + np.searchsorted(low, rows[:, w])
    order = np.argsort(key)
    return order[np.searchsorted(key[order], query)]
