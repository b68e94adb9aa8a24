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
from itertools import chain, combinations

import numpy as np

from repro._util import check_fraction, check_nonnegative, weighted_choice
from repro.classic.itemsets import itemset_counts
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
        if self.max_body_size < 1:
            raise ValueError("max_body_size must be at least 1")


def _antecedents(items: tuple) -> Iterator[tuple]:
    """The proper, non-empty antecedents of a rule body, in mining order.

    By size, then lexicographically — the order :meth:`Itemset.subsets`
    yields them and :func:`~repro.classic.rulegen.rules_from_itemsets`
    emits rules in.
    """
    return chain.from_iterable(combinations(items, k) for k in range(1, len(items)))


@cache
def _masks(size: int) -> np.ndarray:
    """Antecedent bit masks over body positions, in :func:`_antecedents` order."""
    masks = np.array(
        [sum(1 << p for p in positions) for positions in _antecedents(tuple(range(size)))],
        dtype=np.int32,
    )
    masks.flags.writeable = False  # shared by every pool
    return masks


class HabitPool:
    """Every rule one member could volunteer, stored as columns.

    The rules are those :func:`~repro.classic.rulegen.mine_rules` finds
    in the member's database at the policy's personal thresholds, in
    the same order, with the same support and confidence. Instead of a
    :class:`Rule` and a :class:`RuleStats` per habit, the pool keeps one
    entry per rule *body* (a frequent itemset) and, per rule, the body's
    index, a bit mask of which body items form the antecedent, the
    confidence and the prominence weight. A body × mask table finds a
    rule's position, so excluding known rules costs one lookup each.
    Objects are built only for the rule a member picks.
    """

    __slots__ = (
        "_bodies",
        "_body_ids",
        "_body_support",
        "_first_slot",
        "_slots",
        "_body",
        "_mask",
        "_confidence",
        "_prominence",
    )

    def __init__(self, db: TransactionDB, policy: OpenAnswerPolicy) -> None:
        counts = itemset_counts(
            db, policy.personal_min_support, max_size=policy.max_body_size
        )
        # Support of every frequent itemset, as ``count / n`` in float64:
        # the same doubles the Python division gives.
        support = np.array(list(counts.values()), dtype=np.float64) / max(1, len(db))
        position = {items: k for k, items in enumerate(counts)}
        bodies = [items for items in counts if len(items) > 1]
        # Every split of every body, in mining order (by body, then as
        # :func:`_antecedents` lists them). The miner's itemsets are
        # downward closed, so every antecedent is listed, with a
        # positive support.
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
        # Bodies without one confident split are left out.
        kept = np.zeros(len(bodies), dtype=bool)
        kept[split_body[keep]] = True
        #: Body item tuples, and the reverse map body → index.
        self._bodies: list[tuple[str, ...]] = [
            items for items, k in zip(bodies, kept.tolist()) if k
        ]
        self._body_ids = {items: k for k, items in enumerate(self._bodies)}
        self._body_support = body_support[kept]
        width = 1 << sizes[kept]
        self._first_slot = np.cumsum(width) - width
        self._body = (np.cumsum(kept) - 1)[split_body[keep]].astype(np.int32)
        self._mask = mask[keep]
        self._confidence = confidence[keep]
        self._slots = np.full(int(width.sum()), -1, dtype=np.int32)
        self._slots[self._first_slot[self._body] + self._mask] = np.arange(
            len(self._body), dtype=np.int32
        )
        # One Python float power per rule, not numpy's vectorized one:
        # weights must equal (s·c)**κ bit for bit, or the draws would
        # drift. (x**0 is 1.)
        sharpness = policy.sharpness
        self._prominence = np.array(
            [
                (s * c) ** sharpness
                for s, c in zip(
                    self._body_support[self._body].tolist(), self._confidence.tolist()
                )
            ],
            dtype=np.float64,
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
        avoided = [p for p in map(self._position, avoid) if p >= 0]
        keep[avoided] = False
        # context ⊆ antecedent. That alone also keeps the consequent
        # outside the context: the two sides of a rule are disjoint.
        for item in context:
            keep &= (self._mask & self._item_bits(item)[self._body]) != 0
        candidates = np.flatnonzero(keep)
        if not len(candidates):
            return None
        pick = weighted_choice(
            rng, range(len(candidates)), self._prominence[candidates]
        )
        return self._rule_at(int(candidates[pick]))

    def _position(self, rule: Rule) -> int:
        """The pool position of ``rule``, or -1 when it is not a habit here."""
        index = self._body_ids.get(rule.body.items)
        if index is None:
            return -1
        items = self._bodies[index]
        bits = 0
        for item in rule.antecedent:
            bits |= 1 << items.index(item)
        return int(self._slots[self._first_slot[index] + bits])

    def _item_bits(self, item: str) -> np.ndarray:
        """Per body: the mask bit of ``item``, or 0 when the body lacks it."""
        return np.fromiter(
            (1 << items.index(item) if item in items else 0 for items in self._bodies),
            dtype=np.int32,
            count=len(self._bodies),
        )

    def _rule_at(self, position: int) -> tuple[Rule, RuleStats]:
        index = int(self._body[position])
        bits = int(self._mask[position])
        items = self._bodies[index]
        antecedent = [item for k, item in enumerate(items) if bits >> k & 1]
        consequent = [item for k, item in enumerate(items) if not bits >> k & 1]
        stats = RuleStats(
            float(self._body_support[index]), float(self._confidence[position])
        )
        return Rule(antecedent, consequent), stats
