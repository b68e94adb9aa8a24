"""Association rules over itemsets.

A rule ``A → B`` states that on occasions where the itemset ``A``
happens, ``B`` tends to happen too. In the crowd-mining model, per-user
support is ``supp_u(A ∪ B)`` (how common the whole combination is in
the user's life) and confidence is ``supp_u(A ∪ B) / supp_u(A)`` (how
reliably ``B`` accompanies ``A``).

Rules carry their own *generalization* partial order, derived from the
itemset subset order: ``r ⪯ r'`` (``r`` generalizes ``r'``) when
``r.antecedent ⊆ r'.antecedent`` and ``r.consequent ⊆ r'.consequent``.
Support is antitone along this order — adding items can only shrink
support — which the miner exploits for consistency checks and pruning.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cached_property

from repro.core.itemset import Itemset
from repro.errors import InvalidRuleError


class Rule:
    """An association rule ``antecedent → consequent``.

    Structural constraints:

    - the consequent is non-empty (a rule must claim something);
    - antecedent and consequent are disjoint;
    - the antecedent *may* be empty, in which case the rule degenerates
      to a plain frequent-itemset claim (confidence equals support).

    Examples
    --------
    >>> r = Rule.parse("sore throat -> ginger tea, honey")
    >>> str(r)
    '{sore throat} -> {ginger tea, honey}'
    >>> r.body == Itemset(["sore throat", "ginger tea", "honey"])
    True
    """

    __slots__ = ("_antecedent", "_consequent", "_hash", "__dict__")

    def __init__(
        self,
        antecedent: Itemset | Iterable[str],
        consequent: Itemset | Iterable[str],
    ) -> None:
        antecedent = Itemset(antecedent)
        consequent = Itemset(consequent)
        if not consequent:
            raise InvalidRuleError("rule consequent must be non-empty")
        if not antecedent.isdisjoint(consequent):
            overlap = antecedent & consequent
            raise InvalidRuleError(
                f"antecedent and consequent must be disjoint; both contain {overlap}"
            )
        self._antecedent = antecedent
        self._consequent = consequent
        self._hash = hash((antecedent, consequent))

    # -- accessors ---------------------------------------------------------------

    @property
    def antecedent(self) -> Itemset:
        """The ``A`` of ``A → B``; may be empty."""
        return self._antecedent

    @property
    def consequent(self) -> Itemset:
        """The ``B`` of ``A → B``; never empty."""
        return self._consequent

    @cached_property
    def body(self) -> Itemset:
        """All items of the rule: ``A ∪ B``. Support is computed over this."""
        # Both sides are sorted, checked and disjoint: merging the two
        # runs is the whole union.
        return Itemset._of_sorted(
            tuple(sorted(self._antecedent.items + self._consequent.items))
        )

    @property
    def is_itemset_rule(self) -> bool:
        """True when the antecedent is empty (plain itemset-frequency claim)."""
        return not self._antecedent

    def __len__(self) -> int:
        return len(self.body)

    # -- equality / ordering -----------------------------------------------------------

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # Positional, as the two item tuples: a checkpoint pickles every
        # known rule, and two plain tuples cost less than two nested
        # Itemset states. The cached hash is salted per-process and the
        # cached ``body`` (held in ``__dict__``) is recomputed lazily;
        # loading re-runs the constructor's validation.
        return Rule, (self._antecedent._items, self._consequent._items)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Rule):
            return (
                self._antecedent == other._antecedent
                and self._consequent == other._consequent
            )
        return NotImplemented

    def generalizes(self, other: "Rule") -> bool:
        """True when ``self ⪯ other`` in the rule generalization order.

        ``self`` generalizes ``other`` iff each side of ``self`` is a
        subset of the corresponding side of ``other``. A rule
        generalizes itself.
        """
        return self._antecedent.issubset(other._antecedent) and self._consequent.issubset(
            other._consequent
        )

    def specializes(self, other: "Rule") -> bool:
        """True when ``other`` generalizes ``self``."""
        return other.generalizes(self)

    # -- display -------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Rule({list(self._antecedent.items)!r}, {list(self._consequent.items)!r})"

    def __str__(self) -> str:
        return f"{self._antecedent} -> {self._consequent}"

    def sort_key(self) -> tuple:
        """A deterministic sort key (by size then lexicographic items)."""
        return (
            len(self.body),
            self._antecedent.items,
            self._consequent.items,
        )

    # -- construction --------------------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Rule":
        """Parse ``"a, b -> c"`` notation into a rule.

        Item names are comma-separated and whitespace-trimmed; the
        antecedent may be empty (``"-> c"``).

        >>> Rule.parse("-> tea").is_itemset_rule
        True
        """
        if "->" not in text:
            raise InvalidRuleError(f"rule text must contain '->': {text!r}")
        left, _, right = text.partition("->")
        antecedent = [part.strip() for part in left.split(",") if part.strip()]
        consequent = [part.strip() for part in right.split(",") if part.strip()]
        return cls(antecedent, consequent)

    @classmethod
    def itemset_rule(cls, items: Itemset | Iterable[str]) -> "Rule":
        """A degenerate rule ``∅ → items`` expressing itemset frequency."""
        return cls(Itemset.empty(), items)
