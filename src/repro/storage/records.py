"""The canonical rule key of the storage and serving layers.

Checkpoints travel as pickles (exact process state, byte-identical
resume), but what the system writes *next to* the pickle — the
answer log's rule column, the serving wire's question and answer
documents — names rules by a plain text key built here, so a saved
answer log stays inspectable with ordinary tools.

The **rule key** is the JSON encoding of the rule's two item lists
(``ensure_ascii=False``), not its display string: item names may
contain arbitrary punctuation and non-ASCII natural-language text, and
JSON escaping keeps the key unambiguous and round-trippable either way.
"""

from __future__ import annotations

import json
from functools import lru_cache

from repro.core.rule import Rule
from repro.io import PersistenceError

#: Rules whose keys :func:`rule_key` remembers. A served open question
#: lists the key of every known rule, and the answer log keys every
#: answer, so the same few hundred rules are keyed over and over; the
#: bound keeps the cache from growing across sessions.
_RULE_KEY_CACHE_SIZE = 4096


@lru_cache(maxsize=_RULE_KEY_CACHE_SIZE)
def rule_key(rule: Rule) -> str:
    """The canonical text key of a rule (unicode-safe, round-trippable)."""
    return json.dumps(
        [list(rule.antecedent.items), list(rule.consequent.items)],
        ensure_ascii=False,
        separators=(",", ":"),
    )


def rule_from_key(key: str) -> Rule:
    """Invert :func:`rule_key` (raises :class:`PersistenceError`)."""
    from repro.errors import InvalidRuleError

    try:
        antecedent, consequent = json.loads(key)
        return Rule(antecedent, consequent)
    except (ValueError, TypeError, InvalidRuleError) as exc:
        raise PersistenceError(f"malformed rule key: {key!r}") from exc
