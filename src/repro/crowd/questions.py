"""Question and answer types exchanged with the crowd.

The mining algorithm communicates with crowd members exclusively
through these value objects — it never sees a personal database. Two
question types, following the paper:

- :class:`ClosedQuestion` — "how often ...?" about one specified rule;
  the answer reports that rule's (perceived) support and confidence.
- :class:`OpenQuestion` — "tell us something you do", optionally in a
  context ("... when you have a headache"); the answer volunteers a
  rule prominent in the member's own history, with its stats.

Answers carry the answering member's id so multi-user aggregation can
group samples per member, and so per-member consistency checks
(spammer filtering) have something to key on.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from repro.core.itemset import Itemset
from repro.core.measures import RuleStats
from repro.core.rule import Rule


@dataclass(frozen=True, slots=True)
class ClosedQuestion:
    """Ask a member for the support/confidence of a specific rule."""

    rule: Rule

    def __str__(self) -> str:
        return f"ClosedQuestion({self.rule})"


@dataclass(frozen=True, slots=True)
class OpenQuestion:
    """Ask a member to volunteer a habit of their own.

    ``context`` restricts the request: a non-empty context asks for a
    habit whose antecedent contains those items ("when you have a
    headache, what do you do?"). The empty context is the fully open
    "tell us about a habit".
    """

    context: Itemset = Itemset.empty()

    def __str__(self) -> str:
        if self.context:
            return f"OpenQuestion(context={self.context})"
        return "OpenQuestion()"


@dataclass(frozen=True, slots=True)
class ClosedAnswer:
    """A member's reply to a closed question.

    ``stats`` is the member's (noisy, coarsened) perception of the
    rule's support/confidence in their own life.
    """

    member_id: str
    question: ClosedQuestion
    stats: RuleStats

    @property
    def rule(self) -> Rule:
        """The rule the answer is about."""
        return self.question.rule


class DeferredClosedAnswer(ClosedAnswer):
    """A closed answer whose ``stats`` are simulated at their first read.

    A simulated crowd issues one in place of a resolved
    :class:`ClosedAnswer` when simulating can wait. It carries the
    recipe (member and question) and a ``simulate`` callable, which
    the first read of :attr:`stats` calls once; the result is kept and
    the callable released. The miner reads an answer's stats only
    after its malformed, rejected and stale gates, so an answer
    discarded in flight — or never delivered — is never simulated.
    ``simulate`` must return exactly what simulating at issue would
    have (see :class:`~repro.crowd.crowd.SimulatedCrowd` for how the
    crowd keeps each member's answers in issue order).

    An unread answer pickles as its recipe and callable, and nothing
    is simulated; a read one pickles as a plain :class:`ClosedAnswer`.
    """

    __slots__ = ("_simulate", "_stats")

    def __init__(
        self,
        member_id: str,
        question: ClosedQuestion,
        simulate: Callable[[], RuleStats],
    ) -> None:
        # Frozen: set the slots the way the generated __init__ does.
        object.__setattr__(self, "member_id", member_id)
        object.__setattr__(self, "question", question)
        object.__setattr__(self, "_simulate", simulate)
        object.__setattr__(self, "_stats", None)

    @property
    def stats(self) -> RuleStats:  # type: ignore[override]
        """The reported stats, simulated now if this is the first read."""
        stats = self._stats
        if stats is None:
            stats = self._simulate()
            object.__setattr__(self, "_stats", stats)
            object.__setattr__(self, "_simulate", None)
        return stats

    def __reduce__(self):
        if self._stats is None:
            return (type(self), (self.member_id, self.question, self._simulate))
        return (ClosedAnswer, (self.member_id, self.question, self._stats))


@dataclass(frozen=True, slots=True)
class OpenAnswer:
    """A member's reply to an open question.

    ``rule``/``stats`` are ``None`` when the member has nothing (new)
    to report for the requested context — the paper's "none of these" /
    exhausted-memory outcome, which is itself informative: it tells the
    miner this member's discovery well is dry.
    """

    member_id: str
    question: OpenQuestion
    rule: Rule | None
    stats: RuleStats | None

    def __post_init__(self) -> None:
        if (self.rule is None) != (self.stats is None):
            raise ValueError("open answer must carry both rule and stats, or neither")

    @property
    def is_empty(self) -> bool:
        """True when the member volunteered nothing."""
        return self.rule is None


#: Union type for anything a member can hand back.
Answer = ClosedAnswer | OpenAnswer


@dataclass(frozen=True, slots=True)
class MalformedAnswer:
    """A reply that could not be parsed into an answer.

    Real front-ends receive free text, and free text is sometimes
    garbage — a typo'd number pair, an incoherent support/confidence
    order, a rule that does not parse. Rather than raising mid-session
    (which would kill the whole mining run over one bad line), the
    member layer wraps the unusable reply in this value object; the
    miner's validation gate counts and drops it.

    ``raw_text`` is the offending input (when available) and ``error``
    the parse failure's message, so sessions can audit what the crowd
    actually sent.
    """

    member_id: str
    question: ClosedQuestion | OpenQuestion
    raw_text: str
    error: str


#: Everything the crowd can deliver, parseable or not.
AnyAnswer = Answer | MalformedAnswer


@dataclass(frozen=True, slots=True)
class InFlightAnswer:
    """An answer travelling through simulated time.

    The asynchronous crowd interface fixes the answer at issue — the
    member's reply does not depend on when it is read — and stamps it
    with the simulated instant it becomes visible to the miner. The
    simulated crowd hands back a :class:`DeferredClosedAnswer` for a
    closed question, simulated when the miner first reads its stats,
    to the value simulating at issue would give; an open answer, and a
    closed answer whose model shares its draws across members, are
    simulated right away.
    ``arrives_at`` of ``inf`` models mid-flight loss — the member
    closed the tab and the answer never lands.
    """

    answer: AnyAnswer
    issued_at: float
    arrives_at: float

    @property
    def delay(self) -> float:
        """Simulated seconds between asking and the answer landing."""
        return self.arrives_at - self.issued_at

    @property
    def is_lost(self) -> bool:
        """True when the answer will never arrive (mid-flight dropout)."""
        return math.isinf(self.arrives_at)
