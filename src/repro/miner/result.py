"""Mining session results and the per-question event log.

A finished (or interrupted) session yields a :class:`MiningResult`: the
reported significant rules (with estimated stats), the semantically
concise maximal subset, the interaction cost, and the complete
question-by-question log for auditing and evaluation replay.
"""

from __future__ import annotations

import enum
import hashlib
import json
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.measures import RuleStats
from repro.core.order import maximal_rules
from repro.core.rule import Rule
from repro.obs import ObsSnapshot

if TYPE_CHECKING:  # the dispatch package imports the miner, never the reverse
    from repro.dispatch.dispatcher import DispatchStats


class QuestionKind(enum.Enum):
    """What kind of question an event records."""

    CLOSED = "closed"
    OPEN = "open"


@dataclass(frozen=True, slots=True)
class QuestionEvent:
    """One question/answer exchange in the session log.

    ``rule`` / ``stats`` are ``None`` for open questions that came back
    empty.
    """

    index: int
    kind: QuestionKind
    member_id: str
    rule: Rule | None
    stats: RuleStats | None

    @property
    def is_empty_open(self) -> bool:
        """True for a dry open answer."""
        return self.kind is QuestionKind.OPEN and self.rule is None

    def __reduce__(self) -> tuple:
        # Positional, like RuleStats.
        return QuestionEvent, (self.index, self.kind, self.member_id, self.rule, self.stats)


#: Kind codes of the question log's kind column.
_KINDS: tuple[QuestionKind, ...] = tuple(QuestionKind)
_KIND_CODES: dict[QuestionKind, int] = {kind: code for code, kind in enumerate(_KINDS)}


class QuestionLog(Sequence[QuestionEvent]):
    """A session's question-by-question log, stored as columns.

    Appending takes a :class:`QuestionEvent`; reading (indexing,
    iteration) builds one per position, equal to the appended event.
    The event's index is its position, so it is not stored. The columns
    are a kind code per question, the member ids, the rules (``None``
    for a dry open answer) and support/confidence as ``array('d')``
    (0.0 where a dry open answer has no stats): a checkpoint pickles
    the whole log, and columns pickle as a few arrays and lists
    instead of one event and one :class:`RuleStats` per question.

    >>> log = QuestionLog()
    >>> event = QuestionEvent(0, QuestionKind.OPEN, "u1", None, None)
    >>> log.append(event)
    >>> log == [event]
    True
    """

    __slots__ = ("_kinds", "_members", "_rules", "_support", "_confidence")

    def __init__(self) -> None:
        self._kinds = bytearray()
        self._members: list[str] = []
        self._rules: list[Rule | None] = []
        self._support = array("d")
        self._confidence = array("d")

    def append(self, event: QuestionEvent) -> None:
        """Record the next question's event (its index must be the log length)."""
        if event.index != len(self._members):
            raise ValueError(
                f"event index {event.index} does not follow a log of "
                f"{len(self._members)} questions"
            )
        stats = event.stats
        if (stats is None) != (event.rule is None):
            raise ValueError("an event has stats exactly when it has a rule")
        self._kinds.append(_KIND_CODES[event.kind])
        self._members.append(event.member_id)
        self._rules.append(event.rule)
        self._support.append(0.0 if stats is None else stats.support)
        self._confidence.append(0.0 if stats is None else stats.confidence)

    def snapshot(self) -> "QuestionLog":
        """A copy of the log as it stands: later appends do not reach it.

        Copies the columns, not one event per question.
        """
        copy = QuestionLog.__new__(QuestionLog)
        copy._kinds = self._kinds.copy()
        copy._members = self._members.copy()
        copy._rules = self._rules.copy()
        copy._support = array("d", self._support)
        copy._confidence = array("d", self._confidence)
        return copy

    def count_kind(self, kind: QuestionKind) -> int:
        """How many logged questions were of ``kind``."""
        return self._kinds.count(_KIND_CODES[kind])

    def _event(self, index: int) -> QuestionEvent:
        rule = self._rules[index]
        return QuestionEvent(
            index,
            _KINDS[self._kinds[index]],
            self._members[index],
            rule,
            None
            if rule is None
            else RuleStats(self._support[index], self._confidence[index]),
        )

    def __len__(self) -> int:
        return len(self._members)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._event(i) for i in range(*index.indices(len(self)))]
        size = len(self)
        if not -size <= index < size:
            raise IndexError("question log index out of range")
        return self._event(index % size)

    def __iter__(self) -> Iterator[QuestionEvent]:
        return map(self._event, range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    def __repr__(self) -> str:
        return f"QuestionLog({len(self)} questions)"


@dataclass(slots=True)
class MiningResult:
    """The outcome of a mining session.

    Attributes
    ----------
    significant:
        Reported significant rules with their estimated stats.
    questions_asked:
        Total questions spent (both kinds, including dry opens).
    closed_questions / open_questions:
        The split by kind.
    rules_discovered:
        How many distinct rules entered the knowledge base.
    inferred_classifications:
        Rules settled for free by lattice propagation.
    log:
        The full event log, in question order: the miner hands over a
        :meth:`QuestionLog.snapshot`, which builds each event when read.
    obs:
        Snapshot of the session's instrumentation (hot-path counters
        and timers), when the miner collected one.
    dispatch:
        Counters of the asynchronous dispatch engine (in-flight high
        water, timeouts, retries, stale discards, makespan), attached
        by :class:`~repro.dispatch.dispatcher.Dispatcher`; ``None``
        for plain synchronous sessions.
    """

    significant: dict[Rule, RuleStats]
    questions_asked: int
    closed_questions: int
    open_questions: int
    rules_discovered: int
    inferred_classifications: int
    log: Sequence[QuestionEvent] = field(default_factory=list)
    obs: ObsSnapshot | None = None
    dispatch: "DispatchStats | None" = None

    @property
    def maximal_significant(self) -> dict[Rule, RuleStats]:
        """The concise answer: only the most specific significant rules.

        Every omitted significant rule is a generalization of a kept
        one, hence implied by support antitonicity — the same
        redundancy-elimination the papers apply to their output.
        """
        kept = maximal_rules(list(self.significant))
        return {rule: self.significant[rule] for rule in kept}

    def top_k(self, k: int, by: str = "support") -> list[tuple[Rule, RuleStats]]:
        """The ``k`` strongest reported rules.

        ``by`` ranks by ``"support"``, ``"confidence"`` or
        ``"product"`` (support × confidence); ties break toward shorter
        rules then deterministically. The paper lists top-k retrieval
        as the natural output mode when users cannot absorb the full
        significant set.
        """
        keys = {
            "support": lambda stats: stats.support,
            "confidence": lambda stats: stats.confidence,
            "product": lambda stats: stats.support * stats.confidence,
        }
        if by not in keys:
            raise ValueError(f"unknown ranking {by!r}; choose from {sorted(keys)}")
        if k < 0:
            raise ValueError("k must be non-negative")
        ranked = sorted(
            self.significant.items(),
            key=lambda kv: (-keys[by](kv[1]), len(kv[0].body), kv[0].sort_key()),
        )
        return ranked[:k]

    def fingerprint(self) -> str:
        """A hex digest of everything deterministic about the session.

        Covers the question-by-question event log, the reported
        significant set (with full-precision stats) and the headline
        counts; excludes wall-clock artifacts (instrumentation timers,
        dispatch makespans). Two runs with the same seeds — including a
        run killed mid-session and resumed from a checkpoint — must
        produce equal fingerprints; this is the identity the
        kill-and-resume suite and the CI smoke job assert on.
        """
        doc = {
            "questions": self.questions_asked,
            "closed": self.closed_questions,
            "open": self.open_questions,
            "rules": self.rules_discovered,
            "inferred": self.inferred_classifications,
            "significant": sorted(
                (str(rule), stats.support, stats.confidence)
                for rule, stats in self.significant.items()
            ),
            "log": [
                (
                    event.index,
                    event.kind.value,
                    event.member_id,
                    None if event.rule is None else str(event.rule),
                    None
                    if event.stats is None
                    else (event.stats.support, event.stats.confidence),
                )
                for event in self.log
            ],
        }
        encoded = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(encoded.encode("utf-8")).hexdigest()

    def summary(self) -> str:
        """A short human-readable report of the session."""
        lines = [
            f"questions asked : {self.questions_asked} "
            f"({self.closed_questions} closed, {self.open_questions} open)",
            f"rules discovered: {self.rules_discovered} "
            f"({self.inferred_classifications} classified by inference)",
            f"significant     : {len(self.significant)} "
            f"({len(self.maximal_significant)} maximal)",
        ]
        for rule in sorted(self.maximal_significant, key=Rule.sort_key):
            stats = self.significant[rule]
            lines.append(f"  {rule}  {stats}")
        if self.dispatch is not None:
            lines.extend(self.dispatch.summary_lines())
        else:
            lines.append("dispatch: synchronous session (no dispatcher attached)")
        if self.obs is not None and self.obs.counters.get("storage.checkpoints"):
            counters = self.obs.counters
            line = (
                f"storage: {counters['storage.checkpoints']} checkpoints, "
                f"{counters.get('storage.answers_logged', 0)} answers logged"
            )
            bytes_on_disk = self.obs.gauges.get("storage.bytes_on_disk")
            if bytes_on_disk is not None:
                line += f", {int(bytes_on_disk.value)} bytes on disk"
            lines.append(line)
            checkpoint = self.obs.timers.get("storage.checkpoint")
            if checkpoint is not None:
                timing = (
                    f"storage: checkpoint {checkpoint.total_seconds:.3f}s "
                    f"({checkpoint.calls} calls)"
                )
                restore = self.obs.timers.get("storage.restore")
                if restore is not None and restore.calls:
                    timing += (
                        f", restore {restore.total_seconds:.3f}s "
                        f"({restore.calls} calls)"
                    )
                lines.append(timing)
        if self.obs is not None:
            counters = self.obs.counters
            degraded = {
                "append failures": counters.get("storage.append_failures", 0),
                "checkpoint failures": counters.get(
                    "storage.checkpoint_failures", 0
                ),
                "repaired checkpoints": counters.get("storage.repaired", 0),
            }
            if any(degraded.values()):
                lines.append(
                    "storage degraded: "
                    + ", ".join(f"{n} {what}" for what, n in degraded.items() if n)
                )
            serve = {
                "retries": counters.get("serve.retries", 0),
                "dedup hits": counters.get("serve.dedup_hits", 0),
                "backpressure rejections": counters.get(
                    "serve.backpressure_rejections", 0
                ),
            }
            if any(serve.values()):
                lines.append(
                    "serve: "
                    + ", ".join(f"{n} {what}" for what, n in serve.items() if n)
                )
            chaos = {
                name.removeprefix("chaos."): n
                for name, n in sorted(counters.items())
                if name.startswith("chaos.") and n
            }
            if chaos:
                lines.append(
                    "chaos faults injected: "
                    + ", ".join(f"{n} {what}" for what, n in chaos.items())
                )
        if self.obs is not None and (self.obs.counters or self.obs.timers):
            lines.append("session instrumentation:")
            lines.append(self.obs.format())
        return "\n".join(lines)
