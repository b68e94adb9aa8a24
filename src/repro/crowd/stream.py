"""Stream-driven crowd members: answers from a text protocol.

The simulated crowd answers questions from personal databases; a
*deployed* system gets answers from people. :class:`StreamMember`
bridges the two: it reads answers from any line-oriented text stream
(stdin for a live console session, a file for scripted replays, a
socket for a real front-end) using a small, human-writable protocol,
and answers the miner's questions from inside a
:class:`~repro.crowd.crowd.MemberCrowd`.

The simulated crowd's garbled members reply with lines from
:func:`garbage_text`, which this protocol's :func:`parse_stats`
rejects, so their replies fail exactly where a live one would.

Protocol (one line per answer):

- closed question → a frequency word (``never``, ``rarely``,
  ``sometimes``, ``often``, ``very often``) or two numbers
  ``support confidence``;
- open question → ``pass`` (nothing to report) or
  ``a, b -> c ; <frequency word or numbers>``.

Lines may carry a ``closed:`` or ``open:`` tag. Tagged lines are held
until a question of that kind arrives, so a script does not need to
predict the miner's interleaving of question types — it just provides
a pool of open answers and a pool of closed answers, each consumed in
order. Untagged lines answer whichever question comes next.

Blank lines and lines starting with ``#`` are skipped, so answer files
can be commented. A stream that runs out behaves like a member whose
patience ran out.
"""

from __future__ import annotations

import io
from collections.abc import Iterator

import numpy as np

from repro.core.measures import RuleStats
from repro.core.rule import Rule
from repro.crowd.nl import LIKERT_LABELS, QuestionRenderer
from repro.crowd.questions import (
    ClosedAnswer,
    ClosedQuestion,
    MalformedAnswer,
    OpenAnswer,
    OpenQuestion,
)
from repro.errors import CrowdExhaustedError, InvalidRuleError

#: Reverse mapping: frequency word → support value.
WORD_TO_VALUE = {word: value for value, word in LIKERT_LABELS.items()}


def parse_stats(text: str) -> RuleStats:
    """Parse a stats fragment: a frequency word or ``support confidence``.

    >>> parse_stats("often")
    RuleStats(support=0.75, confidence=0.75)
    >>> parse_stats("0.2 0.6").confidence
    0.6
    """
    text = text.strip().lower()
    if text in WORD_TO_VALUE:
        value = WORD_TO_VALUE[text]
        return RuleStats(value, value)
    parts = text.split()
    if len(parts) == 2:
        try:
            support, confidence = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError(f"cannot parse stats from {text!r}") from None
        if not (0.0 <= support <= 1.0 and 0.0 <= confidence <= 1.0):
            # Covers NaN too (every comparison with NaN is false).
            # Checked here so malformed input surfaces as ValueError —
            # the one exception this protocol layer is allowed to raise
            # — rather than leaking RuleStats' internal validation.
            raise ValueError(
                f"stats out of range in {text!r}: both numbers must be in [0, 1]"
            )
        if confidence < support:
            # supp(A∪B) ≤ supp(A) forces confidence ≥ support; a line
            # violating that is a typo to surface, not noise to absorb.
            raise ValueError(
                f"incoherent stats {text!r}: confidence ({confidence}) cannot "
                f"be below support ({support}) — no personal database "
                f"produces such a pair"
            )
        return RuleStats(support, confidence)
    raise ValueError(
        f"cannot parse stats from {text!r}; expected a frequency word "
        f"({', '.join(WORD_TO_VALUE)}) or two numbers"
    )


def garbage_text(rng: np.random.Generator) -> str:
    """One deterministic line of text that :func:`parse_stats` rejects.

    Drawn from the failure modes real free-text answers exhibit: prose
    instead of numbers, numbers out of range or incoherent
    (confidence < support), wrong arity, stray punctuation.
    """
    pools = (
        "i dunno maybe",
        "yes",
        "0.9 0.2",  # incoherent: confidence below support
        "often often often",
        "1.5 2.0",  # out of range
        "???",
        "0.3;0.6",
        "about half the time i guess",
        "-> ; often",
        "NaN NaN",
    )
    return pools[int(rng.integers(len(pools)))]


def parse_open_answer(text: str) -> tuple[Rule, RuleStats] | None:
    """Parse an open-answer line: ``pass`` or ``rule ; stats``.

    >>> parse_open_answer("pass") is None
    True
    >>> rule, stats = parse_open_answer("cough -> tea ; often")
    >>> str(rule)
    '{cough} -> {tea}'
    """
    text = text.strip()
    if text.lower() in ("pass", "none", "skip"):
        return None
    if ";" not in text:
        raise ValueError(
            f"open answer must be 'pass' or '<rule> ; <stats>', got {text!r}"
        )
    rule_part, _, stats_part = text.partition(";")
    try:
        rule = Rule.parse(rule_part)
    except InvalidRuleError as exc:
        raise ValueError(f"bad rule in open answer {text!r}: {exc}") from None
    return rule, parse_stats(stats_part)


class StreamMember:
    """A crowd member whose answers arrive on a text stream.

    Parameters
    ----------
    member_id:
        The member's identifier.
    stream:
        Any iterable of lines (an open file, ``sys.stdin``, a list).
    renderer:
        Optional :class:`~repro.crowd.nl.QuestionRenderer`; when given
        (plus ``echo``), each question is printed before reading the
        answer — the live-console mode.
    echo:
        File-like to print rendered questions to (e.g. ``sys.stdout``).
    """

    def __init__(
        self,
        member_id: str,
        stream,
        renderer: QuestionRenderer | None = None,
        echo: io.TextIOBase | None = None,
    ) -> None:
        self.member_id = member_id
        self._lines: Iterator[str] = iter(stream)
        self.renderer = renderer
        self.echo = echo
        self._exhausted = False
        self._questions_answered = 0
        #: Fired once when the member stops being available (stream
        #: dry or disconnected) — the availability hook of the
        #: :class:`~repro.crowd.crowd.MemberCrowd` it belongs to.
        self.on_unavailable = None
        #: Tagged lines waiting for a question of their kind.
        self._pending: dict[str, list[str]] = {"closed": [], "open": []}

    # -- member protocol -----------------------------------------------------

    @property
    def questions_answered(self) -> int:
        """How many questions this member has answered."""
        return self._questions_answered

    @property
    def is_available(self) -> bool:
        """False once the stream has run dry."""
        return not self._exhausted

    def leave(self) -> None:
        """Disconnect the member: no further lines will be read."""
        if not self._exhausted:
            self._exhausted = True
            if self.on_unavailable is not None:
                self.on_unavailable(self.member_id)

    def _next_payload(self, kind: str) -> str:
        """The next answer line usable for a ``kind`` question.

        Serves queued lines tagged for this kind first; otherwise reads
        the stream, queueing mismatched tagged lines for later.
        """
        if self._pending[kind]:
            return self._pending[kind].pop(0)
        for line in self._lines:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            lowered = stripped.lower()
            for tag in ("closed", "open"):
                prefix = f"{tag}:"
                if lowered.startswith(prefix):
                    payload = stripped[len(prefix):].strip()
                    if tag == kind:
                        return payload
                    self._pending[tag].append(payload)
                    break
            else:
                return stripped  # untagged: answers any question
        self.leave()
        raise CrowdExhaustedError(
            f"answer stream for member {self.member_id} is exhausted"
        )

    def _show(self, text: str) -> None:
        if self.echo is not None:
            print(text, file=self.echo)

    def answer_closed(
        self, question: ClosedQuestion
    ) -> ClosedAnswer | MalformedAnswer:
        """Read one closed answer from the stream.

        A line that does not parse (garbage text, incoherent stats)
        comes back as a :class:`~repro.crowd.questions.MalformedAnswer`
        instead of raising: one bad line from one member must never
        kill the whole session. The miner's validation gate counts and
        drops it.
        """
        if self.renderer is not None:
            self._show(self.renderer.render_closed(question))
            self._show(f"  [{self.renderer.render_likert_scale()}]")
        payload = self._next_payload("closed")
        self._questions_answered += 1
        try:
            stats = parse_stats(payload)
        except ValueError as exc:
            return MalformedAnswer(self.member_id, question, payload, str(exc))
        return ClosedAnswer(self.member_id, question, stats)

    def answer_open(
        self, question: OpenQuestion, exclude: set[Rule] | None = None
    ) -> OpenAnswer | MalformedAnswer:
        """Read one open answer from the stream.

        A volunteered rule that the asker already knows (in
        ``exclude``) is treated as "nothing new" — the paper's
        redundancy handling, minus the UI round-trip. Unparseable
        lines become :class:`~repro.crowd.questions.MalformedAnswer`,
        same contract as :meth:`answer_closed`.
        """
        if self.renderer is not None:
            self._show(self.renderer.render_open(question))
        payload = self._next_payload("open")
        self._questions_answered += 1
        try:
            parsed = parse_open_answer(payload)
        except ValueError as exc:
            return MalformedAnswer(self.member_id, question, payload, str(exc))
        if parsed is None:
            return OpenAnswer(self.member_id, question, None, None)
        rule, stats = parsed
        if exclude and rule in exclude:
            return OpenAnswer(self.member_id, question, None, None)
        return OpenAnswer(self.member_id, question, rule, stats)
