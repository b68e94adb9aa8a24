"""Adversarial answer behaviour: the crowd at its worst.

The stock answer models (:mod:`repro.crowd.answer_models`) are honest
but imprecise. Real crowds also contain *adversaries* — workers whose
answers are wrong in structured, correlated, or outright unparseable
ways. This module provides the four families the robustness layer is
tested against:

- :class:`CollusionRing` / :class:`ColludingSpammerModel` — a group of
  spammers sharing one fabricated stats profile, so their lies agree
  with each other (majority voting and plain averaging cannot expose
  them; the per-member coherence anchor of :mod:`repro.faults.latent`
  can);
- :class:`DriftingAnswerModel` — a worker whose noise grows with every
  question answered (fatigue / disengagement), starting out honest and
  ending up useless;
- :class:`LazyExtremesModel` — a worker who snaps every answer to the
  Likert extremes ("never" / "very often"), destroying all resolution
  near the thresholds;
- :class:`GarbledMember` — a member whose replies are sometimes (or
  always) unparseable text, exercising the miner's validation gate end
  to end through the real NL parse path.

All models stay *representable*: they route their output through
:func:`~repro.crowd.answer_models.coherent_stats`, because the
interesting adversaries are the ones the type system cannot reject.
Everything is driven by seeded generators, so adversarial sessions
replay byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import as_rng, check_fraction, check_nonnegative
from repro.core.measures import RuleStats
from repro.core.rule import Rule
from repro.crowd.answer_models import AnswerModel, coherent_stats
from repro.crowd.member import SimulatedMember
from repro.crowd.questions import (
    ClosedAnswer,
    ClosedQuestion,
    MalformedAnswer,
    OpenAnswer,
    OpenQuestion,
)
from repro.crowd.stream import parse_stats


class CollusionRing:
    """A shared fabricated stats profile for a group of spammers.

    The ring fabricates one ``(support, confidence)`` pair per rule
    (drawn once from the ring's own generator, then cached), so every
    colluding member reports *the same lie* about the same rule, up to
    a small per-answer jitter. That coordination is what separates
    collusion from independent spam: colluders corroborate each other,
    inflating the apparent sample agreement.
    """

    def __init__(self, seed: int | np.random.Generator | None = None,
                 jitter: float = 0.02) -> None:
        self._rng = as_rng(seed)
        self.jitter = check_nonnegative(jitter, "jitter")
        self._profile: dict[Rule, RuleStats] = {}

    def fabricated_stats(self, rule: Rule) -> RuleStats:
        """The ring's agreed-upon lie about ``rule`` (stable per rule)."""
        stats = self._profile.get(rule)
        if stats is None:
            a, b = sorted(self._rng.random(2))
            stats = self._profile[rule] = RuleStats(float(a), float(b))
        return stats

    def member_model(self) -> "ColludingSpammerModel":
        """A fresh answer model wired to this ring."""
        return ColludingSpammerModel(self)

    def __repr__(self) -> str:
        return f"CollusionRing({len(self._profile)} fabricated rules)"


class ColludingSpammerModel(AnswerModel):
    """One member of a :class:`CollusionRing`.

    Ignores the member's true stats entirely and reports the ring's
    fabricated profile for the rule, plus member-local jitter (two
    colluders are coordinated, not byte-identical). Closed questions
    carry the rule through ``report_rule``; plain ``report`` calls
    (open answers, unknown rule) degrade to independent spam.
    """

    def __init__(self, ring: CollusionRing) -> None:
        self.ring = ring

    def report_rule(
        self, rule: Rule, stats: RuleStats, rng: np.random.Generator
    ) -> RuleStats:
        """The ring's lie about ``rule``, jittered per answer."""
        fabricated = self.ring.fabricated_stats(rule)
        if self.ring.jitter == 0.0:
            return fabricated
        return coherent_stats(
            fabricated.support + rng.normal(0.0, self.ring.jitter),
            fabricated.confidence + rng.normal(0.0, self.ring.jitter),
        )

    def report(self, stats: RuleStats, rng: np.random.Generator) -> RuleStats:
        a, b = sorted(rng.random(2))
        return RuleStats(float(a), float(b))

    def __repr__(self) -> str:
        return f"ColludingSpammerModel({self.ring!r})"


class DriftingAnswerModel(AnswerModel):
    """Noise that grows with every answer (worker fatigue).

    The first answers carry ``initial_sigma`` of Gaussian noise; each
    subsequent answer adds ``drift`` to the sigma, capped at
    ``max_sigma``. Early evidence from a drifting worker is fine —
    which is exactly why static screening misses them and running
    quality scores are needed.
    """

    def __init__(
        self,
        initial_sigma: float = 0.02,
        drift: float = 0.02,
        max_sigma: float = 0.6,
    ) -> None:
        self.initial_sigma = check_nonnegative(initial_sigma, "initial_sigma")
        self.drift = check_nonnegative(drift, "drift")
        self.max_sigma = check_nonnegative(max_sigma, "max_sigma")
        self._answered = 0

    @property
    def current_sigma(self) -> float:
        """The noise level the *next* answer will carry."""
        return min(self.max_sigma, self.initial_sigma + self.drift * self._answered)

    def report(self, stats: RuleStats, rng: np.random.Generator) -> RuleStats:
        sigma = self.current_sigma
        self._answered += 1
        if sigma == 0.0:
            return stats
        return coherent_stats(
            stats.support + rng.normal(0.0, sigma),
            stats.confidence + rng.normal(0.0, sigma),
        )

    def __repr__(self) -> str:
        return (
            f"DriftingAnswerModel(initial_sigma={self.initial_sigma}, "
            f"drift={self.drift}, max_sigma={self.max_sigma})"
        )


class LazyExtremesModel(AnswerModel):
    """Everything snaps to the Likert extremes.

    The minimal-effort worker: "never" for anything they do less than
    half the time, "very often" for the rest. Individually coherent,
    collectively poisonous — extremes systematically exaggerate both
    tails, biasing borderline rules across the thresholds.
    """

    def __init__(self, split: float = 0.5) -> None:
        check_fraction(split, "split")
        self.split = float(split)

    def _snap(self, value: float) -> float:
        return 0.0 if value < self.split else 1.0

    def report(self, stats: RuleStats, rng: np.random.Generator) -> RuleStats:
        return coherent_stats(
            self._snap(stats.support), self._snap(stats.confidence)
        )

    def __repr__(self) -> str:
        return f"LazyExtremesModel(split={self.split})"


def garbage_text(rng: np.random.Generator) -> str:
    """One deterministic line of unparseable answer text.

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


@dataclass
class GarbledMember:
    """A member whose replies are sometimes unparseable text.

    Wraps an inner :class:`~repro.crowd.member.SimulatedMember` and,
    with probability ``rate`` per question, replaces the real answer
    with garbage text run through the *actual* stream-protocol parser
    (:func:`~repro.crowd.stream.parse_stats`), yielding the same
    :class:`~repro.crowd.questions.MalformedAnswer` a live front-end
    would produce. ``rate=1.0`` is the pure malformed-NL responder.

    Implements the member protocol by delegation, so it drops into a
    :class:`~repro.crowd.crowd.SimulatedCrowd` unchanged.
    """

    inner: SimulatedMember
    rate: float = 1.0
    seed: int | np.random.Generator | None = None

    def __post_init__(self) -> None:
        check_fraction(self.rate, "rate")
        self._rng = as_rng(self.seed)

    # -- member protocol ------------------------------------------------------

    @property
    def member_id(self) -> str:
        return self.inner.member_id

    @property
    def questions_answered(self) -> int:
        return self.inner.questions_answered

    @property
    def is_available(self) -> bool:
        return self.inner.is_available

    def leave(self) -> None:
        self.inner.leave()

    def _garbled(self, question) -> MalformedAnswer:
        text = garbage_text(self._rng)
        try:
            parse_stats(text)
        except ValueError as exc:
            return MalformedAnswer(self.member_id, question, text, str(exc))
        raise AssertionError(f"garbage pool produced parseable text {text!r}")

    def answer_closed(
        self, question: ClosedQuestion
    ) -> ClosedAnswer | MalformedAnswer:
        answer = self.inner.answer_closed(question)
        if self._rng.random() < self.rate:
            return self._garbled(question)
        return answer

    def answer_open(
        self, question: OpenQuestion, exclude: set[Rule] | None = None
    ) -> OpenAnswer | MalformedAnswer:
        answer = self.inner.answer_open(question, exclude=exclude)
        if self._rng.random() < self.rate:
            return self._garbled(question)
        return answer
