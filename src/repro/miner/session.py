"""Answer caching across mining tasks.

Crowd answers are expensive and — crucially — *threshold-independent*:
a member's report of how often they bike in the park is the same fact
whether the query asks for habits above 10 % or above 30 % frequency.
The paper exploits this: answers collected for one task are cached and
re-used when the same (or an overlapping) query is evaluated at a
different threshold, so the new task only asks the questions the cache
cannot answer.

Three pieces:

- :class:`AnswerCache` — the persistent record of everything any
  member has ever answered;
- :class:`CachingCrowd` — a transparent wrapper around a crowd that
  serves closed questions from the cache when possible (no member
  effort, no question counted against the session) and records every
  fresh answer;
- :func:`reevaluate` — the pure-replay path: classify rules under new
  thresholds using cached evidence only, without any crowd contact.
"""

from __future__ import annotations

from collections.abc import Collection, Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.itemset import Itemset
from repro.core.measures import RuleStats
from repro.core.rule import Rule
from repro.crowd.crowd import SimulatedCrowd
from repro.crowd.questions import ClosedAnswer, ClosedQuestion, InFlightAnswer, OpenAnswer
from repro.estimation.aggregate import Aggregator
from repro.estimation.significance import SignificanceTest, Thresholds
from repro.miner.state import MiningState, RuleOrigin

if TYPE_CHECKING:  # avoids a circular import: repro.dispatch builds on the miner
    from repro.dispatch.latency import LatencyModel


@dataclass(slots=True)
class AnswerCache:
    """Everything the crowd has ever told us, keyed for reuse.

    ``closed`` maps ``(member_id, rule)`` to the member's reported
    stats (latest revision wins); ``volunteered`` records which rules
    each member has already volunteered, so re-runs can exclude them
    from open questions and seed their candidate pools.
    """

    closed: dict[tuple[str, Rule], RuleStats] = field(default_factory=dict)
    volunteered: dict[str, set[Rule]] = field(default_factory=dict)

    def record_closed(self, member_id: str, rule: Rule, stats: RuleStats) -> None:
        """Store (or revise) a member's closed answer."""
        self.closed[(member_id, rule)] = stats

    def record_open(self, member_id: str, rule: Rule, stats: RuleStats) -> None:
        """Store a volunteered rule (numeric part cached as a closed answer)."""
        self.volunteered.setdefault(member_id, set()).add(rule)
        self.record_closed(member_id, rule, stats)

    def lookup(self, member_id: str, rule: Rule) -> RuleStats | None:
        """The member's cached answer about ``rule``, if any."""
        return self.closed.get((member_id, rule))

    def known_rules(self) -> set[Rule]:
        """Every rule any answer mentions — candidate seeds for re-runs."""
        rules = {rule for _, rule in self.closed}
        for volunteered in self.volunteered.values():
            rules |= volunteered
        return rules

    def answers_for(self, rule: Rule) -> dict[str, RuleStats]:
        """All members' cached answers about one rule."""
        return {
            member_id: stats
            for (member_id, r), stats in self.closed.items()
            if r == rule
        }

    def __len__(self) -> int:
        return len(self.closed)


@dataclass(slots=True)
class CacheStats:
    """Hit/miss counters of a caching crowd."""

    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of closed questions served from cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CachingCrowd:
    """A crowd wrapper that answers from the cache when it can.

    Presents the same protocol as
    :class:`~repro.crowd.crowd.SimulatedCrowd` (length, scheduling,
    ``ask_closed``/``ask_open``), so a
    :class:`~repro.miner.crowdminer.CrowdMiner` can run against it
    unchanged. Cache hits cost the member nothing and are *not*
    recorded in the inner crowd's statistics — they are free answers,
    which is the entire point.
    """

    def __init__(self, inner: SimulatedCrowd, cache: AnswerCache) -> None:
        self.inner = inner
        self.cache = cache
        self.cache_stats = CacheStats()

    # -- protocol passthrough ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.inner)

    @property
    def member_ids(self) -> list[str]:
        return self.inner.member_ids

    @property
    def stats(self):
        return self.inner.stats

    def available_members(self) -> list[str]:
        return self.inner.available_members()

    def iter_available(self) -> Iterator[str]:
        return self.inner.iter_available()

    def available_count(self) -> int:
        return self.inner.available_count()

    def next_member(self, exclude: Collection[str] = ()) -> str | None:
        return self.inner.next_member(exclude)

    # -- cached protocol -----------------------------------------------------------

    def ask_closed(self, member_id: str, rule: Rule) -> ClosedAnswer:
        cached = self.cache.lookup(member_id, rule)
        if cached is not None:
            self.cache_stats.hits += 1
            return ClosedAnswer(member_id, ClosedQuestion(rule), cached)
        self.cache_stats.misses += 1
        answer = self.inner.ask_closed(member_id, rule)
        self.cache.record_closed(member_id, rule, answer.stats)
        return answer

    def ask_open(
        self,
        member_id: str,
        exclude: set[Rule] | None = None,
        context: Itemset | None = None,
    ) -> OpenAnswer:
        # Rules the member already volunteered in past sessions count
        # as known — they would be redundant answers.
        combined = set(exclude or set())
        combined |= self.cache.volunteered.get(member_id, set())
        answer = self.inner.ask_open(member_id, exclude=combined, context=context)
        if not answer.is_empty:
            assert answer.rule is not None and answer.stats is not None
            self.cache.record_open(member_id, answer.rule, answer.stats)
        return answer

    # -- cached asynchronous protocol ----------------------------------------------

    def ask_closed_async(
        self,
        member_id: str,
        rule: Rule,
        *,
        latency: "LatencyModel",
        rng: np.random.Generator,
        now: float = 0.0,
    ) -> InFlightAnswer:
        """Async closed question; cache hits land instantly.

        A hit costs the member nothing, so it also costs no simulated
        time — and it consumes no latency randomness, keeping replays
        against warmer caches deterministic per miss sequence.
        """
        cached = self.cache.lookup(member_id, rule)
        if cached is not None:
            self.cache_stats.hits += 1
            answer = ClosedAnswer(member_id, ClosedQuestion(rule), cached)
            return InFlightAnswer(answer=answer, issued_at=now, arrives_at=now)
        self.cache_stats.misses += 1
        in_flight = self.inner.ask_closed_async(
            member_id, rule, latency=latency, rng=rng, now=now
        )
        assert isinstance(in_flight.answer, ClosedAnswer)
        self.cache.record_closed(member_id, rule, in_flight.answer.stats)
        return in_flight

    def ask_open_async(
        self,
        member_id: str,
        *,
        latency: "LatencyModel",
        rng: np.random.Generator,
        now: float = 0.0,
        exclude: set[Rule] | None = None,
        context: Itemset | None = None,
    ) -> InFlightAnswer:
        """Async open question (never served from cache, see ``ask_open``)."""
        combined = set(exclude or set())
        combined |= self.cache.volunteered.get(member_id, set())
        in_flight = self.inner.ask_open_async(
            member_id, latency=latency, rng=rng, now=now,
            exclude=combined, context=context,
        )
        answer = in_flight.answer
        assert isinstance(answer, OpenAnswer)
        if not answer.is_empty:
            assert answer.rule is not None and answer.stats is not None
            self.cache.record_open(member_id, answer.rule, answer.stats)
        return in_flight


def reevaluate(
    cache: AnswerCache,
    thresholds: Thresholds,
    decision_confidence: float = 0.9,
    min_samples: int = 5,
    variance_floor: float = 0.15**2,
    aggregator: Aggregator | None = None,
    mode: str = "point",
    exclude_volunteer_bias: bool = False,
) -> dict[Rule, RuleStats]:
    """Classify all cached rules under new thresholds — zero questions.

    Replays every cached answer into a fresh
    :class:`~repro.miner.state.MiningState` configured with the new
    thresholds and returns the rules it would report as significant.
    This is the paper's "evaluate the same query at a higher threshold
    from the cache" operation; because significance is monotone in the
    thresholds, tightening thresholds never requires fresh questions,
    while loosening may leave some rules undecided (ask the crowd for
    those via a new :class:`CachingCrowd` session).

    ``exclude_volunteer_bias`` skips answers whose (member, rule) pair
    came from an *open* answer, mirroring the live miner's default of
    not counting volunteered stats as evidence. Off by default because
    the cache cannot distinguish a volunteer who later *also* answered
    the same rule as a closed question (the closed answer overwrote the
    entry), so exclusion can be slightly too aggressive.
    """
    test = SignificanceTest(
        thresholds=thresholds,
        decision_confidence=decision_confidence,
        min_samples=min_samples,
        variance_floor=variance_floor,
    )
    state = MiningState(test=test, aggregator=aggregator)
    for (member_id, rule), stats in cache.closed.items():
        if exclude_volunteer_bias and rule in cache.volunteered.get(member_id, ()):
            continue
        state.record_answer(rule, member_id, stats, RuleOrigin.SEED)
    return state.significant_rules(mode=mode)
