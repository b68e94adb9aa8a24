"""Per-rule sample stores.

For each rule the system knows about, it accumulates the answers
collected from distinct members. The statistical model treats *members*
as the sampling unit — each member contributes (at most) one
observation of the latent ``(support, confidence)`` vector — so the
store keys samples by member id: a member who answers the same rule
twice *revises* their observation rather than adding a second one,
keeping the i.i.d.-across-members assumption intact.

A streaming estimator is maintained incrementally (including through
revisions, via reverse-Welford removal) so reading the current estimate
is O(1) no matter how the answers arrived.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.measures import RuleStats
from repro.core.rule import Rule
from repro.estimation.welford import StreamingMeanCov


@dataclass(frozen=True, slots=True)
class EstimateSummary:
    """A snapshot of a rule's aggregated evidence.

    ``mean`` estimates the crowd-mean ``(support, confidence)``;
    ``mean_cov`` is the covariance of that *mean estimate* (i.e. the
    sample covariance divided by ``n``), which is what the normal
    approximation of the significance test consumes.
    """

    n: int
    mean: np.ndarray
    mean_cov: np.ndarray


class RuleSamples:
    """All evidence collected about one rule.

    Each member's observation is kept as a ``(support, confidence)``
    float pair — a session checkpoints every store, and pairs pickle
    far cheaper than one :class:`RuleStats` per answer. The
    :class:`RuleStats` accessors build their values on demand.

    >>> store = RuleSamples(None)
    >>> store.add("u1", RuleStats(0.2, 0.6))
    >>> store.add("u2", RuleStats(0.4, 0.8))
    >>> store.n
    2
    """

    __slots__ = ("rule", "_by_member", "_estimator", "_version")

    def __init__(self, rule: Rule | None) -> None:
        self.rule = rule
        self._by_member: dict[str, tuple[float, float]] = {}
        self._estimator = StreamingMeanCov()
        self._version = 0

    def __reduce__(self) -> tuple:
        # Positional: a checkpoint pickles one store per known rule.
        return _restore, (self.rule, self._by_member, self._estimator, self._version)

    def add(self, member_id: str, stats: RuleStats) -> None:
        """Record (or revise) ``member_id``'s observation."""
        previous = self._by_member.get(member_id)
        if previous is not None:
            self._estimator.remove(previous)
        pair = (stats.support, stats.confidence)
        self._by_member[member_id] = pair
        self._estimator.add(pair)
        self._version += 1

    def remove(self, member_id: str) -> bool:
        """Purge ``member_id``'s observation (reverse Welford).

        Returns True when an observation was actually removed. Used by
        the quality-control layer to release a quarantined member's
        evidence from the knowledge base.
        """
        previous = self._by_member.pop(member_id, None)
        if previous is None:
            return False
        self._estimator.remove(previous)
        self._version += 1
        return True

    @property
    def version(self) -> int:
        """Monotonic change counter; bumps on every :meth:`add`.

        Cache token for derived aggregates: a summary computed at
        version ``v`` stays valid while ``version == v`` (and the
        aggregation policy itself reports no change).
        """
        return self._version

    @property
    def n(self) -> int:
        """Number of distinct members who have answered."""
        return len(self._by_member)

    @property
    def member_ids(self) -> set[str]:
        """Ids of the members who have contributed."""
        return set(self._by_member)

    def has_answer_from(self, member_id: str) -> bool:
        """True when ``member_id`` already contributed an observation."""
        return member_id in self._by_member

    def pair_of(self, member_id: str) -> tuple[float, float] | None:
        """The member's current ``(support, confidence)`` pair, or ``None``."""
        return self._by_member.get(member_id)

    def observation_of(self, member_id: str) -> RuleStats | None:
        """The member's current observation, or ``None``."""
        pair = self._by_member.get(member_id)
        return None if pair is None else RuleStats(*pair)

    def observations(self) -> list[tuple[str, RuleStats]]:
        """All ``(member_id, stats)`` pairs, in answer-arrival order.

        The deterministic iteration the storage layer serializes from.
        """
        return [
            (member_id, RuleStats(*pair)) for member_id, pair in self._by_member.items()
        ]

    def as_array(self) -> np.ndarray:
        """All observations as an ``(n, 2)`` array (member order arbitrary)."""
        if not self._by_member:
            return np.zeros((0, 2))
        return np.array(list(self._by_member.values()))

    def summary(self) -> EstimateSummary:
        """The streaming (plain-mean) estimate snapshot."""
        return EstimateSummary(
            n=self._estimator.n,
            mean=self._estimator.mean,
            mean_cov=self._estimator.sem_cov,
        )

    def __repr__(self) -> str:
        return f"RuleSamples({self.rule}, n={self.n})"


def _restore(
    rule: Rule | None,
    by_member: dict[str, tuple[float, float]],
    estimator: StreamingMeanCov,
    version: int,
) -> RuleSamples:
    """Rebuild a sample store from its positional pickle."""
    store = RuleSamples.__new__(RuleSamples)
    store.rule, store._by_member = rule, by_member
    store._estimator, store._version = estimator, version
    return store
