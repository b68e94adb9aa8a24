"""Deterministic fault injection for dispatched mining sessions.

A :class:`FaultPlan` names *when* things go wrong — member crashes,
burst churn waves, duplicate deliveries — and :class:`FaultInjector`
schedules those failures on the dispatcher's own
:class:`~repro.dispatch.clock.EventClock` before the session starts.
Because every fault is a clock event and every victim choice comes from
the injector's seeded generator, a faulted session replays
byte-identically from its seed tuple (crowd, miner, dispatch, plan) —
the property the fault-matrix tests pin.

The injector only uses the dispatcher's public fault surface
(:meth:`~repro.dispatch.dispatcher.Dispatcher.crash_member`,
:meth:`~repro.dispatch.dispatcher.Dispatcher.inject_duplicate`) plus
the crowd's :meth:`~repro.crowd.crowd.SimulatedCrowd.crash`; no
monkey-patching, no hooks. A fault landing at an instant with no
eligible victim (nothing in flight, nobody left to churn) is a no-op,
counted under ``faults.noops`` so experiments can see how much of the
plan actually bit.

Every armed fault is a bound method of the injector sitting on the
clock, so a session checkpoint pickles the pending faults (and the
injector with its victim stream) along with the dispatcher: a resumed
session suffers exactly the faults the uninterrupted one would have.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from repro._util import as_rng
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # avoids a cycle: the dispatcher imports the miner,
    # and the miner imports this package for the quality controller.
    from repro.dispatch.dispatcher import Dispatcher


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """When the crowd misbehaves, on the simulated timeline.

    Attributes
    ----------
    crashes:
        Instants at which one member holding an in-flight question
        crashes (their answer will never arrive; the question is
        recovered through the retry path).
    churn_waves:
        ``(time, size)`` pairs: at ``time``, ``size`` members leave at
        once — a burst departure. Members holding in-flight questions
        crash; idle members just leave.
    duplicates:
        Instants at which one currently in-flight answer gets delivered
        *twice* (at-least-once transport); the dispatcher must
        discard the second copy, which lands after the first.
    seed:
        Victim-selection randomness (which member crashes, which answer
        duplicates) — separate from dispatch latency randomness, so
        fault plans never perturb clean-session draws.
    """

    crashes: tuple[float, ...] = ()
    churn_waves: tuple[tuple[float, int], ...] = ()
    duplicates: tuple[float, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        for when in self.crashes + self.duplicates:
            if not when >= 0:
                raise ConfigurationError(f"fault time must be >= 0, got {when!r}")
        for when, size in self.churn_waves:
            if not when >= 0:
                raise ConfigurationError(f"fault time must be >= 0, got {when!r}")
            if size < 1:
                raise ConfigurationError(f"churn wave size must be >= 1, got {size!r}")

    @property
    def is_empty(self) -> bool:
        """True when the plan injects nothing."""
        return not (self.crashes or self.churn_waves or self.duplicates)


@dataclass(slots=True)
class FaultInjector:
    """Arms a :class:`FaultPlan` against one dispatcher session."""

    dispatcher: "Dispatcher"
    plan: FaultPlan
    _rng: np.random.Generator = field(init=False, repr=False)
    _armed: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        self._rng = as_rng(self.plan.seed)

    def arm(self) -> None:
        """Schedule every planned fault on the dispatcher's clock.

        Call once, before driving the session. Faults scheduled at the
        same instant as regular dispatch events fire in schedule order
        (the clock's only tie-break), so arming first puts faults ahead
        of deliveries at equal timestamps — the adversarial ordering.
        """
        if self._armed:
            raise ConfigurationError("fault plan already armed")
        self._armed = True
        clock = self.dispatcher.clock
        for when in self.plan.crashes:
            clock.schedule_at(when, self._crash_one)
        for when, size in self.plan.churn_waves:
            clock.schedule_at(when, partial(self._churn, size))
        for when in self.plan.duplicates:
            clock.schedule_at(when, self._duplicate_one)

    # -- fault handlers -------------------------------------------------------

    def _obs(self):
        return self.dispatcher.obs

    def _pick(self, candidates: list[str]) -> str:
        return candidates[int(self._rng.integers(len(candidates)))]

    def _crash_one(self) -> None:
        victims = self.dispatcher.in_flight_members()
        if not victims:
            self._obs().count("faults.noops")
            return
        victim = self._pick(victims)
        self.dispatcher.crash_member(victim)
        self._obs().count("faults.crashes")

    def _churn(self, size: int) -> None:
        crowd = self.dispatcher.miner.crowd
        in_flight = set(self.dispatcher.in_flight_members())
        available = sorted(set(crowd.available_members()) | in_flight)
        if not available:
            self._obs().count("faults.noops")
            return
        size = min(size, len(available))
        chosen = self._rng.choice(len(available), size=size, replace=False)
        for index in sorted(int(i) for i in chosen):
            member_id = available[index]
            if member_id in in_flight:
                self.dispatcher.crash_member(member_id)
            else:
                crowd.crash(member_id)
            self._obs().count("faults.churned")

    def _duplicate_one(self) -> None:
        victims = self.dispatcher.in_flight_members()
        if not victims:
            self._obs().count("faults.noops")
            return
        victim = self._pick(victims)
        if self.dispatcher.inject_duplicate(victim):
            self._obs().count("faults.duplicates")
        else:
            self._obs().count("faults.noops")


def periodic_plan(
    *,
    horizon: float,
    crash_every: float | None = None,
    churn_at: float | None = None,
    churn_size: int = 2,
    duplicate_every: float | None = None,
    seed: int = 0,
) -> FaultPlan:
    """A regular-grid plan covering ``[0, horizon]`` — the test workhorse.

    ``crash_every`` / ``duplicate_every`` place one fault per period
    (starting at one period in, never at 0 when nothing is in flight
    yet); ``churn_at`` places a single wave of ``churn_size`` members.
    """
    if not horizon > 0:
        raise ConfigurationError(f"horizon must be positive, got {horizon!r}")

    def grid(period: float | None) -> tuple[float, ...]:
        if period is None:
            return ()
        if not period > 0:
            raise ConfigurationError(f"period must be positive, got {period!r}")
        times = []
        when = period
        while when <= horizon:
            times.append(when)
            when += period
        return tuple(times)

    waves = ()
    if churn_at is not None:
        waves = ((churn_at, churn_size),)
    return FaultPlan(
        crashes=grid(crash_every),
        churn_waves=waves,
        duplicates=grid(duplicate_every),
        seed=seed,
    )
