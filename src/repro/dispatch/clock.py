"""A deterministic discrete-event simulation clock.

The dispatch engine never reads the wall clock: all latencies, timeouts
and makespans live on this simulated timeline, so a session replayed
with the same seeds produces byte-identical results regardless of host
speed. The clock is a plain priority queue of ``(time, seq, action)``
events:

- **time** is simulated seconds (any unit works; the latency models and
  timeouts just have to agree);
- **seq** is a monotonically increasing schedule counter, so events at
  the same instant fire in the order they were scheduled — the only
  tie-break, and a deterministic one;
- **action** is an arbitrary zero-argument callable. A clock that
  rides in a session checkpoint is pickled with its queue, so the
  dispatcher and the fault injector schedule bound methods or
  ``functools.partial`` objects of them, never lambdas.

Events can be cancelled (a timeout whose answer arrived, an arrival
whose question was abandoned); cancelled events are skipped on pop
without advancing time past live ones.

The queue is written once, in :class:`SchedulerClock`: the serving
layer's wall clock (:class:`repro.serve.clock.RealTimeClock`) runs the
same queue and differs only in where ``now`` comes from and who fires
the due events.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable
from dataclasses import dataclass, field


@dataclass(slots=True)
class ScheduledEvent:
    """A handle to one scheduled action; ``cancel()`` to disarm it."""

    time: float
    seq: int
    #: ``None`` once cancelled.
    action: Callable[[], None] | None = field(repr=False)
    cancelled: bool = False

    def cancel(self) -> None:
        """Disarm the event; it will be skipped when its turn comes.

        The action is released at once: it is usually a bound method
        of whatever scheduled it, which a queue still holding the
        cancelled event would otherwise keep alive in a cycle.
        """
        self.cancelled = True
        self.action = None


class SchedulerClock:
    """The event queue every clock shares; subclasses supply ``now``.

    :class:`EventClock` runs it over simulated time (callers advance
    time explicitly with ``pop``/``run_until``);
    :class:`repro.serve.clock.RealTimeClock` runs it over asyncio
    monotonic wall time (an event-loop task fires due events). The
    contract, pinned by ``tests/serve/test_clock_contract.py`` against
    both clocks:

    - ``now`` is monotonically non-decreasing, starting at 0.0;
    - ``schedule(delay, action)`` arms ``action`` at ``now + delay``;
      negative, NaN or infinite delays raise :class:`ValueError`;
    - ``schedule_at(time, action)`` arms at an absolute instant;
      times in the past, NaN or infinity raise :class:`ValueError`;
    - events fire in ``(time, seq)`` order — same-instant ties break
      by schedule order, the only (and deterministic) tie-break;
    - ``cancel()`` on the returned handle disarms the event: it never
      fires, and ``len(clock)`` / ``peek_time()`` stop counting it;
    - the clock can be re-armed after draining: scheduling after the
      queue emptied works exactly like scheduling into a fresh clock.
    """

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, ScheduledEvent]] = []
        self._seq = 0

    @property
    def now(self) -> float:
        """Current clock time; each subclass supplies its source."""
        raise NotImplementedError

    def __len__(self) -> int:
        """Number of live (non-cancelled) events still scheduled."""
        return sum(1 for _, _, event in self._queue if not event.cancelled)

    def schedule(self, delay: float, action: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``action`` to fire ``delay`` seconds from now."""
        if delay < 0 or math.isnan(delay):
            raise ValueError(f"delay must be non-negative, got {delay!r}")
        # ``now`` is read once: a wall clock moves between two reads, and
        # a zero delay must not land before the second one.
        return self._arm(self.now + delay, action)

    def schedule_at(self, time: float, action: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``action`` at an absolute clock time (≥ now)."""
        now = self.now
        if math.isnan(time) or time < now:
            raise ValueError(
                f"cannot schedule at {time!r}: the clock is already at {now}"
            )
        return self._arm(time, action)

    def _arm(self, time: float, action: Callable[[], None]) -> ScheduledEvent:
        """Queue ``action`` at ``time``, known to be no earlier than now."""
        if math.isinf(time):
            raise ValueError(
                "cannot schedule at infinity; skip scheduling a lost event instead"
            )
        event = ScheduledEvent(time=time, seq=self._seq, action=action)
        self._seq += 1
        heapq.heappush(self._queue, (event.time, event.seq, event))
        return event

    def peek_time(self) -> float | None:
        """The time of the next live event, or ``None`` when idle."""
        while self._queue and self._queue[0][2].cancelled:
            heapq.heappop(self._queue)
        if not self._queue:
            return None
        return self._queue[0][0]


class EventClock(SchedulerClock):
    """Simulated time plus the queue of things scheduled to happen.

    >>> clock = EventClock()
    >>> fired = []
    >>> _ = clock.schedule(2.0, lambda: fired.append("b"))
    >>> _ = clock.schedule(1.0, lambda: fired.append("a"))
    >>> clock.pop(), clock.pop(), clock.pop()
    (True, True, False)
    >>> fired, clock.now
    (['a', 'b'], 2.0)
    """

    def __init__(self) -> None:
        super().__init__()
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def pop(self) -> bool:
        """Advance to and fire the next live event.

        Returns ``False`` (leaving time untouched) when nothing live
        remains scheduled.
        """
        while self._queue:
            _, _, event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.time
            event.action()
            return True
        return False

    def run_until(self, time: float) -> int:
        """Fire every live event at or before ``time``; returns the count.

        The clock ends exactly at ``time`` even when the last event
        fired earlier (or none did), so callers can sample state on a
        fixed simulated-time grid.
        """
        if time < self._now:
            raise ValueError(f"cannot run backwards to {time!r} from {self._now}")
        fired = 0
        while True:
            upcoming = self.peek_time()
            if upcoming is None or upcoming > time:
                break
            self.pop()
            fired += 1
        self._now = time
        return fired
