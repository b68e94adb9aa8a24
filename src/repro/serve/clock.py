"""A wall-clock implementation of the scheduling contract.

:class:`RealTimeClock` runs the same
:class:`~repro.dispatch.clock.SchedulerClock` queue as the simulated
:class:`~repro.dispatch.clock.EventClock`, over asyncio monotonic
time: ``now`` reads ``time.monotonic()`` (re-based to 0.0 at
construction, like a fresh simulated clock), and due events are fired
by an event-loop task instead of an explicit ``pop()`` driver.

The determinism-relevant half of the contract is one piece of code —
events fire in ``(time, seq)`` order with schedule order as the only
tie-break, cancellation disarms, validation rejects the same inputs —
which is exactly what lets the differential harness
(:mod:`repro.serve.differential`) swap this clock in under a live
session and still assert byte-identical fingerprints. What changes is
*when* the firing happens: on the simulated clock the caller advances
time; here real time advances on its own and :meth:`start` arms a
background runner that sleeps until the next due instant.

Two driving modes:

- :meth:`start` / :meth:`stop` — the serving mode: a background task
  owns the queue and fires events as wall time reaches them. Firing
  happens on the event loop, so event actions enjoy the same
  run-to-completion atomicity as every other session mutation.
- :meth:`drain` — the test mode: await everything currently (and
  transitively) scheduled, without a background task, so tests control
  exactly when firing happens.
"""

from __future__ import annotations

import asyncio
import heapq
import time
from collections.abc import Callable

from repro.dispatch.clock import ScheduledEvent, SchedulerClock


class RealTimeClock(SchedulerClock):
    """Monotonic wall time behind the shared ``SchedulerClock`` queue.

    The queue — ``(time, seq, event)`` heap, monotone schedule counter,
    cancelled events skipped on the way out — is
    :class:`~repro.dispatch.clock.SchedulerClock`'s, exactly as under
    :class:`~repro.dispatch.clock.EventClock`; only the time source and
    the firing differ.
    """

    def __init__(self) -> None:
        super().__init__()
        self._origin = time.monotonic()
        self._wakeup: asyncio.Event | None = None
        self._runner: asyncio.Task | None = None

    @property
    def now(self) -> float:
        """Seconds of wall time since this clock was created."""
        return time.monotonic() - self._origin

    def _arm(self, time: float, action: Callable[[], None]) -> ScheduledEvent:
        # Wake the background runner: a nearer deadline interrupts its sleep.
        event = super()._arm(time, action)
        if self._wakeup is not None:
            self._wakeup.set()
        return event

    # -- firing ----------------------------------------------------------------

    def fire_due(self) -> int:
        """Fire every live event whose instant has passed; returns the count.

        Events fire strictly in ``(time, seq)`` order. An action may
        schedule further events; newly due ones fire in the same call.
        """
        fired = 0
        while self._queue:
            at, _, event = self._queue[0]
            if event.cancelled:
                heapq.heappop(self._queue)
                continue
            if at > self.now:
                break
            heapq.heappop(self._queue)
            event.action()
            fired += 1
        return fired

    async def drain(self) -> int:
        """Await and fire everything scheduled (transitively); count fired.

        Test-mode driver: no background task needed, and the caller
        knows the queue is empty when it returns. Sleeps real time up
        to each event's instant.
        """
        fired = 0
        while True:
            upcoming = self.peek_time()
            if upcoming is None:
                return fired
            delay = upcoming - self.now
            if delay > 0:
                await asyncio.sleep(delay)
            fired += self.fire_due()

    # -- the background runner -------------------------------------------------

    def start(self) -> None:
        """Arm the background runner on the running event loop (idempotent)."""
        if self._runner is not None and not self._runner.done():
            return
        self._wakeup = asyncio.Event()
        self._runner = asyncio.get_running_loop().create_task(
            self._run(), name="realtime-clock"
        )

    async def stop(self) -> None:
        """Cancel the background runner; pending events stay queued."""
        runner, self._runner = self._runner, None
        self._wakeup = None
        if runner is None:
            return
        runner.cancel()
        try:
            await runner
        except asyncio.CancelledError:
            pass

    async def _run(self) -> None:
        """Sleep until the next due instant, fire, repeat.

        A bare ``Event.wait()`` parks the runner while the queue is
        idle; every ``schedule``/``schedule_at`` sets the event so a
        nearer deadline interrupts the current sleep.
        """
        assert self._wakeup is not None
        while True:
            self._wakeup.clear()
            upcoming = self.peek_time()
            if upcoming is None:
                await self._wakeup.wait()
                continue
            delay = upcoming - self.now
            if delay > 0:
                try:
                    await asyncio.wait_for(self._wakeup.wait(), timeout=delay)
                    continue  # re-evaluate: something (possibly nearer) arrived
                except asyncio.TimeoutError:
                    pass
            self.fire_due()
