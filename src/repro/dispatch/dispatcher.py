"""The asynchronous question dispatcher.

The synchronous miner is a ping-pong loop: ask one member, wait for
the answer, fold it in, ask the next. Real crowds do not work that way
— answers take seconds to days (see :mod:`repro.dispatch.latency`),
and a miner that waits on every answer spends almost all of its
wall-clock time idle. The dispatcher closes that gap:

- it keeps up to ``window`` questions **in flight** at once, one per
  member, choosing each with the miner's own
  :meth:`~repro.miner.crowdminer.CrowdMiner.propose_question`;
- answers land in **completion order** on the simulated
  :class:`~repro.dispatch.clock.EventClock` and are folded in with
  :meth:`~repro.miner.crowdminer.CrowdMiner.ingest_answer`, which
  revalidates each against the knowledge base it left behind — an
  answer whose rule was settled while in flight is discarded as stale,
  never double-counted;
- a per-question **timeout** (growing by ``backoff`` per attempt)
  recovers questions whose answers are slow or lost mid-flight, by
  reassigning them to a different member up to ``max_retries`` times.

**Sharding.** ``Dispatcher(miner, config, shards=n)`` splits the
scheduling side into ``n`` lanes. Lane ``i`` has its own event clock
and latency stream and picks members only from its own
:class:`~repro.crowd.partition.CrowdPartition` (crowd positions
``i::n``), with up to ``window`` questions in flight. One merge loop
fires the globally-earliest event (ties go to the lower lane), so
every answer still reaches the single miner in one completion-order
ingest stream — ingest stays single-writer, and the books, the
in-flight gauge and the checkpoint are the session's, not a lane's.
Every lane asks one question at a time through
:meth:`~repro.miner.crowdminer.CrowdMiner.pose_async`, so the crowd
answers each from the asked member's own stream, whatever the shard
count and window.

The single lane (``shards=1``, the default) is the plain dispatcher:
the crowd itself schedules (so any crowd works, a ``CachingCrowd``
included) and latency draws come straight from ``config.seed``.
Partitioned lanes derive their latency streams from that seed
instead, so ``shards=2`` is a different, equally deterministic
schedule.

Determinism: every latency draw comes from a seeded generator, every
tie on a clock breaks by schedule order, and a question's answer is
fixed at issue time — the simulated crowd simulates a closed answer
when the miner first reads its stats, keeping each member's answers in
issue order, to the values simulating at issue would give — so
one seed tuple (crowd, miner, dispatch, shard count) replays
byte-identically. With ``window=1`` and zero latency the dispatcher
reduces *exactly* to the synchronous loop: same questions, same order,
same knowledge base (``tests/dispatch/test_equivalence.py`` pins this).

Durability: a checkpoint pickles the live dispatcher next to the miner
(see :mod:`repro.storage.checkpoint`). Every clock action is a bound
method or a ``functools.partial`` of one, so each lane clock travels
with its pending arrivals and timeouts — and with any fault an
injector scheduled on it — and the resumed session fires them in their
original order.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Any

import numpy as np

from repro._util import as_rng, check_positive
from repro.crowd.questions import InFlightAnswer
from repro.dispatch.clock import EventClock, ScheduledEvent
from repro.dispatch.latency import ConstantLatency, LatencyModel, LatencyProfile
from repro.errors import ConfigurationError, CrowdExhaustedError
from repro.miner.crowdminer import CrowdMiner, Discard, QuestionProposal
from repro.miner.result import MiningResult, QuestionKind

@dataclass(slots=True)
class DispatchConfig:
    """Configuration of the asynchronous dispatch engine.

    Attributes
    ----------
    window:
        Maximum questions in flight at once, per lane (1 = synchronous
        ping-pong). Each member holds at most one in-flight question,
        so the effective window is also capped by crowd size.
    timeout:
        Simulated seconds to wait for an answer before giving up on it
        (``inf`` = wait forever; then mid-flight dropout in the latency
        model would deadlock, which the dispatcher rejects at issue
        time).
    max_retries:
        How many times a timed-out question is reissued before being
        dropped for good.
    backoff:
        Timeout multiplier per retry attempt (attempt ``k`` waits
        ``timeout * backoff**k``).
    latency:
        A :class:`~repro.dispatch.latency.LatencyModel` applied to all
        members, or a :class:`~repro.dispatch.latency.LatencyProfile`
        for heterogeneous crowds. Default: zero latency.
    seed:
        Randomness for latency draws — a stream of its own, so latency
        noise never perturbs the miner's question choices. Sharded
        dispatch derives each lane's streams from it.
    """

    window: int = 1
    timeout: float = math.inf
    max_retries: int = 2
    backoff: float = 2.0
    latency: LatencyModel | LatencyProfile = field(
        default_factory=lambda: ConstantLatency(0.0)
    )
    seed: int | np.random.Generator | None = None

    def __post_init__(self) -> None:
        check_positive(self.window, "window")
        if not self.timeout > 0:
            raise ConfigurationError(f"timeout must be positive, got {self.timeout!r}")
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be non-negative, got {self.max_retries!r}"
            )
        if self.backoff < 1.0:
            raise ConfigurationError(
                f"backoff must be at least 1, got {self.backoff!r}"
            )


@dataclass(frozen=True, slots=True)
class DispatchStats:
    """Outcome counters of one dispatched session.

    ``issued`` counts every question put to the crowd, retries
    included — it is the session's true crowd cost, and what the
    budget is charged for. ``completed`` counts answers folded into
    the knowledge base. Every issued question meets exactly one fate,
    so the books always balance::

        issued == completed + stale_discarded + malformed + rejected
                  + timeouts + crashed
        timeouts + crashed == retries + dropped

    (``late_discarded`` refines ``timeouts`` — slow-but-not-lost
    answers — and ``duplicates`` counts transport replays, which never
    enter the issued books.) ``makespan`` is the simulated time at
    which the session finished.
    """

    issued: int
    completed: int
    timeouts: int
    retries: int
    stale_discarded: int
    late_discarded: int
    dropped: int
    in_flight_high_water: int
    makespan: float
    #: Robustness counters (default 0 so pre-fault constructors keep
    #: working): answers dropped by the miner's validation gate,
    #: answers from quarantined members, questions lost to member
    #: crashes, and discarded transport-replay deliveries.
    malformed: int = 0
    rejected: int = 0
    crashed: int = 0
    duplicates: int = 0

    def summary_lines(self) -> list[str]:
        """Human-readable report block (used by ``MiningResult.summary``)."""
        lines = [
            f"dispatch: {self.issued} issued, {self.completed} completed, "
            f"in-flight high water {self.in_flight_high_water}",
            f"dispatch: {self.timeouts} timeouts, {self.retries} retries, "
            f"{self.stale_discarded} stale discarded, "
            f"{self.late_discarded} late discarded, {self.dropped} dropped",
        ]
        if self.malformed or self.rejected or self.crashed or self.duplicates:
            lines.append(
                f"dispatch: {self.malformed} malformed, {self.rejected} "
                f"rejected, {self.crashed} crashed, {self.duplicates} "
                f"duplicates discarded"
            )
        lines.append(f"dispatch: makespan {self.makespan:.1f} simulated seconds")
        return lines


@dataclass(eq=False, slots=True)
class _Lane:
    """One scheduling lane: who picks members, on which clock and draws."""

    #: The crowd itself (single lane) or one of its partitions.
    scheduler: Any
    clock: EventClock
    #: Latency draws for the questions this lane issues.
    rng: np.random.Generator
    #: Members holding this lane's in-flight questions (its share of
    #: the window). A lane picks only from its own members, so these
    #: are all it has to skip.
    busy: set[str] = field(default_factory=set)


@dataclass(slots=True)
class _InFlight:
    """Book-keeping for one question currently travelling."""

    proposal: QuestionProposal
    answer: InFlightAnswer
    attempt: int
    lane: _Lane
    arrival_event: ScheduledEvent | None = None
    timeout_event: ScheduledEvent | None = None


class Dispatcher:
    """Drives a :class:`~repro.miner.crowdminer.CrowdMiner` asynchronously.

    The dispatcher owns the event clocks and the latency randomness;
    the miner keeps owning question choice and the knowledge base.
    Use :meth:`run` to drain the session, or :meth:`advance_to` to
    step simulated time on a grid (quality-vs-time curves).
    ``shards`` > 1 schedules over that many crowd partitions (see the
    module docstring); the crowd must then offer ``partitions``.
    """

    def __init__(
        self,
        miner: CrowdMiner,
        config: DispatchConfig | None = None,
        shards: int = 1,
    ) -> None:
        check_positive(shards, "shards")
        self.miner = miner
        #: The miner defers storage checkpoints through this back-ref
        #: so they land on event boundaries, never mid-delivery.
        miner.dispatcher = self
        self.config = config or DispatchConfig()
        self.shards = int(shards)
        self.obs = miner.obs
        self._checkpoint_requested = False
        latency = self.config.latency
        self._profile = (
            latency
            if isinstance(latency, LatencyProfile)
            else LatencyProfile(default=latency)
        )
        self._lanes = self._make_lanes()
        self._in_flight: dict[str, _InFlight] = {}
        self._issued = 0
        self._completed = 0
        self._timeouts = 0
        self._retries = 0
        self._stale = 0
        self._late = 0
        self._dropped = 0
        self._malformed = 0
        self._rejected = 0
        self._crashed = 0
        self._duplicates = 0
        # The miner proposed nothing askable; cleared when an ingest
        # changes the knowledge base (an open answer may create new
        # closed candidates), so supply can recover mid-session. One
        # miner proposes for every lane, so one lane stalling stalls all.
        self._stalled = False

    def _make_lanes(self) -> list[_Lane]:
        crowd = self.miner.crowd
        if self.shards == 1:
            return [_Lane(crowd, EventClock(), as_rng(self.config.seed))]
        partitioner = getattr(crowd, "partitions", None)
        if partitioner is None:
            raise ConfigurationError(
                f"crowd of type {type(crowd).__name__} does not support "
                "partitioning; dispatch it with shards=1"
            )
        # Two seeds a lane, the second unused: drawing one a lane would
        # reseed every lane and move every sharded fingerprint, object
        # crowd included.
        seeds = as_rng(self.config.seed).integers(2**63, size=(self.shards, 2))
        return [
            _Lane(partition, EventClock(), np.random.default_rng(int(seeds[i, 0])))
            for i, partition in enumerate(partitioner(self.shards))
        ]

    # -- progress -----------------------------------------------------------------

    @property
    def clock(self) -> EventClock:
        """The first lane's event clock — the only one when unsharded.

        Fault injectors schedule their events here.
        """
        return self._lanes[0].clock

    @property
    def in_flight_count(self) -> int:
        """Questions currently travelling."""
        return len(self._in_flight)

    @property
    def questions_issued(self) -> int:
        """Questions put to the crowd so far (retries included)."""
        return self._issued

    @property
    def budget_left(self) -> int:
        """Issues remaining before the miner's budget is spent."""
        return self.miner.config.budget - self._issued

    def is_idle(self) -> bool:
        """True when nothing is in flight and nothing more can be issued."""
        self._fill_window()
        return not self._in_flight

    # -- issuing ------------------------------------------------------------------

    def _fill_window(self) -> None:
        """Issue questions until every lane's window, the budget, or the crowd runs out."""
        for lane in self._lanes:
            self._fill_lane(lane)

    def _fill_lane(self, lane: _Lane) -> None:
        """Pick, propose and issue until the lane's window, the budget,
        the lane's free members or the miner's proposals run out."""
        exclude = set(lane.busy)
        while (
            len(lane.busy) < self.config.window
            and self.budget_left > 0
            and not self._stalled
        ):
            try:
                member_id = lane.scheduler.next_member(exclude=exclude)
            except CrowdExhaustedError:
                return
            if member_id is None:  # everyone available is already busy
                return
            proposal = self.miner.propose_question(member_id)
            if proposal is None:
                self._stalled = True
                return
            exclude.add(member_id)
            try:
                self._issue(proposal, 0, lane)
            except CrowdExhaustedError:
                # The member left between scheduling and asking; they
                # stay excluded, so filling still terminates.
                pass

    def _issue(self, proposal: QuestionProposal, attempt: int, lane: _Lane) -> None:
        """Pose one question and book it: schedule its arrival and
        timeout, charge the budget, update the gauges."""
        member_id = proposal.member_id
        in_flight = self.miner.pose_async(
            proposal,
            latency=self._profile.model_for(member_id),
            rng=lane.rng,
            now=lane.clock.now,
        )
        timeout = self.config.timeout * self.config.backoff**attempt
        if in_flight.is_lost and math.isinf(timeout):
            raise ConfigurationError(
                "an answer was lost mid-flight but the dispatcher has no "
                "timeout to recover it; configure a finite timeout when the "
                "latency model can drop answers"
            )
        entry = _InFlight(proposal=proposal, answer=in_flight, attempt=attempt, lane=lane)
        if not in_flight.is_lost:
            # Scheduled before the timeout, so an answer landing at the
            # exact timeout instant still counts (ties break by
            # schedule order).
            entry.arrival_event = lane.clock.schedule_at(
                in_flight.arrives_at, partial(self._deliver, member_id)
            )
        if not math.isinf(timeout):
            entry.timeout_event = lane.clock.schedule(
                timeout, partial(self._timeout, member_id)
            )
        self._in_flight[member_id] = entry
        lane.busy.add(member_id)
        self._issued += 1
        self.obs.count("dispatch.issued")
        if attempt > 0:
            self._retries += 1
            self.obs.count("dispatch.retries")
        self.obs.gauge("dispatch.in_flight", len(self._in_flight))

    def _take(self, member_id: str) -> _InFlight:
        """Remove a question from the in-flight book (landed or lost)."""
        entry = self._in_flight.pop(member_id)
        entry.lane.busy.discard(member_id)
        self.obs.gauge("dispatch.in_flight", len(self._in_flight))
        return entry

    # -- event handlers -----------------------------------------------------------

    def _deliver(self, member_id: str) -> None:
        entry = self._take(member_id)
        if entry.timeout_event is not None:
            entry.timeout_event.cancel()
        self.obs.observe("dispatch.latency", entry.answer.delay)
        event = self.miner.ingest_answer(entry.proposal, entry.answer.answer)
        self._stalled = False
        if event is not None:
            self._completed += 1
        elif self.miner.last_discard is Discard.MALFORMED:
            self._malformed += 1
        elif self.miner.last_discard is Discard.REJECTED:
            self._rejected += 1
        else:
            self._stale += 1

    def _redeliver(self, entry: _InFlight) -> None:
        """A transport-level replay of one delivery (fault injection).

        The replay lands after the question has left the in-flight
        book: either its original delivery landed first (it was
        scheduled first at the same instant, and ties break by schedule
        order), or the question timed out or its member crashed first,
        and its fate is already booked. Either way the replay is
        discarded here and never touches the issued books.
        """
        self._duplicates += 1
        self.obs.count("dispatch.duplicates")
        assert (
            self._in_flight.get(entry.proposal.member_id) is not entry
        ), "replay arrived before the original delivery"

    # -- the fault surface --------------------------------------------------------

    def in_flight_members(self) -> list[str]:
        """Members currently holding an in-flight question, sorted.

        Sorted so fault injectors can pick victims deterministically.
        """
        return sorted(self._in_flight)

    def crash_member(self, member_id: str) -> None:
        """The member abruptly leaves mid-session (fault injection).

        They are removed from future scheduling; if they were holding
        an in-flight question, its answer will never come — both its
        pending events are disarmed, the loss is booked under
        ``crashed``, and the question goes through the same
        retry/reassign path as a timeout, so it is recovered by another
        member of the same lane (or dropped, when retries/budget are
        spent).
        """
        self.miner.crowd.crash(member_id)
        if member_id not in self._in_flight:
            return
        entry = self._take(member_id)
        self._crashed += 1
        self.obs.count("dispatch.crashed")
        if entry.arrival_event is not None:
            entry.arrival_event.cancel()
        if entry.timeout_event is not None:
            entry.timeout_event.cancel()
        self._retry(entry)

    def inject_duplicate(self, member_id: str) -> bool:
        """Schedule a second delivery of the member's in-flight answer.

        Simulates at-least-once transport: the same answer delivered
        twice. Returns False (nothing scheduled) when the member holds
        no in-flight question or their answer is lost in flight. The
        replay lands at the original arrival instant, *after* the
        original (ties break by schedule order), and is discarded
        (see :meth:`_redeliver`).
        """
        entry = self._in_flight.get(member_id)
        if entry is None or entry.answer.is_lost:
            return False
        entry.lane.clock.schedule_at(
            entry.answer.arrives_at, partial(self._redeliver, entry)
        )
        return True

    def _timeout(self, member_id: str) -> None:
        entry = self._take(member_id)
        self._timeouts += 1
        self.obs.count("dispatch.timeouts")
        if entry.arrival_event is not None:
            # The answer was merely slow, not lost; when it does land,
            # nobody will be listening.
            entry.arrival_event.cancel()
            self._late += 1
            self.obs.count("dispatch.late")
        self._retry(entry)

    def _retry(self, entry: _InFlight) -> None:
        """Reissue a timed-out question to another member, or drop it."""
        attempt = entry.attempt + 1
        proposal = entry.proposal
        if (
            attempt > self.config.max_retries
            or self.budget_left <= 0
            or self.miner.proposal_is_stale(proposal)
        ):
            self._drop()
            return
        member_id = self._reassign_target(proposal, entry.lane)
        if member_id is None:
            self._drop()
            return
        reissued = dataclasses.replace(
            proposal, member_id=member_id, kb_version=self.miner.state.version
        )
        try:
            self._issue(reissued, attempt, entry.lane)
        except CrowdExhaustedError:
            self._drop()

    def _reassign_target(self, proposal: QuestionProposal, lane: _Lane) -> str | None:
        """A free member of ``lane`` to retry with — preferably not the original one.

        For closed questions, members whose answer about the rule is
        already on record are ineligible (their retry answer would be
        discarded as stale on arrival anyway). First fit: the walk over
        the lane's available members, in order, stops at the first
        eligible member other than the original, so it probes at most
        the members in flight, those already answered and the original
        before it hits — however large the lane. The original is the
        fallback when nobody else is eligible.
        """
        answered = None
        if proposal.kind is QuestionKind.CLOSED:
            assert proposal.rule is not None
            answered = self.miner.state.knowledge(proposal.rule).samples.has_answer_from
        fallback = None
        for member_id in lane.scheduler.iter_available():
            if member_id in self._in_flight or (
                answered is not None and answered(member_id)
            ):
                continue
            if member_id != proposal.member_id:
                return member_id
            fallback = member_id
        return fallback

    def _drop(self) -> None:
        self._dropped += 1
        self.obs.count("dispatch.dropped")

    # -- checkpointing ------------------------------------------------------------

    def request_checkpoint(self) -> None:
        """Ask for a session checkpoint at the next event boundary.

        Called by the miner from inside an ingest (i.e. mid-``_deliver``,
        when the completion books are not yet updated); the capture
        itself happens in :meth:`run`/:meth:`advance_to` right after the
        current clock event finishes.
        """
        self._checkpoint_requested = True

    def _maybe_checkpoint(self) -> None:
        if self._checkpoint_requested:
            self._checkpoint_requested = False
            self.miner.checkpoint()

    # -- driving ------------------------------------------------------------------

    def _step(self, until: float = math.inf) -> bool:
        """Fire the earliest pending event due by ``until``, then refill.

        The merge loop's one step: across lanes, the globally-earliest
        event fires (ties go to the lower lane), a requested
        checkpoint is captured on that event boundary, and every
        lane's window is refilled. False when nothing is due.
        """
        due, due_at = None, math.inf
        for lane in self._lanes:
            at = lane.clock.peek_time()
            if at is not None and at < due_at:
                due, due_at = lane, at
        if due is None or due_at > until:
            return False
        due.clock.pop()
        self._maybe_checkpoint()
        self._fill_window()
        return True

    def run(self) -> MiningResult:
        """Drain the session: issue, deliver, retry until nothing remains."""
        self._fill_window()
        while self._in_flight and self._step():
            pass
        return self.result()

    def advance_to(self, time: float) -> None:
        """Run the session up to an absolute simulated time.

        Fires every event at or before ``time`` (refilling the windows
        as answers land) and leaves every lane's clock exactly at
        ``time``, so callers can sample quality on a fixed
        simulated-time grid.
        """
        self._fill_window()
        while self._step(time):
            pass
        for lane in self._lanes:
            lane.clock.run_until(time)

    # -- results ------------------------------------------------------------------

    def stats(self) -> DispatchStats:
        """Counters of the session so far."""
        return DispatchStats(
            issued=self._issued,
            completed=self._completed,
            timeouts=self._timeouts,
            retries=self._retries,
            stale_discarded=self._stale,
            late_discarded=self._late,
            dropped=self._dropped,
            in_flight_high_water=int(
                self.obs.gauge_high_water("dispatch.in_flight")
            ),
            makespan=max(lane.clock.now for lane in self._lanes),
            malformed=self._malformed,
            rejected=self._rejected,
            crashed=self._crashed,
            duplicates=self._duplicates,
        )

    def result(self, mode: str = "point") -> MiningResult:
        """The miner's result with this session's dispatch counters attached."""
        result = self.miner.result(mode)
        result.dispatch = self.stats()
        return result
