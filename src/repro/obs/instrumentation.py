"""Counters, timers, gauges, histograms and trace events for hot paths.

The knowledge base and the main loop are the per-question inner loop of
the whole system; regressions there are invisible in unit tests and
only show up as benchmark drift months later. :class:`Instrumentation`
makes them measurable *in production*: named monotonic counters, named
accumulating wall-clock timers, named gauges (a level plus its
high-water mark), named histograms (bucketed value distributions), and
(optionally) a per-event trace fed to a pluggable sink.

The overhead budget is a dict update per counted event and two
``perf_counter`` calls per timed block, so the layer can stay on
unconditionally. Trace events are the only potentially expensive part;
they are skipped entirely unless a sink is installed.

Canonical names used by the miner (see ``docs/design_notes.md``):

- counters ``miner.questions``, ``miner.closed``, ``miner.open``,
  ``miner.dry_opens``, ``kb.rules_added``, ``kb.reassessments``,
  ``kb.inferred``, ``kb.summary_hits``, ``kb.summary_misses``;
- timers ``miner.step``, ``miner.select``, ``kb.record``,
  ``kb.propagate``.

The asynchronous dispatch engine (``repro.dispatch``, see
``docs/dispatch.md``) adds counters ``dispatch.issued``,
``dispatch.timeouts``, ``dispatch.retries``, ``dispatch.stale``,
``dispatch.late``, ``dispatch.dropped``, the gauge
``dispatch.in_flight`` and the histogram ``dispatch.latency``
(simulated seconds from issue to answer arrival).

The robustness layer (``repro.faults``, see ``docs/robustness.md``)
adds:

- validation-gate counters ``answers.malformed`` (unparseable answers
  dropped at ingest) and ``quality.rejected`` (answers from
  quarantined members dropped at ingest);
- quality-loop counters ``quality.reestimates`` (latent-model fits)
  and ``quality.quarantined`` (members quarantined), the timer
  ``quality.estimate`` and the histogram ``quality.ability``
  (posterior relative noise scales after each fit);
- evidence-release counters ``kb.members_purged`` and
  ``kb.answers_purged`` plus the timer ``kb.purge``;
- dispatcher fault-surface counters ``dispatch.crashed`` (in-flight
  questions lost to member crashes) and ``dispatch.duplicates``
  (discarded at-least-once redeliveries);
- injector counters ``faults.crashes``, ``faults.churned``,
  ``faults.duplicates`` and ``faults.noops`` (a scheduled fault that
  found no victim).

The persistence layer (``repro.storage``, see ``docs/persistence.md``)
adds counters ``storage.checkpoints``, ``storage.bytes_written``,
``storage.answers_logged`` and ``storage.restores``, timers
``storage.checkpoint`` and ``storage.restore``, and the gauge
``storage.bytes_on_disk``. Its degradation-and-repair surface (the
chaos PR, see ``docs/robustness.md``) adds ``storage.append_failures``
(log appends refused by the backend, backlogged in memory),
``storage.checkpoint_failures`` (saves that raised — the session
continues degraded) and ``storage.repaired`` (corrupt checkpoints
dropped by ``--repair`` on resume).

The serving surface (``repro.serve``, see ``docs/serving.md``) adds
``serve.retries`` (timed-out questions reissued), ``serve.gone``
(members who left instead of answering), ``serve.dedup_hits``
(requests folded into a previous delivery by their idempotency key)
and ``serve.backpressure_rejections`` (fetches shed with 429 at the
``max_outstanding`` bound).

The chaos layer (``repro.chaos``, injected faults — these count what
was *done to* the system, not what it did) adds
``chaos.storage.torn``, ``chaos.storage.bitflip``,
``chaos.storage.lost`` and ``chaos.storage.disk_full`` via the faulty
backend wrapper, and the chaos client tallies
``chaos.transport.dropped_requests``,
``chaos.transport.dropped_responses``, ``chaos.transport.duplicated``,
``chaos.transport.replayed`` and ``chaos.transport.delayed`` on its
own ``counts`` dict (client-side, outside any session).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One traced occurrence: a name plus arbitrary payload fields."""

    name: str
    fields: Mapping[str, object]


#: A trace sink is any callable consuming :class:`TraceEvent`.
TraceSink = Callable[[TraceEvent], None]


@dataclass(frozen=True, slots=True)
class TimerStats:
    """Accumulated wall-clock time of one named code region."""

    calls: int
    total_seconds: float

    @property
    def mean_ms(self) -> float:
        """Mean milliseconds per call (0 when never entered)."""
        if self.calls == 0:
            return 0.0
        return 1_000.0 * self.total_seconds / self.calls


@dataclass(frozen=True, slots=True)
class GaugeStats:
    """A gauge's current level and the highest level it ever reached."""

    value: float
    high_water: float


@dataclass(frozen=True, slots=True)
class HistogramStats:
    """A bucketed distribution of observed values.

    ``buckets`` pairs each upper bucket edge with the number of
    observations at or below it (non-cumulative; the final
    ``float('inf')`` bucket catches the overflow).
    """

    count: int
    total: float
    max_value: float
    buckets: tuple[tuple[float, int], ...]

    @property
    def mean(self) -> float:
        """Mean observed value (0 when nothing was observed)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count


@dataclass(frozen=True, slots=True)
class ObsSnapshot:
    """An immutable copy of every instrument's state at one instant."""

    counters: dict[str, int]
    timers: dict[str, TimerStats]
    gauges: dict[str, GaugeStats] = field(default_factory=dict)
    histograms: dict[str, HistogramStats] = field(default_factory=dict)

    def format(self) -> str:
        """A compact human-readable rendering (one line per entry)."""
        lines = []
        for name in sorted(self.counters):
            lines.append(f"  {name:<24} {self.counters[name]}")
        for name in sorted(self.gauges):
            stats = self.gauges[name]
            lines.append(
                f"  {name:<24} {stats.value:g} (high water {stats.high_water:g})"
            )
        for name in sorted(self.histograms):
            stats = self.histograms[name]
            lines.append(
                f"  {name:<24} {stats.count} obs, "
                f"mean {stats.mean:.3f}, max {stats.max_value:.3f}"
            )
        for name in sorted(self.timers):
            stats = self.timers[name]
            lines.append(
                f"  {name:<24} {stats.calls} calls, "
                f"{stats.total_seconds:.3f}s total, {stats.mean_ms:.3f} ms/call"
            )
        return "\n".join(lines)


class _Timer:
    """A reusable context manager accumulating one region's wall time.

    Not re-entrant: nested entry of the *same* timer would double-count
    the inner span. The miner's timed regions never self-nest.
    """

    __slots__ = ("calls", "total_seconds", "_started")

    def __init__(self) -> None:
        self.calls = 0
        self.total_seconds = 0.0
        self._started = 0.0

    def __enter__(self) -> "_Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.total_seconds += time.perf_counter() - self._started
        self.calls += 1


#: Default histogram bucket edges, tuned for simulated crowd latencies
#: (seconds): sub-second UI-speed answers through multi-hour stragglers.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.05,
    0.25,
    1.0,
    5.0,
    30.0,
    120.0,
    600.0,
    3600.0,
)


class _Gauge:
    """A settable level that remembers its high-water mark."""

    __slots__ = ("value", "high_water")

    def __init__(self) -> None:
        self.value = 0.0
        self.high_water = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value


class _Histogram:
    """Fixed-bucket accumulator for one named value distribution."""

    __slots__ = ("edges", "bucket_counts", "count", "total", "max_value")

    def __init__(self, edges: tuple[float, ...]) -> None:
        self.edges = edges
        self.bucket_counts = [0] * (len(edges) + 1)  # +1 overflow bucket
        self.count = 0
        self.total = 0.0
        self.max_value = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value
        for idx, edge in enumerate(self.edges):
            if value <= edge:
                self.bucket_counts[idx] += 1
                return
        self.bucket_counts[-1] += 1

    def stats(self) -> HistogramStats:
        upper = tuple(self.edges) + (float("inf"),)
        return HistogramStats(
            count=self.count,
            total=self.total,
            max_value=self.max_value,
            buckets=tuple(zip(upper, self.bucket_counts)),
        )


class Instrumentation:
    """One session's observability state.

    Parameters
    ----------
    sink:
        Optional callable receiving every :class:`TraceEvent`. With no
        sink, :meth:`emit` is a near-free early return, so per-question
        tracing costs nothing unless someone is listening.
    """

    def __init__(self, sink: TraceSink | None = None) -> None:
        self._counters: dict[str, int] = {}
        self._timers: dict[str, _Timer] = {}
        self._gauges: dict[str, _Gauge] = {}
        self._histograms: dict[str, _Histogram] = {}
        self._sink = sink

    # -- counters ------------------------------------------------------------

    def count(self, name: str, by: int = 1) -> None:
        """Add ``by`` to the named counter (created at 0)."""
        self._counters[name] = self._counters.get(name, 0) + by

    def counter(self, name: str) -> int:
        """Current value of the named counter (0 when never counted)."""
        return self._counters.get(name, 0)

    # -- gauges --------------------------------------------------------------

    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge's level (high-water mark kept)."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = _Gauge()
        gauge.set(value)

    def gauge_value(self, name: str) -> float:
        """Current level of the named gauge (0 when never set)."""
        gauge = self._gauges.get(name)
        return 0.0 if gauge is None else gauge.value

    def gauge_high_water(self, name: str) -> float:
        """High-water mark of the named gauge (0 when never set)."""
        gauge = self._gauges.get(name)
        return 0.0 if gauge is None else gauge.high_water

    # -- histograms ----------------------------------------------------------

    def observe(
        self, name: str, value: float, edges: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> None:
        """Record one observation into the named histogram.

        ``edges`` configures the bucket boundaries on the histogram's
        *first* observation; later calls reuse the existing buckets.
        """
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = _Histogram(tuple(edges))
        histogram.observe(value)

    # -- timers --------------------------------------------------------------

    def timer(self, name: str) -> _Timer:
        """The accumulating timer for ``name`` (use as context manager)."""
        timer = self._timers.get(name)
        if timer is None:
            timer = self._timers[name] = _Timer()
        return timer

    # -- trace events --------------------------------------------------------

    @property
    def tracing(self) -> bool:
        """True when a trace sink is installed."""
        return self._sink is not None

    def emit(self, name: str, **fields: object) -> None:
        """Send one trace event to the sink (no-op without a sink)."""
        if self._sink is None:
            return
        self._sink(TraceEvent(name, fields))

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> ObsSnapshot:
        """An immutable copy of every instrument right now."""
        return ObsSnapshot(
            counters=dict(self._counters),
            timers={
                name: TimerStats(timer.calls, timer.total_seconds)
                for name, timer in self._timers.items()
            },
            gauges={
                name: GaugeStats(gauge.value, gauge.high_water)
                for name, gauge in self._gauges.items()
            },
            histograms={
                name: histogram.stats()
                for name, histogram in self._histograms.items()
            },
        )


class RecordingSink:
    """A list-backed trace sink for tests and offline analysis.

    >>> sink = RecordingSink()
    >>> obs = Instrumentation(sink=sink)
    >>> obs.emit("question", index=0, kind="closed")
    >>> sink.events[0].name
    'question'
    """

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def __call__(self, event: TraceEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)
