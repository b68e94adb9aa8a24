"""Asynchronous question dispatch over simulated time.

Real crowds answer with latency — seconds to days, heavy-tailed, and
sometimes never. This package gives the miner an asynchronous engine
to cope: a deterministic discrete-event clock
(:mod:`repro.dispatch.clock`), a catalogue of per-member latency
models (:mod:`repro.dispatch.latency`), and a
:class:`~repro.dispatch.dispatcher.Dispatcher` that keeps a window of
questions in flight with timeout, retry-with-backoff and reassignment
(:mod:`repro.dispatch.dispatcher`), over the whole crowd or sharded
across crowd partitions. See ``docs/dispatch.md`` for the semantics and
the determinism guarantee.
"""

from repro.dispatch.clock import EventClock, ScheduledEvent, SchedulerClock
from repro.dispatch.dispatcher import DispatchConfig, Dispatcher, DispatchStats
from repro.dispatch.latency import (
    ConstantLatency,
    DroppingLatency,
    LatencyModel,
    LatencyProfile,
    LognormalLatency,
    MixtureLatency,
    ParetoLatency,
    heavy_tail_latency,
    parse_latency,
)

__all__ = [
    "ConstantLatency",
    "DispatchConfig",
    "DispatchStats",
    "Dispatcher",
    "DroppingLatency",
    "EventClock",
    "LatencyModel",
    "LatencyProfile",
    "LognormalLatency",
    "MixtureLatency",
    "ParetoLatency",
    "ScheduledEvent",
    "SchedulerClock",
    "heavy_tail_latency",
    "parse_latency",
]

#: Former name of ``Dispatcher(miner, config, shards=n)``, kept for the
#: benchmark harness under ``perfbench/`` until it moves to ``Dispatcher``.
ShardedDispatcher = Dispatcher
