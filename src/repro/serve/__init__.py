"""Real-time serving surface for live mining sessions.

The simulated :class:`~repro.dispatch.EventClock` world of
:mod:`repro.dispatch` made the miner's asynchrony *testable*; this
package makes it *deployable* without giving that up. A
:class:`RealTimeClock` runs the same
:class:`~repro.dispatch.SchedulerClock` queue over asyncio
monotonic time, a :class:`ServeSession` replays the dispatcher's
single-writer issue/ingest books over an HTTP request stream, and the
:mod:`~repro.serve.differential` harness pins the whole stack to the
synchronous reference transcript: same seeds, byte-identical
knowledge-base fingerprints, across a real network boundary and a wall
clock. See ``docs/serving.md``.
"""

from repro.serve.app import MinerServer, ServerLimits, serve_forever
from repro.serve.clock import RealTimeClock
from repro.serve.differential import (
    Scenario,
    SimulatedWorkerPool,
    drive_inprocess,
    drive_session,
    run_dispatch,
    run_serve,
    run_session_inprocess,
    run_sync,
)
from repro.serve.http import HttpError, JsonClient, RetryingClient
from repro.serve.roster import WorkerRoster
from repro.serve.session import ServeConfig, ServeError, ServeSession, SessionManager
from repro.serve.wire import answer_from_doc, answer_to_doc, question_to_doc

__all__ = [
    "HttpError",
    "JsonClient",
    "MinerServer",
    "RealTimeClock",
    "RetryingClient",
    "Scenario",
    "ServeConfig",
    "ServerLimits",
    "ServeError",
    "ServeSession",
    "SessionManager",
    "SimulatedWorkerPool",
    "WorkerRoster",
    "answer_from_doc",
    "answer_to_doc",
    "drive_inprocess",
    "drive_session",
    "question_to_doc",
    "run_dispatch",
    "run_serve",
    "run_session_inprocess",
    "run_sync",
    "serve_forever",
]
