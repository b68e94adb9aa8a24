"""Whole-session checkpoint capture and resume.

A checkpoint is one pickle of everything replay-determinism needs:
the miner (knowledge base with rules/samples/decisions, RNG streams,
question log, trust/quality state, the open-policy and strategy
objects) plus — for dispatched sessions — a plain-data snapshot of the
dispatcher (event-clock time and schedule counter, the in-flight book
with each pending arrival/timeout instant, all outcome counters, the
delivery-token guard, the completion timeline). Everything travels in
a *single* pickle so shared objects (the instrumentation layer, the
trust sources inside the aggregator, rules referenced from proposals
and the knowledge base alike) keep their identity on load.

What is deliberately rebuilt rather than stored:

- the knowledge base's inverted index — reconstructed in memory from
  the rules, in discovery order, on load;
- the event closures of pending arrivals/timeouts — re-armed on a
  fresh clock in original schedule order, so same-instant ties keep
  breaking exactly as they would have in the uninterrupted run.

Known limitation: externally scheduled clock events are not captured —
resuming a session driven by a fault injector with faults still
scheduled silently drops those pending faults (the injector itself,
living outside the miner/dispatcher, is not part of the session
graph). Checkpoint *between* injected faults, or re-arm the injector
after resume.

The dispatch/miner imports below are function-local on purpose: this
module is imported by ``repro.storage`` which the miner loads, while
the dispatcher imports the miner — top-level imports here would close
that cycle.
"""

from __future__ import annotations

import pickle
import time
from typing import TYPE_CHECKING, Any

from repro.storage.backend import (
    CheckpointInfo,
    CorruptStoreError,
    StorageBackend,
    StorageError,
)
from repro.storage.integrity import open_payload, seal_payload

if TYPE_CHECKING:
    from repro.dispatch.dispatcher import Dispatcher
    from repro.dispatch.sharded import ShardedDispatcher
    from repro.miner.crowdminer import CrowdMiner

#: Version stamp of the checkpoint payload layout.
CHECKPOINT_FORMAT = 1


def capture_session(
    miner: "CrowdMiner", dispatcher: "Dispatcher | ShardedDispatcher | None" = None
) -> bytes:
    """Serialize one session (miner plus optional dispatcher) to bytes.

    Safe to call between questions (the synchronous path) or between
    clock events (the dispatched path — the dispatcher defers the
    request to that boundary, see
    :meth:`~repro.dispatch.dispatcher.Dispatcher.request_checkpoint`);
    capturing mid-delivery would snapshot half-updated books.

    The returned bytes are sealed
    (:func:`repro.storage.integrity.seal_payload`): a SHA-256 frame
    the restore side verifies before unpickling, so torn writes and
    bit rot surface as :class:`CorruptStoreError` instead of garbage
    state.
    """
    doc = {
        "format": CHECKPOINT_FORMAT,
        "miner": miner,
        "dispatch": None if dispatcher is None else _snapshot_dispatcher(dispatcher),
    }
    return seal_payload(pickle.dumps(doc, protocol=pickle.HIGHEST_PROTOCOL))


def verify_payload(payload: bytes) -> bytes:
    """Checksum-verify one stored checkpoint payload (see scrub/repair).

    Returns the inner pickle bytes; raises :class:`CorruptStoreError`
    when the seal does not hold. Legacy pre-seal payloads pass through
    unverified — there is no digest to check.
    """
    return open_payload(payload, what="checkpoint")


def restore_session(
    payload: bytes, storage: StorageBackend | None = None
) -> "tuple[CrowdMiner, Dispatcher | ShardedDispatcher | None]":
    """Rebuild a live session from a checkpoint payload.

    Attaches ``storage`` to the restored miner. Returns the miner and,
    for dispatched sessions, a live dispatcher with every pending
    arrival/timeout re-armed.

    The payload's checksum seal is verified *before* unpickling; a
    damaged payload raises :class:`CorruptStoreError` (resume with
    ``--repair`` to fall back to the last verified checkpoint).
    """
    payload = verify_payload(payload)
    try:
        doc = pickle.loads(payload)
    except (pickle.UnpicklingError, EOFError, AttributeError, ImportError) as exc:
        raise StorageError("cannot unpickle checkpoint payload") from exc
    if not isinstance(doc, dict) or "format" not in doc:
        raise StorageError("not a checkpoint payload")
    if doc["format"] != CHECKPOINT_FORMAT:
        raise StorageError(
            f"unsupported checkpoint format {doc['format']!r} "
            f"(this build reads format {CHECKPOINT_FORMAT})"
        )
    miner: "CrowdMiner" = doc["miner"]
    miner.storage = storage
    bind_obs = getattr(storage, "bind_obs", None)
    if bind_obs is not None:
        bind_obs(miner.obs)
    dispatcher = None
    if doc["dispatch"] is not None:
        dispatcher = _restore_dispatcher(doc["dispatch"], miner)
    return miner, dispatcher


def scrub_store(
    storage: StorageBackend,
) -> tuple[list[CheckpointInfo], list[CheckpointInfo]]:
    """Checksum-verify every checkpoint; returns ``(verified, corrupt)``.

    The scrub-on-open pass: one read of every payload, each seal
    checked, nothing unpickled and nothing modified. ``--repair``
    builds on this by dropping the corrupt entries; ``repro kb`` prints
    the report so silent bit rot is noticed before it matters.
    """
    verified: list[CheckpointInfo] = []
    corrupt: list[CheckpointInfo] = []
    for info in storage.checkpoints():
        _info, payload = storage.load_checkpoint(info.checkpoint_id)
        try:
            verify_payload(payload)
        except CorruptStoreError:
            corrupt.append(info)
        else:
            verified.append(info)
    return verified, corrupt


def load_session(
    storage: StorageBackend,
    *,
    rollback: bool = True,
    repair: bool = False,
) -> "tuple[CrowdMiner, Dispatcher | ShardedDispatcher | None, CheckpointInfo]":
    """Resume from the backend's latest *verified* checkpoint.

    Rolls the write-ahead answer log back to the checkpoint boundary
    (answers logged after it will be re-collected deterministically by
    the resumed run), and accounts the restore on the session's own
    instrumentation (``storage.restores`` / the ``storage.restore``
    timer) — which exists only *inside* the payload, hence the manual
    timer arithmetic. Pass ``rollback=False`` for read-only inspection
    (``repro kb`` peeking at a store another process is writing): the
    answer log is left untouched and the backend is *not* attached to
    the restored miner, so nothing writes to it.

    Integrity: the latest checkpoint's checksum is verified before
    anything is unpickled. When it fails and ``repair=False``, a
    :class:`CorruptStoreError` names the damage and points at
    ``--repair``. With ``repair=True`` the full scrub-on-open pass runs
    first — every corrupt checkpoint is dropped (skipped, when the
    store is open read-only) — and the session resumes from the newest
    checkpoint whose seal holds, counting the fallback on
    ``storage.repaired``.

    For serve-session checkpoints the middle element of the returned
    tuple is a :class:`repro.serve.session.ServeSnapshot` (plain data,
    not a live dispatcher) — hand it to
    :meth:`repro.serve.session.SessionManager.resume_all`, not to
    ``Dispatcher.run``.
    """
    dropped = 0
    if repair:
        _verified, corrupt = scrub_store(storage)
        for bad in corrupt:
            if rollback:  # a read-only store cannot shed its bad rows
                storage.drop_checkpoint(bad.checkpoint_id)
            dropped += 1
        history = [
            info
            for info in storage.checkpoints()
            if not any(info.checkpoint_id == bad.checkpoint_id for bad in corrupt)
        ]
        if not history:
            if dropped:
                raise CorruptStoreError(
                    f"no verified checkpoint survives in {storage.describe()} — "
                    f"all {dropped} failed their checksum"
                )
            raise StorageError(
                f"no checkpoint to resume from in {storage.describe()}"
            )
        info, payload = storage.load_checkpoint(history[-1].checkpoint_id)
    else:
        loaded = storage.latest_checkpoint()
        if loaded is None:
            raise StorageError(f"no checkpoint to resume from in {storage.describe()}")
        info, payload = loaded
        try:
            verify_payload(payload)
        except CorruptStoreError as exc:
            raise CorruptStoreError(
                f"latest checkpoint #{info.checkpoint_id} in {storage.describe()} "
                f"is corrupt ({exc}); rerun with --repair to fall back to the "
                "last verified checkpoint"
            ) from exc
    started = time.perf_counter()
    miner, dispatcher = restore_session(payload, storage if rollback else None)
    elapsed = time.perf_counter() - started
    if rollback:
        storage.truncate_answers(info.answers_logged)
    obs = miner.obs
    obs.count("storage.restores")
    if dropped:
        obs.count("storage.repaired", dropped)
    timer = obs.timer("storage.restore")
    timer.calls += 1
    timer.total_seconds += elapsed
    return miner, dispatcher, info


# -- the dispatcher snapshot ---------------------------------------------------


_COUNTERS = (
    "issued",
    "completed",
    "timeouts",
    "retries",
    "stale",
    "late",
    "dropped",
    "malformed",
    "rejected",
    "crashed",
    "duplicates",
)


def _dispatch_state(dispatcher: "Dispatcher") -> dict[str, Any]:
    """One dispatcher's travelling state as plain data.

    Each in-flight entry records the *instants and schedule sequence
    numbers* of its pending arrival/timeout events; the actions are
    recreated on restore. Within the in-flight book events are always
    live (a cancelled event means the entry already left the book), so
    ``None`` only ever means "never scheduled" (a lost answer, an
    infinite timeout). Shared per-shard-or-single fields only — the
    config, stall flag and timeline live with whoever owns them.
    """
    in_flight = []
    for member_id, entry in dispatcher._in_flight.items():
        arrival = entry.arrival_event
        timeout = entry.timeout_event
        in_flight.append(
            {
                "member": member_id,
                "proposal": entry.proposal,
                "answer": entry.answer,
                "attempt": entry.attempt,
                "arrival": (
                    None
                    if arrival is None or arrival.cancelled
                    else (arrival.time, arrival.seq)
                ),
                "timeout": (
                    None
                    if timeout is None or timeout.cancelled
                    else (timeout.time, timeout.seq)
                ),
            }
        )
    return {
        "rng": dispatcher._rng,
        "clock_now": dispatcher.clock.now,
        "clock_seq": dispatcher.clock._seq,
        "in_flight": in_flight,
        "counters": {name: getattr(dispatcher, f"_{name}") for name in _COUNTERS},
        "seen_tokens": set(dispatcher._seen_tokens),
    }


def _apply_dispatch_state(dispatcher: "Dispatcher", state: dict[str, Any]) -> None:
    """Re-arm one dispatcher's travelling state onto its (fresh) clock.

    The clock must already stand at the snapshot instant. Pending
    events are re-armed in their *original schedule order* (sorted by
    saved sequence number): the re-armed events take new sequence
    numbers ``0..k-1`` preserving their relative order, and the clock's
    counter is then advanced to its saved value, so events scheduled
    after resume sort behind every re-armed one at the same instant —
    exactly as they would have in the uninterrupted run.
    """
    from repro.dispatch.dispatcher import _InFlight

    clock = dispatcher.clock
    dispatcher._rng = state["rng"]
    entries: dict[str, _InFlight] = {}
    pending: list[tuple[int, float, str, str]] = []
    for item in state["in_flight"]:
        entries[item["member"]] = _InFlight(
            proposal=item["proposal"],
            answer=item["answer"],
            attempt=item["attempt"],
        )
        if item["arrival"] is not None:
            at, seq = item["arrival"]
            pending.append((seq, at, "arrival", item["member"]))
        if item["timeout"] is not None:
            at, seq = item["timeout"]
            pending.append((seq, at, "timeout", item["member"]))
    for _, at, what, member_id in sorted(pending):
        entry = entries[member_id]
        if what == "arrival":
            entry.arrival_event = clock.schedule_at(
                at, lambda m=member_id: dispatcher._deliver(m)
            )
        else:
            entry.timeout_event = clock.schedule_at(
                at, lambda m=member_id: dispatcher._timeout(m)
            )
    clock._seq = state["clock_seq"]
    dispatcher._in_flight = entries
    for name in _COUNTERS:
        setattr(dispatcher, f"_{name}", state["counters"][name])
    dispatcher._seen_tokens = set(state["seen_tokens"])


def _snapshot_dispatcher(
    dispatcher: "Dispatcher | ShardedDispatcher",
) -> dict[str, Any]:
    """Either dispatcher flavour as plain data, discriminated by kind.

    A sharded snapshot is a list of per-shard states plus the shared
    pieces stored once: the merged timeline, the global stall flag, the
    parent-tracked in-flight high water, each shard's batch stream and
    partition round-robin cursor (partitions are rebuilt from the
    restored crowd on load; only their cursors need to travel).
    """
    from repro.dispatch.sharded import ShardedDispatcher

    serve_snapshot = getattr(dispatcher, "serve_snapshot", None)
    if serve_snapshot is not None:
        # A live ServeSession sits in the miner's dispatcher seat; its
        # travelling state (the pending-question book) is already plain
        # data, discriminated by kind="serve".
        return serve_snapshot()
    if isinstance(dispatcher, ShardedDispatcher):
        return {
            "kind": "sharded",
            "config": dispatcher.config,
            "n_shards": dispatcher.n_shards,
            "shards": [_dispatch_state(shard) for shard in dispatcher.shards],
            "batch_rngs": [shard._batch_rng for shard in dispatcher.shards],
            "cursors": [shard.scheduler._rr_cursor for shard in dispatcher.shards],
            "stalled": dispatcher._stall_flag,
            "high_water": dispatcher._high_water,
            "timeline": list(dispatcher.timeline),
        }
    state = _dispatch_state(dispatcher)
    state["kind"] = "single"
    state["config"] = dispatcher.config
    state["stalled"] = dispatcher._stalled
    state["timeline"] = list(dispatcher.timeline)
    return state


def _restore_dispatcher(
    snapshot: dict[str, Any], miner: "CrowdMiner"
) -> "Dispatcher | ShardedDispatcher":
    """A live dispatcher equivalent to the snapshotted one."""
    from repro.dispatch.clock import EventClock
    from repro.dispatch.dispatcher import Dispatcher

    # Pre-"kind" snapshots are all single-dispatcher sessions.
    kind = snapshot.get("kind", "single")
    if kind == "serve":
        # Serve sessions restore as plain data: re-arming the pending
        # book needs a live event loop and server, so the session
        # manager (repro.serve) folds this back in, not this module.
        from repro.serve.session import ServeSnapshot

        return ServeSnapshot.from_doc(snapshot)
    if kind == "sharded":
        return _restore_sharded(snapshot, miner)
    clock = EventClock()
    clock._now = snapshot["clock_now"]
    dispatcher = Dispatcher(miner, snapshot["config"], clock)
    _apply_dispatch_state(dispatcher, snapshot)
    dispatcher._stalled = snapshot["stalled"]
    dispatcher.timeline = list(snapshot["timeline"])
    return dispatcher


def _restore_sharded(
    snapshot: dict[str, Any], miner: "CrowdMiner"
) -> "ShardedDispatcher":
    """A live sharded dispatcher equivalent to the snapshotted one.

    Construction rebuilds the shard skeleton (partitions over the
    restored crowd, per-shard clocks); each shard then gets its
    snapshotted travelling state applied on top. The construction-time
    seed derivation is discarded wholesale — every restored stream
    (latency, batch) comes from the snapshot, so the resumed run
    continues the original one's randomness, not a fresh replay's.
    """
    from repro.dispatch.sharded import ShardedDispatcher

    parent = ShardedDispatcher(
        miner, snapshot["config"], shards=snapshot["n_shards"]
    )
    for shard, state, batch_rng, cursor in zip(
        parent.shards, snapshot["shards"], snapshot["batch_rngs"], snapshot["cursors"]
    ):
        shard.clock._now = state["clock_now"]
        _apply_dispatch_state(shard, state)
        shard._batch_rng = batch_rng
        shard.scheduler._rr_cursor = cursor
    parent._stall_flag = snapshot["stalled"]
    parent._high_water = snapshot["high_water"]
    # Mutated in place: the list object is shared with every shard.
    parent.timeline[:] = snapshot["timeline"]
    return parent
