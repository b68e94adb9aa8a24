"""Whole-session checkpoint capture and resume.

A checkpoint is the format stamp (:data:`CHECKPOINT_FORMAT`, pickled
on its own so another format is refused before anything else is
unpickled), then one pickle of everything replay-determinism needs:
the miner (knowledge base with rules/samples/decisions, RNG streams,
question log, trust/quality state, the open-policy and strategy
objects) plus the live object in the miner's dispatcher seat, if any:

- a :class:`~repro.dispatch.dispatcher.Dispatcher`, pickled as it
  stands: each lane's clock with every pending event, its latency
  stream, the in-flight book and the outcome counters. Every clock
  action is a bound method or a ``functools.partial`` of one, so the
  event heaps pickle too, and so does a fault injector whose faults
  are still scheduled;
- a :class:`~repro.serve.session.ServeSession`, which pickles its
  pending book as re-offers (see its ``__getstate__``).

The simulated crowd's closed answer still unread when the checkpoint
is taken — in flight, or discarded unread — travels as its recipe
(member, rule), and nothing is simulated for the capture; the resumed
session simulates it, in issue order, exactly as the uninterrupted one
would (see :mod:`repro.crowd.crowd`). The crowd itself travels as its
population (a columnar one as its recipe), its sparse per-member
behaviour and the state of the members it has asked.

The session travels in a *single* pickle so shared objects (the
instrumentation layer, the trust sources inside the aggregator, rules
referenced from proposals and the knowledge base alike, the crowd a
dispatcher lane schedules over) keep their identity on load.

What is deliberately rebuilt rather than stored:

- the knowledge base's inverted index — reconstructed in memory from
  the rules, in discovery order, on load;
- each personal database's inverted index — rebuilt from its rows on
  load;
- each rule's cached aggregate summary and each member's habit pool —
  recomputed, identically, on first use;
- each crowd partition's member-id list and available set — rebuilt
  from the crowd's ids at the partition's slice alone, replaying the
  crowd's departure log, so a sharded checkpoint stays flat in crowd
  size and restoring it formats each member id once;
- a serve session's wall clock — the resuming session manager attaches
  its own.

The dispatcher, session and miner imports below are for type checking
only: this module is imported by ``repro.storage``, which the miner
loads, while the dispatcher imports the miner.
"""

from __future__ import annotations

import io
import pickle
import time
from typing import TYPE_CHECKING

from repro.storage.backend import (
    CheckpointInfo,
    CorruptStoreError,
    StorageBackend,
    StorageError,
)
from repro.storage.integrity import open_payload, seal_payload

if TYPE_CHECKING:
    from repro.dispatch.dispatcher import Dispatcher
    from repro.miner.crowdminer import CrowdMiner
    from repro.serve.session import ServeSession

#: Version stamp of the checkpoint payload layout. Format 2: one
#: dispatcher snapshot layout for any shard count, and crowds that
#: track availability only through their members' departure hooks.
#: Format 3: personal databases travel as their rows alone, rule
#: knowledge without its summary cache, and members without a rule
#: cache. Format 4: members report departures to the crowd's rotation,
#: which keeps the availability generation. Format 5: the dispatcher
#: seat travels as the live object, not as a snapshot document.
#: Format 6: a crowd's rotation keeps a departure log in place of the
#: availability generation. Format 7: the columnar crowd keeps its
#: members' unread closed answers as recipes, and an unread answer
#: pickles as its recipe. Format 8: the question log is columnar, sample
#: stores keep float pairs, the streaming estimator keeps floats, rules
#: pickle as their item tuples, and the dispatcher keeps no completion
#: timeline. Format 9: rotations and departure logs hold crowd positions
#: instead of member ids, a dispatcher lane keeps the set of its busy
#: members, and the knowledge base counts its INSIGNIFICANT decisions.
#: Format 10: the object crowd and the serving roster hold their
#: quarantined members as crowd positions instead of member ids, and
#: the consistency checker keeps reported supports, not ``RuleStats``.
#: Format 11: a dispatcher lane keeps no batch stream, the dispatcher no
#: delivery tokens, and the crowds no token counter. Format 12: the
#: simulated crowd keeps its population and sparse per-member
#: behaviour instead of member objects, and the stamp is its own
#: pickle ahead of the session's, so a payload of another format is
#: refused before any session object is unpickled.
CHECKPOINT_FORMAT = 12


def capture_session(
    miner: "CrowdMiner", dispatcher: "Dispatcher | ServeSession | None" = None
) -> bytes:
    """Serialize one session (the miner plus its dispatcher seat) to bytes.

    Safe to call between questions (the synchronous path) or between
    clock events (the dispatched path — the dispatcher defers the
    request to that boundary, see
    :meth:`~repro.dispatch.dispatcher.Dispatcher.request_checkpoint`);
    capturing mid-delivery would snapshot half-updated books.

    The returned bytes are sealed
    (:func:`repro.storage.integrity.seal_payload`): a SHA-256 frame
    the restore side verifies before unpickling, so torn writes and
    bit rot surface as :class:`CorruptStoreError` instead of garbage
    state. Inside the seal, the format stamp is pickled on its own,
    ahead of the session.
    """
    doc = {"miner": miner, "dispatch": dispatcher}
    return seal_payload(
        pickle.dumps(CHECKPOINT_FORMAT, protocol=pickle.HIGHEST_PROTOCOL)
        + pickle.dumps(doc, protocol=pickle.HIGHEST_PROTOCOL)
    )


def verify_payload(payload: bytes) -> bytes:
    """Checksum-verify one stored checkpoint payload (see scrub/repair).

    Returns the inner pickle bytes; raises :class:`CorruptStoreError`
    when the payload is unsealed or its seal does not hold.
    """
    return open_payload(payload, what="checkpoint")


def restore_session(
    payload: bytes, storage: StorageBackend | None = None
) -> "tuple[CrowdMiner, Dispatcher | ServeSession | None]":
    """Rebuild a live session from a checkpoint payload.

    Attaches ``storage`` to the restored miner. Returns the miner and
    the object that sat in its dispatcher seat (``None`` for
    synchronous sessions), re-attached as ``miner.dispatcher``: a
    dispatcher with every pending event still on its clocks, or a
    serve session waiting for a clock (see
    :meth:`repro.serve.session.SessionManager.resume_all`).

    The payload's checksum seal is verified *before* unpickling; a
    damaged payload raises :class:`CorruptStoreError` (resume with
    ``--repair`` to fall back to the last verified checkpoint).
    """
    stream = io.BytesIO(verify_payload(payload))
    stamp = _unpickle(stream)
    if isinstance(stamp, dict):  # formats 1-11: the stamp sat inside the session's pickle
        stamp = stamp.get("format")
    if stamp != CHECKPOINT_FORMAT:
        raise StorageError(
            f"unsupported checkpoint format {stamp!r} "
            f"(this build reads format {CHECKPOINT_FORMAT})"
        )
    doc = _unpickle(stream)
    if not isinstance(doc, dict) or "miner" not in doc:
        raise StorageError("not a checkpoint payload")
    miner: "CrowdMiner" = doc["miner"]
    miner.storage = storage
    bind_obs = getattr(storage, "bind_obs", None)
    if bind_obs is not None:
        bind_obs(miner.obs)
    miner.dispatcher = doc["dispatch"]
    return miner, miner.dispatcher


def _unpickle(stream: io.BytesIO):
    """The next object of a checkpoint payload; any failure is a
    :class:`StorageError` that names its cause."""
    try:
        return pickle.load(stream)
    except Exception as exc:
        # A payload written before a module move or a class deletion
        # fails in whichever hook meets the old layout first, so its
        # own exception is the only account of what moved.
        raise StorageError(
            f"cannot unpickle checkpoint payload: {type(exc).__name__}: {exc}"
        ) from exc


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
) -> "tuple[CrowdMiner, Dispatcher | ServeSession | None, CheckpointInfo]":
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

    The middle element of the returned tuple is the restored
    dispatcher seat: ``None``, a live dispatcher, or a serve session
    (which :meth:`repro.serve.session.SessionManager.resume_all`
    gives a clock, not ``Dispatcher.run``).
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
