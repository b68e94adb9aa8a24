"""The storage protocol and the front door that opens a session store.

A :class:`StorageBackend` owns two things for one mining session:

- the **write-ahead answer log** — one :class:`AnswerRecord` per
  question the miner finishes, appended as it happens;
- the **checkpoint history** — opaque session payloads (pickles built
  by :mod:`repro.storage.checkpoint`) with their bookkeeping counts.

The knowledge base's lattice index is not a storage concern: every
session uses the in-memory :class:`~repro.miner.state.RuleIndex`,
which checkpoints drop and resume rebuilds from the rules.

:class:`~repro.storage.sqlite.SQLiteBackend` is the one store. A
durable session keeps it in a database file; any other session keeps
it in a ``":memory:"`` database that dies with the process.
:class:`~repro.chaos.storage.FaultyBackend` implements the protocol by
wrapping a SQLite store, to inject storage faults.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.errors import ReproError
from repro.io import PersistenceError


class StorageError(ReproError):
    """A storage backend could not satisfy a request."""


class CorruptStoreError(StorageError, PersistenceError):
    """Persisted bytes failed an integrity check (checksum, framing).

    Distinct from a plain :class:`StorageError` because the caller's
    recovery differs: the store is *present* but damaged — re-running
    with ``--repair`` discards the unverifiable tail and resumes from
    the last checkpoint whose checksum holds, instead of unpickling
    garbage. Also a :class:`~repro.io.PersistenceError`, since every
    integrity failure is ultimately a document that cannot be read.
    """


@dataclass(frozen=True, slots=True)
class AnswerRecord:
    """One finished question/answer exchange, as logged.

    ``rule_key`` is the canonical key of
    :func:`repro.storage.records.rule_key` (``None`` for dry open
    answers); ``support``/``confidence`` are the answered stats
    (``None`` likewise).
    """

    seq: int
    member_id: str
    kind: str
    rule_key: str | None
    support: float | None
    confidence: float | None


@dataclass(frozen=True, slots=True)
class CheckpointInfo:
    """Bookkeeping of one saved checkpoint."""

    checkpoint_id: int
    questions: int
    kb_rules: int
    answers_logged: int
    payload_bytes: int


@runtime_checkable
class StorageBackend(Protocol):
    """What the miner, the runner and the CLI need from persistence."""

    def append_answer(self, record: AnswerRecord) -> None:
        """Append one record to the write-ahead answer log."""
        ...

    def answers(self) -> list[AnswerRecord]:
        """The answer log so far, in sequence order."""
        ...

    def truncate_answers(self, keep: int) -> None:
        """Discard log entries with ``seq >= keep`` (resume rollback)."""
        ...

    def save_checkpoint(
        self, payload: bytes, *, questions: int, kb_rules: int
    ) -> CheckpointInfo:
        """Persist one opaque session payload; returns its bookkeeping."""
        ...

    def latest_checkpoint(self) -> tuple[CheckpointInfo, bytes] | None:
        """The most recent checkpoint and its payload, or ``None``."""
        ...

    def load_checkpoint(self, checkpoint_id: int) -> tuple[CheckpointInfo, bytes]:
        """One specific checkpoint and its payload (scrub/repair walks)."""
        ...

    def drop_checkpoint(self, checkpoint_id: int) -> None:
        """Discard one checkpoint (``--repair`` removing corrupt rows)."""
        ...

    def checkpoints(self) -> list[CheckpointInfo]:
        """Bookkeeping of every saved checkpoint, oldest first."""
        ...

    def bytes_on_disk(self) -> int:
        """Storage footprint in bytes (0 for purely in-memory state)."""
        ...

    def describe(self) -> str:
        """A one-line human-readable description of the backend."""
        ...

    def close(self) -> None:
        """Commit what is pending and release the store."""
        ...

    def abort(self) -> None:
        """Discard what is uncommitted and release the store (simulated death)."""
        ...


def open_backend(
    path: str | os.PathLike | None,
    kind: str = "sqlite",
    *,
    resume: bool = False,
    readonly: bool = False,
) -> StorageBackend:
    """Open the session store a CLI/runner invocation asked for.

    ``kind="sqlite"`` opens the database file at ``path``.
    ``resume=False`` starts a fresh session store (an existing store at
    ``path`` is wiped); ``resume=True`` opens the existing store and
    fails loudly when there is none to resume from. ``readonly=True``
    (implies resume semantics) opens the store for inspection only:
    mutations raise, and the connection reads a consistent WAL snapshot
    even while another process writes.

    ``kind="memory"`` opens a fresh ``":memory:"`` database, which takes
    no ``path`` and cannot be resumed or read by another connection.
    """
    from repro.storage.sqlite import SQLiteBackend

    if kind == "memory":
        if path is not None or resume or readonly:
            raise StorageError(
                "an in-memory store takes no path and cannot be resumed"
            )
        return SQLiteBackend(":memory:")
    if kind == "sqlite":
        if path is None:
            raise StorageError("the sqlite backend requires a path")
        if (resume or readonly) and not Path(path).exists():
            raise StorageError(f"nothing to resume: {path} does not exist")
        if readonly:
            return SQLiteBackend(path, readonly=True)
        return SQLiteBackend(path, fresh=not resume)
    raise StorageError(f"unknown storage backend {kind!r}; expected sqlite or memory")
