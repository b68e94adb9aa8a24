"""The pluggable storage protocol and the in-memory reference backend.

A :class:`StorageBackend` owns two things for one mining session:

- the **write-ahead answer log** — one :class:`AnswerRecord` per
  question the miner finishes, appended as it happens;
- the **checkpoint history** — opaque session payloads (pickles built
  by :mod:`repro.storage.checkpoint`) with their bookkeeping counts.

The knowledge base's lattice index is not a storage concern: every
session uses the in-memory :class:`~repro.miner.state.RuleIndex`,
which checkpoints drop and resume rebuilds from the rules.

:class:`MemoryBackend` is the default: everything lives in process
memory. Given a ``path`` it additionally mirrors its state to a single
pickle file on every checkpoint (written atomically via rename), which
is all a kill-and-resume run needs.
"""

from __future__ import annotations

import hashlib
import io as _io
import os
import pickle
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


#: On-disk format version of the MemoryBackend mirror file.
MEMORY_FILE_FORMAT = 1

#: Magic tag opening a checksummed MemoryBackend mirror file.
MEMORY_FILE_MAGIC = b"RPROMEM\x02"


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
        """Release any underlying resources."""
        ...


class MemoryBackend:
    """Process-memory storage, the default.

    Parameters
    ----------
    path:
        Optional mirror file. When given, every
        :meth:`save_checkpoint` rewrites the file with the backend's
        full state (answer log + checkpoint history) via an atomic
        rename, so a SIGKILL never leaves a torn file behind.
    """

    def __init__(self, path: str | os.PathLike | None = None) -> None:
        self.path = None if path is None else Path(path)
        self._answers: list[AnswerRecord] = []
        self._checkpoints: list[tuple[CheckpointInfo, bytes]] = []
        self._next_id = 1

    @classmethod
    def open(cls, path: str | os.PathLike) -> "MemoryBackend":
        """Load a previously mirrored backend from ``path``.

        The mirror is verified before a single pickled byte runs:
        checksummed mirrors (leading :data:`MEMORY_FILE_MAGIC`) must
        match their SHA-256 digest, legacy bare pickles must decode
        without leftover bytes. Truncation, bit rot or appended
        garbage raise :class:`CorruptStoreError` (a
        :class:`~repro.io.PersistenceError`), never a raw
        ``UnpicklingError``.
        """
        backend = cls(path)
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise StorageError(f"cannot read memory-backend file {path}") from exc
        if data[: len(MEMORY_FILE_MAGIC)] == MEMORY_FILE_MAGIC:
            digest_size = hashlib.sha256().digest_size
            framed = data[len(MEMORY_FILE_MAGIC) :]
            digest, payload = framed[:digest_size], framed[digest_size:]
            if len(digest) < digest_size or hashlib.sha256(payload).digest() != digest:
                raise CorruptStoreError(
                    f"memory-backend mirror {path} failed its checksum "
                    "(truncated or bit-rotted file)"
                )
        elif data[:1] == b"\x80":
            payload = data  # legacy unchecksummed mirror
        else:
            raise StorageError(f"not a memory-backend file: {path}")
        buffer = _io.BytesIO(payload)
        try:
            doc = pickle.Unpickler(buffer).load()
        except (pickle.UnpicklingError, EOFError, AttributeError, ValueError) as exc:
            raise CorruptStoreError(
                f"memory-backend mirror {path} does not unpickle cleanly"
            ) from exc
        if buffer.tell() != len(payload):
            raise CorruptStoreError(
                f"memory-backend mirror {path} carries "
                f"{len(payload) - buffer.tell()} bytes of trailing garbage"
            )
        if not isinstance(doc, dict) or doc.get("format") != MEMORY_FILE_FORMAT:
            raise StorageError(f"not a memory-backend file: {path}")
        backend._answers = list(doc["answers"])
        backend._checkpoints = list(doc["checkpoints"])
        backend._next_id = int(doc["next_id"])
        return backend

    # -- answer log ----------------------------------------------------------

    def append_answer(self, record: AnswerRecord) -> None:
        self._answers.append(record)

    def answers(self) -> list[AnswerRecord]:
        return sorted(self._answers, key=lambda record: record.seq)

    def truncate_answers(self, keep: int) -> None:
        self._answers = [r for r in self._answers if r.seq < keep]

    # -- checkpoints ---------------------------------------------------------

    def save_checkpoint(
        self, payload: bytes, *, questions: int, kb_rules: int
    ) -> CheckpointInfo:
        info = CheckpointInfo(
            checkpoint_id=self._next_id,
            questions=questions,
            kb_rules=kb_rules,
            answers_logged=len(self._answers),
            payload_bytes=len(payload),
        )
        self._next_id += 1
        self._checkpoints.append((info, payload))
        if self.path is not None:
            self._write_mirror()
        return info

    def latest_checkpoint(self) -> tuple[CheckpointInfo, bytes] | None:
        return self._checkpoints[-1] if self._checkpoints else None

    def load_checkpoint(self, checkpoint_id: int) -> tuple[CheckpointInfo, bytes]:
        for info, payload in self._checkpoints:
            if info.checkpoint_id == checkpoint_id:
                return info, payload
        raise StorageError(f"no checkpoint #{checkpoint_id} in {self.describe()}")

    def drop_checkpoint(self, checkpoint_id: int) -> None:
        kept = [
            entry for entry in self._checkpoints
            if entry[0].checkpoint_id != checkpoint_id
        ]
        if len(kept) == len(self._checkpoints):
            raise StorageError(f"no checkpoint #{checkpoint_id} in {self.describe()}")
        self._checkpoints = kept
        if self.path is not None:
            self._write_mirror()

    def checkpoints(self) -> list[CheckpointInfo]:
        return [info for info, _ in self._checkpoints]

    def _write_mirror(self) -> None:
        assert self.path is not None
        doc = {
            "format": MEMORY_FILE_FORMAT,
            "answers": self._answers,
            "checkpoints": self._checkpoints,
            "next_id": self._next_id,
        }
        payload = pickle.dumps(doc, protocol=pickle.HIGHEST_PROTOCOL)
        blob = MEMORY_FILE_MAGIC + hashlib.sha256(payload).digest() + payload
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_bytes(blob)
        os.replace(tmp, self.path)

    # -- bookkeeping ---------------------------------------------------------

    def bytes_on_disk(self) -> int:
        if self.path is None or not self.path.exists():
            return 0
        return self.path.stat().st_size

    def describe(self) -> str:
        where = "process memory" if self.path is None else str(self.path)
        return f"memory backend ({where})"

    def close(self) -> None:
        pass


def open_backend(
    path: str | os.PathLike | None,
    kind: str = "sqlite",
    *,
    resume: bool = False,
    readonly: bool = False,
) -> StorageBackend:
    """Construct the backend a CLI/runner invocation asked for.

    ``resume=False`` starts a fresh session store (an existing file at
    ``path`` is replaced); ``resume=True`` opens the existing store and
    fails loudly when there is none to resume from. ``readonly=True``
    (implies resume semantics) opens the store for inspection only:
    mutations raise, and — on the SQLite backend — the connection reads
    a consistent WAL snapshot even while another process writes.
    """
    if kind == "memory":
        if resume or readonly:
            if path is None:
                raise StorageError("resuming a memory backend requires a path")
            return MemoryBackend.open(path)
        return MemoryBackend(path)
    if kind == "sqlite":
        from repro.storage.sqlite import SQLiteBackend

        if path is None:
            raise StorageError("the sqlite backend requires a path")
        if (resume or readonly) and not Path(path).exists():
            raise StorageError(f"nothing to resume: {path} does not exist")
        if readonly:
            return SQLiteBackend(path, readonly=True)
        return SQLiteBackend(path, fresh=not resume)
    raise StorageError(f"unknown storage backend {kind!r}; expected sqlite or memory")
