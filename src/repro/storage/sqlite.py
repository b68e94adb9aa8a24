"""The session store: one SQLite database, a WAL-mode file or in memory.

One database file holds a whole session: the write-ahead answer log
and the checkpoint history (opaque pickled payloads plus bookkeeping
columns), so a saved session is inspectable with any SQLite shell. A
session that keeps nothing past its process holds the same tables in
a ``":memory:"`` database.
The knowledge base's lattice index is not stored: it is derived state,
rebuilt in memory from the checkpointed rules on resume
(``docs/persistence.md``).

Concurrency/durability posture: ``journal_mode=WAL`` with
``synchronous=NORMAL``. Answer-log appends open a deferred transaction
that stays open until the next checkpoint (or ``close()``), so the
per-question cost is one INSERT with no commit machinery — this is
what keeps the checkpoint-overhead budget (see ``bench_e7_runtime``).
The checkpoint row commits that transaction, making checkpoint and
log atomic: a SIGKILL at any instant leaves either the previous or
the new checkpoint readable (never a torn one), and the committed
answer log never runs *behind* the committed checkpoint. Answers after
the last checkpoint may be lost in a crash, but those are precisely
the entries resume rolls back anyway (``truncate_answers``).
"""

from __future__ import annotations

import os
import sqlite3
from pathlib import Path

from repro.storage.backend import AnswerRecord, CheckpointInfo, StorageError

#: Schema version stamped into the ``meta`` table.
SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS answers (
    seq        INTEGER PRIMARY KEY,
    member     TEXT NOT NULL,
    kind       TEXT NOT NULL,
    rule       TEXT,
    support    REAL,
    confidence REAL
);
CREATE TABLE IF NOT EXISTS checkpoints (
    id             INTEGER PRIMARY KEY AUTOINCREMENT,
    questions      INTEGER NOT NULL,
    kb_rules       INTEGER NOT NULL,
    answers_logged INTEGER NOT NULL,
    payload        BLOB NOT NULL
);
"""


class SQLiteBackend:
    """Session storage in one WAL-mode SQLite database.

    Parameters
    ----------
    path:
        Database file (created when missing), or ``":memory:"`` for the
        in-process store of a session that keeps nothing past its
        process (``open_backend(None, "memory")``).
    fresh:
        Start a new session store: any existing tables at ``path`` are
        dropped first. ``fresh=False`` opens the existing store for
        resume/inspection.
    readonly:
        Open over SQLite's ``mode=ro`` URI: no schema writes on open,
        every mutating method raises :class:`StorageError`, and —
        because this is a WAL database — reads see a **consistent
        snapshot** even while another process is mid-write (WAL readers
        never block on, nor observe, an uncommitted batch). This is the
        connection ``repro kb`` uses against a live session's store.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        fresh: bool = False,
        readonly: bool = False,
    ) -> None:
        if fresh and readonly:
            raise StorageError("a fresh store cannot be opened read-only")
        self.path = str(path)
        self.readonly = readonly
        self._in_tx = False
        #: Chaos seam: called immediately before COMMIT, i.e. with the
        #: answer batch and checkpoint row written but not yet durable.
        #: The kill-schedule runner SIGKILLs the process here to pin
        #: the "between WAL append and commit" crash cell.
        self.pre_commit_hook = None
        try:
            if readonly:
                self._conn = sqlite3.connect(
                    f"file:{self.path}?mode=ro", uri=True, isolation_level=None
                )
            else:
                self._conn = sqlite3.connect(self.path, isolation_level=None)
        except sqlite3.Error as exc:
            raise StorageError(f"cannot open sqlite database {path}") from exc
        try:
            if not readonly:
                self._conn.execute("PRAGMA journal_mode=WAL")
                self._conn.execute("PRAGMA synchronous=NORMAL")
                if fresh:
                    for table in ("meta", "answers", "checkpoints"):
                        self._conn.execute(f"DROP TABLE IF EXISTS {table}")
                self._conn.executescript(_SCHEMA)
                self._conn.execute(
                    "INSERT OR IGNORE INTO meta (key, value) VALUES ('schema_version', ?)",
                    (str(SCHEMA_VERSION),),
                )
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
        except sqlite3.Error as exc:
            self._conn.close()
            raise StorageError(f"not a session store: {path}") from exc
        if row is None:
            self._conn.close()
            raise StorageError(f"not a session store: {path}")
        if int(row[0]) != SCHEMA_VERSION:
            self._conn.close()
            raise StorageError(
                f"unsupported schema version {row[0]} in {path} "
                f"(this build writes version {SCHEMA_VERSION})"
            )

    def _writable(self) -> None:
        if self.readonly:
            raise StorageError(f"{self.path} is open read-only")

    # -- transaction batching ------------------------------------------------

    def _begin(self) -> None:
        """Open the answers-since-last-checkpoint transaction (idempotent)."""
        if not self._in_tx:
            self._conn.execute("BEGIN")
            self._in_tx = True

    def _commit(self) -> None:
        """Commit the pending batch, if any."""
        if self._in_tx:
            if self.pre_commit_hook is not None:
                self.pre_commit_hook()
            self._conn.execute("COMMIT")
            self._in_tx = False

    # -- answer log ----------------------------------------------------------

    def append_answer(self, record: AnswerRecord) -> None:
        self._writable()
        self._begin()
        self._conn.execute(
            "INSERT OR REPLACE INTO answers "
            "(seq, member, kind, rule, support, confidence) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            (
                record.seq,
                record.member_id,
                record.kind,
                record.rule_key,
                record.support,
                record.confidence,
            ),
        )

    def answers(self) -> list[AnswerRecord]:
        rows = self._conn.execute(
            "SELECT seq, member, kind, rule, support, confidence "
            "FROM answers ORDER BY seq"
        ).fetchall()
        return [AnswerRecord(*row) for row in rows]

    def truncate_answers(self, keep: int) -> None:
        self._writable()
        self._conn.execute("DELETE FROM answers WHERE seq >= ?", (keep,))
        self._commit()

    # -- checkpoints ---------------------------------------------------------

    def save_checkpoint(
        self, payload: bytes, *, questions: int, kb_rules: int
    ) -> CheckpointInfo:
        self._writable()
        (logged,) = self._conn.execute("SELECT COUNT(*) FROM answers").fetchone()
        cursor = self._conn.execute(
            "INSERT INTO checkpoints (questions, kb_rules, answers_logged, payload) "
            "VALUES (?, ?, ?, ?)",
            (questions, kb_rules, logged, sqlite3.Binary(payload)),
        )
        self._commit()  # checkpoint + its answer batch land atomically
        return CheckpointInfo(
            checkpoint_id=int(cursor.lastrowid),
            questions=questions,
            kb_rules=kb_rules,
            answers_logged=int(logged),
            payload_bytes=len(payload),
        )

    def latest_checkpoint(self) -> tuple[CheckpointInfo, bytes] | None:
        row = self._conn.execute(
            "SELECT id, questions, kb_rules, answers_logged, payload "
            "FROM checkpoints ORDER BY id DESC LIMIT 1"
        ).fetchone()
        if row is None:
            return None
        cp_id, questions, kb_rules, logged, payload = row
        info = CheckpointInfo(
            checkpoint_id=int(cp_id),
            questions=int(questions),
            kb_rules=int(kb_rules),
            answers_logged=int(logged),
            payload_bytes=len(payload),
        )
        return info, bytes(payload)

    def load_checkpoint(self, checkpoint_id: int) -> tuple[CheckpointInfo, bytes]:
        row = self._conn.execute(
            "SELECT id, questions, kb_rules, answers_logged, payload "
            "FROM checkpoints WHERE id = ?",
            (checkpoint_id,),
        ).fetchone()
        if row is None:
            raise StorageError(f"no checkpoint #{checkpoint_id} in {self.describe()}")
        cp_id, questions, kb_rules, logged, payload = row
        info = CheckpointInfo(
            checkpoint_id=int(cp_id),
            questions=int(questions),
            kb_rules=int(kb_rules),
            answers_logged=int(logged),
            payload_bytes=len(payload),
        )
        return info, bytes(payload)

    def drop_checkpoint(self, checkpoint_id: int) -> None:
        self._writable()
        cursor = self._conn.execute(
            "DELETE FROM checkpoints WHERE id = ?", (checkpoint_id,)
        )
        if cursor.rowcount == 0:
            raise StorageError(f"no checkpoint #{checkpoint_id} in {self.describe()}")
        self._commit()

    def checkpoints(self) -> list[CheckpointInfo]:
        rows = self._conn.execute(
            "SELECT id, questions, kb_rules, answers_logged, LENGTH(payload) "
            "FROM checkpoints ORDER BY id"
        ).fetchall()
        return [
            CheckpointInfo(
                checkpoint_id=int(cp_id),
                questions=int(questions),
                kb_rules=int(kb_rules),
                answers_logged=int(logged),
                payload_bytes=int(size),
            )
            for cp_id, questions, kb_rules, logged, size in rows
        ]

    # -- bookkeeping ---------------------------------------------------------

    def bytes_on_disk(self) -> int:
        if self.path == ":memory:":
            return 0
        total = 0
        for suffix in ("", "-wal", "-shm"):
            candidate = Path(self.path + suffix)
            if candidate.exists():
                total += candidate.stat().st_size
        return total

    def describe(self) -> str:
        mode = ", read-only" if self.readonly else ""
        return f"sqlite backend ({self.path}, WAL{mode})"

    def close(self) -> None:
        self._commit()
        self._conn.close()

    def abort(self) -> None:
        """Simulate process death: discard the uncommitted batch.

        The in-process analogue of a SIGKILL for the chaos harness —
        everything since the last COMMIT vanishes, exactly what the OS
        would leave behind, without spawning a process to kill.
        """
        if self._in_tx:
            try:
                self._conn.execute("ROLLBACK")
            except sqlite3.Error:
                pass
        self._in_tx = False
        self._conn.close()
