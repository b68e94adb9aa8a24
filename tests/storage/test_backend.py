"""Contract tests for the session store.

The store satisfies the :class:`StorageBackend` protocol in a database
file and in memory alike: an ordered, truncatable write-ahead answer
log; a monotonically numbered checkpoint history; and honest
bookkeeping. A file store persists everything in one WAL-mode
database and rejects files it does not own.
"""

import pytest

from repro.storage import (
    AnswerRecord,
    SQLiteBackend,
    StorageBackend,
    StorageError,
    open_backend,
)


def record(seq, member="u1", kind="closed", rule=None, support=0.3, confidence=0.7):
    return AnswerRecord(
        seq=seq,
        member_id=member,
        kind=kind,
        rule_key=rule,
        support=support,
        confidence=confidence,
    )


@pytest.fixture(params=["memory", "sqlite"])
def backend(request, tmp_path):
    if request.param == "memory":
        store = open_backend(None, "memory")
    else:
        store = SQLiteBackend(tmp_path / "session.db")
    yield store
    store.close()


class TestProtocol:
    def test_both_backends_satisfy_the_protocol(self, backend):
        assert isinstance(backend, StorageBackend)

    def test_answer_log_is_ordered_by_seq(self, backend):
        for seq in (2, 0, 1):
            backend.append_answer(record(seq, member=f"u{seq}"))
        assert [r.seq for r in backend.answers()] == [0, 1, 2]
        assert [r.member_id for r in backend.answers()] == ["u0", "u1", "u2"]

    def test_answer_log_round_trips_fields(self, backend):
        original = record(
            0, member="члан-7", kind="open", rule='[["咳"],["蜂蜜"]]',
            support=0.125, confidence=0.875,
        )
        backend.append_answer(original)
        backend.append_answer(record(1, rule=None, support=None, confidence=None))
        stored, dry = backend.answers()
        assert stored == original
        assert dry.rule_key is None and dry.support is None

    def test_truncate_drops_the_tail_only(self, backend):
        for seq in range(5):
            backend.append_answer(record(seq))
        backend.truncate_answers(3)
        assert [r.seq for r in backend.answers()] == [0, 1, 2]
        backend.truncate_answers(0)
        assert backend.answers() == []

    def test_checkpoint_history_is_monotonic(self, backend):
        first = backend.save_checkpoint(b"one", questions=10, kb_rules=3)
        backend.append_answer(record(0))
        second = backend.save_checkpoint(b"two-longer", questions=20, kb_rules=5)
        assert second.checkpoint_id > first.checkpoint_id
        assert [c.checkpoint_id for c in backend.checkpoints()] == [
            first.checkpoint_id,
            second.checkpoint_id,
        ]
        assert first.answers_logged == 0
        assert second.answers_logged == 1
        assert second.payload_bytes == len(b"two-longer")

    def test_latest_checkpoint_returns_newest_payload(self, backend):
        assert backend.latest_checkpoint() is None
        backend.save_checkpoint(b"old", questions=1, kb_rules=1)
        backend.save_checkpoint(b"new", questions=2, kb_rules=2)
        info, payload = backend.latest_checkpoint()
        assert payload == b"new"
        assert info.questions == 2

    @pytest.mark.parametrize("backend", ["sqlite"], indirect=True)
    def test_bytes_on_disk_grows_with_checkpoints(self, backend):
        backend.save_checkpoint(b"x" * 4096, questions=1, kb_rules=1)
        assert backend.bytes_on_disk() > 0

    def test_describe_is_one_line(self, backend):
        assert "\n" not in backend.describe()


class TestSQLiteBackend:
    def test_reopen_resumes_the_same_store(self, tmp_path):
        path = tmp_path / "session.db"
        store = SQLiteBackend(path)
        store.append_answer(record(0))
        store.save_checkpoint(b"payload", questions=7, kb_rules=4)
        store.close()
        reopened = SQLiteBackend(path)
        assert [r.seq for r in reopened.answers()] == [0]
        info, payload = reopened.latest_checkpoint()
        assert (info.questions, payload) == (7, b"payload")
        reopened.close()

    def test_fresh_wipes_an_existing_store(self, tmp_path):
        path = tmp_path / "session.db"
        store = SQLiteBackend(path)
        store.append_answer(record(0))
        store.save_checkpoint(b"payload", questions=7, kb_rules=4)
        store.close()
        wiped = SQLiteBackend(path, fresh=True)
        assert wiped.answers() == []
        assert wiped.latest_checkpoint() is None
        wiped.close()

    def test_rejects_a_foreign_database(self, tmp_path):
        import sqlite3

        path = tmp_path / "other.db"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
        conn.execute("INSERT INTO meta VALUES ('schema_version', '999')")
        conn.commit()
        conn.close()
        with pytest.raises(StorageError):
            SQLiteBackend(path)

    def test_rejects_a_text_file_and_leaves_it_alone(self, tmp_path):
        path = tmp_path / "notes.db"
        text = "not a database at all\n" * 100
        path.write_text(text)
        for fresh in (False, True):
            with pytest.raises(StorageError, match="not a session store"):
                SQLiteBackend(path, fresh=fresh)
        assert path.read_text() == text

    def test_in_memory_store_has_no_disk_footprint(self):
        store = open_backend(None, "memory")
        store.save_checkpoint(b"x" * 4096, questions=1, kb_rules=1)
        assert store.bytes_on_disk() == 0
        store.close()


class TestOpenBackend:
    def test_kinds_and_defaults(self, tmp_path):
        sql = open_backend(tmp_path / "a.db", "sqlite")
        mem = open_backend(None, "memory")
        assert isinstance(sql, SQLiteBackend)
        assert isinstance(mem, SQLiteBackend)
        sql.close()
        mem.close()
        with pytest.raises(StorageError):
            open_backend(tmp_path / "b.db", "memory")

    def test_unknown_kind_is_an_error(self, tmp_path):
        with pytest.raises(StorageError):
            open_backend(tmp_path / "a.db", "parquet")

    def test_sqlite_requires_a_path(self):
        with pytest.raises(StorageError):
            open_backend(None, "sqlite")

    def test_resume_requires_an_existing_store(self, tmp_path):
        with pytest.raises(StorageError):
            open_backend(tmp_path / "missing.db", "sqlite", resume=True)
        with pytest.raises(StorageError):
            open_backend(None, "memory", resume=True)

    def test_resume_refuses_a_text_file(self, tmp_path):
        path = tmp_path / "notes.db"
        path.write_text("not a database at all\n" * 100)
        with pytest.raises(StorageError, match="not a session store"):
            open_backend(path, resume=True)
