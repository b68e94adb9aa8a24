"""Read-only inspection under a live writer: the `repro kb` path.

The SQLite backend's WAL mode promises that a read-only connection
(the one ``repro kb`` opens) sees a consistent committed snapshot even
while a live session is writing answers and checkpoints. A reader
thread here hammers ``open_backend(readonly=True)`` +
``load_session(rollback=False)`` in a loop while the main thread
drives a checkpointing serve session to completion — the reader must
never error, never observe a torn state, and must see progress move
only forward.
"""

import threading

import pytest

from repro.serve import Scenario, ServeSession, drive_inprocess, run_session_inprocess
from repro.storage import AnswerRecord, StorageError, load_session, open_backend

SCENARIO = Scenario(n_members=8, transactions_per_member=40, budget=80)


class TestConcurrentReader:
    def test_reader_never_errors_and_sees_forward_progress(self, tmp_path):
        path = tmp_path / "live.db"
        storage = open_backend(path, "sqlite")
        session, pool = run_session_inprocess(
            SCENARIO, storage=storage, checkpoint_every=5
        )
        # The first checkpoint exists before the reader starts, so
        # every read finds a session to load.
        session.miner.checkpoint()

        stop = threading.Event()
        errors = []
        observed = []

        def reader():
            while not stop.is_set():
                try:
                    view = open_backend(path, "sqlite", readonly=True)
                    try:
                        miner, dispatcher, info = load_session(
                            view, rollback=False
                        )
                    finally:
                        view.close()
                    # Internal consistency of the loaded snapshot.
                    assert miner.questions_asked == info.questions
                    assert len(miner.state) == info.kb_rules
                    assert dispatcher is None or isinstance(
                        dispatcher, ServeSession
                    )
                    observed.append(info.questions)
                except Exception as exc:  # noqa: BLE001 - collected for the assert
                    errors.append(exc)
                    return

        thread = threading.Thread(target=reader, name="kb-reader")
        thread.start()
        try:
            result = drive_inprocess(session, pool)
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        session.drain()
        storage.close()
        assert errors == []
        assert observed, "the reader never completed a single inspection"
        # Committed snapshots only, observed in commit order: progress
        # is monotone, never beyond the finished session.
        assert observed == sorted(observed)
        assert observed[-1] <= result.questions_asked

        # The final drain checkpoint is visible to a fresh reader.
        view = open_backend(path, "sqlite", readonly=True)
        try:
            miner, _dispatcher, info = load_session(view, rollback=False)
            assert info.questions == result.questions_asked
            assert miner.result().fingerprint() == result.fingerprint()
        finally:
            view.close()


class TestReadonlySurface:
    def make_store(self, tmp_path):
        path = tmp_path / "session.db"
        storage = open_backend(path, "sqlite")
        session, pool = run_session_inprocess(
            SCENARIO, storage=storage, checkpoint_every=5
        )
        for _ in range(6):
            question = session.next_question()["question"]
            session.post_answer(question["question_id"], pool.answer(question))
        session.drain()
        storage.close()
        return path

    def test_readonly_refuses_all_writes(self, tmp_path):
        path = self.make_store(tmp_path)
        view = open_backend(path, "sqlite", readonly=True)
        try:
            assert "read-only" in view.describe()
            with pytest.raises(StorageError):
                view.save_checkpoint(b"payload", questions=1, kb_rules=1)
            with pytest.raises(StorageError):
                view.truncate_answers(0)
            with pytest.raises(StorageError):
                view.append_answer(AnswerRecord(0, "w0", "open", None, None, None))
            with pytest.raises(StorageError):
                view.drop_checkpoint(view.checkpoints()[0].checkpoint_id)
        finally:
            view.close()

    def test_readonly_still_reads_everything(self, tmp_path):
        path = self.make_store(tmp_path)
        view = open_backend(path, "sqlite", readonly=True)
        try:
            assert view.answers()
            assert view.checkpoints()
            assert view.bytes_on_disk() > 0
        finally:
            view.close()

    def test_readonly_inspection_leaves_the_answer_log_intact(self, tmp_path):
        """rollback=False must not truncate the dangling answer log —
        inspection is not recovery."""
        path = self.make_store(tmp_path)
        view = open_backend(path, "sqlite", readonly=True)
        try:
            before = len(view.answers())
            load_session(view, rollback=False)
            assert len(view.answers()) == before
        finally:
            view.close()

    def test_readonly_open_of_missing_file_fails(self, tmp_path):
        with pytest.raises(StorageError):
            open_backend(tmp_path / "ghost.db", "sqlite", readonly=True)

    def test_readonly_open_of_non_store_fails(self, tmp_path):
        junk = tmp_path / "junk.db"
        junk.write_bytes(b"not a database at all")
        with pytest.raises(StorageError):
            open_backend(junk, "sqlite", readonly=True)
