"""The live session's bookkeeping: books balance, checkpoint round trips, limits.

Every issued question must meet exactly one fate — the counters are a
closed ledger, checked here after every kind of exchange the API
allows (counted, malformed, unknown, gone, timed out, reissued). The
fingerprint-level equivalence story lives in
``test_differential*.py``; this module pins the mechanics that make it
possible.
"""

import sqlite3
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.miner import CrowdMiner
from repro.serve import (
    RealTimeClock,
    Scenario,
    ServeConfig,
    ServeError,
    ServeSession,
    SessionManager,
    run_session_inprocess,
)
from repro.serve.differential import drive_inprocess
from repro.storage import StorageError, capture_session, open_backend, restore_session

SCENARIO = Scenario(n_members=6, transactions_per_member=30, budget=40)


def assert_books_balance(session):
    """issued == every fate, exactly once (the documented invariant)."""
    s = session.stats()
    assert s["issued"] == (
        s["answered"]
        + s["stale"]
        + s["malformed"]
        + s["rejected"]
        + s["gone"]
        + s["timeouts"]
        + s["outstanding"]
    ), s


class TestExchangeLedger:
    def test_counted_answer_books(self):
        session, pool = run_session_inprocess(SCENARIO)
        doc = session.next_question()
        assert doc["status"] == "ok"
        question = doc["question"]
        outcome = session.post_answer(
            question["question_id"], pool.answer(question)
        )
        assert outcome["status"] == "counted"
        stats = session.stats()
        assert stats["issued"] == 1 and stats["answered"] == 1
        assert stats["outstanding"] == 0
        assert session.miner.questions_asked == 1
        assert_books_balance(session)

    def test_malformed_answer_costs_no_budget(self):
        session, _pool = run_session_inprocess(SCENARIO)
        question = session.next_question()["question"]
        outcome = session.post_answer(question["question_id"], {"support": "junk"})
        assert outcome["status"] == "malformed"
        assert session.miner.questions_asked == 0  # same as the sync gate
        assert session.stats()["malformed"] == 1
        assert_books_balance(session)

    def test_unknown_question_id_is_acknowledged_not_counted(self):
        session, pool = run_session_inprocess(SCENARIO)
        question = session.next_question()["question"]
        answer = pool.answer(question)
        first = session.post_answer(question["question_id"], answer)
        replay = session.post_answer(question["question_id"], answer)
        assert first["status"] == "counted"
        assert replay["status"] == "unknown"
        assert session.stats()["answered"] == 1
        assert session.stats()["unknown"] == 1
        assert session.miner.questions_asked == 1
        assert_books_balance(session)

    def test_gone_member_leaves_without_spending_budget(self):
        session, _pool = run_session_inprocess(SCENARIO)
        question = session.next_question()["question"]
        member = question["member"]
        outcome = session.post_answer(question["question_id"], {"gone": True})
        assert outcome["status"] == "gone"
        assert not session.miner.crowd.is_member_available(member)
        assert session.miner.questions_asked == 0
        assert_books_balance(session)

    def test_leaving_answer_counts_then_departs(self):
        session, pool = run_session_inprocess(SCENARIO)
        question = session.next_question()["question"]
        member = question["member"]
        answer = dict(pool.answer(question))
        answer["leaving"] = True
        outcome = session.post_answer(question["question_id"], answer)
        assert outcome["status"] == "counted"
        assert session.miner.questions_asked == 1
        assert not session.miner.crowd.is_member_available(member)
        assert_books_balance(session)

    def test_non_object_answer_folds_to_malformed(self):
        session, _pool = run_session_inprocess(SCENARIO)
        question = session.next_question()["question"]
        outcome = session.post_answer(question["question_id"], "free text")
        assert outcome["status"] == "malformed"
        assert_books_balance(session)


class TestIssueLimits:
    def test_budget_reservation_refuses_overissue(self):
        scenario = Scenario(n_members=6, transactions_per_member=30, budget=3)
        session, _pool = run_session_inprocess(scenario)
        for _ in range(3):
            assert session.next_question()["status"] == "ok"
        blocked = session.next_question()
        assert blocked["status"] == "wait"
        assert "budget" in blocked["reason"]
        assert_books_balance(session)

    def test_busy_members_are_not_double_booked(self):
        scenario = Scenario(n_members=3, transactions_per_member=30, budget=40)
        session, _pool = run_session_inprocess(scenario)
        members = set()
        for _ in range(3):
            doc = session.next_question()
            assert doc["status"] == "ok"
            members.add(doc["question"]["member"])
        assert len(members) == 3
        assert session.next_question()["status"] == "wait"

    def test_full_dry_round_ends_the_session(self):
        """A whole crowd round of no-evidence exchanges == sync step()
        returning None: the session reports done, like miner.run()
        breaking out."""
        session, _pool = run_session_inprocess(SCENARIO)
        for _ in range(len(session.miner.crowd)):
            question = session.next_question()["question"]
            session.post_answer(question["question_id"], {"support": "junk"})
        assert session.is_done
        assert session.next_question()["status"] == "done"

    def test_counted_answer_resets_the_dry_streak(self):
        session, pool = run_session_inprocess(SCENARIO)
        for _ in range(len(session.miner.crowd) - 1):
            question = session.next_question()["question"]
            session.post_answer(question["question_id"], {"support": "junk"})
        question = session.next_question()["question"]
        session.post_answer(question["question_id"], pool.answer(question))
        assert not session.is_done
        assert session.next_question()["status"] == "ok"


class TestTimeouts:
    def make_session(self, timeout=0.01, max_retries=2):
        return run_session_inprocess(
            SCENARIO, config=ServeConfig(timeout=timeout, max_retries=max_retries)
        )

    def fire(self, session):
        time.sleep(0.02)
        session.clock.fire_due()

    def test_timed_out_question_is_reclaimed_and_reissued(self):
        session, _pool = self.make_session()
        first = session.next_question()["question"]
        self.fire(session)
        stats = session.stats()
        assert stats["timeouts"] == 1 and stats["outstanding"] == 0
        assert_books_balance(session)
        reissued = session.next_question()["question"]
        assert reissued["question_id"] != first["question_id"]
        # Same question, next member in the rotation.
        assert reissued.get("rule") == first.get("rule")
        assert reissued["member"] != first["member"]
        assert session.stats()["retried"] == 1
        assert_books_balance(session)

    def test_answer_after_timeout_is_unknown(self):
        session, pool = self.make_session()
        question = session.next_question()["question"]
        answer = pool.answer(question)
        self.fire(session)
        outcome = session.post_answer(question["question_id"], answer)
        assert outcome["status"] == "unknown"
        assert session.miner.questions_asked == 0
        assert_books_balance(session)

    def test_retries_exhaust_into_a_drop(self):
        session, _pool = self.make_session(max_retries=0)
        session.next_question()
        self.fire(session)
        assert session.stats()["dropped"] == 1
        assert_books_balance(session)

    def test_answering_cancels_the_timeout(self):
        session, pool = self.make_session()
        question = session.next_question()["question"]
        session.post_answer(question["question_id"], pool.answer(question))
        self.fire(session)
        assert session.stats()["timeouts"] == 0
        assert len(session.clock) == 0

    @pytest.mark.parametrize("seed", range(40))
    def test_spent_budget_drops_queued_retries(self, seed):
        # Each hand-out is answered at once, held and settled later, or
        # timed out through the session's timeout handler. A fresh
        # question can be issued while a retry waits (its member already
        # answered the retry's rule), so the budget can run out with
        # retries still queued; they must then be dropped, or every
        # later fetch waits on nothing and the session never ends.
        rng = np.random.default_rng(seed)
        scenario = Scenario(
            n_members=6,
            transactions_per_member=30,
            budget=int(rng.integers(5, 31)),
            miner_seed=seed,
        )
        session, pool = run_session_inprocess(scenario, config=ServeConfig())
        held = []

        def settle(question):
            if rng.random() < 0.5:
                session.post_answer(question["question_id"], pool.answer(question))
            else:
                session._on_timeout(question["question_id"])

        for _ in range(1_000):
            doc = session.next_question()
            if doc["status"] == "done":
                break
            if doc["status"] == "wait":
                assert held, (doc, session.stats())
                settle(held.pop(int(rng.integers(len(held)))))
                continue
            question = doc["question"]
            if rng.random() < 0.4:
                session.post_answer(question["question_id"], pool.answer(question))
            elif rng.random() < 0.5:
                held.append(question)
            else:
                session._on_timeout(question["question_id"])
        assert doc["status"] == "done"
        assert session.is_done
        assert_books_balance(session)
        s = session.stats()
        assert s["outstanding"] == 0
        assert s["timeouts"] == s["retried"] + s["dropped"]

    def test_bad_serve_config_rejected(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(timeout=0.0)
        with pytest.raises(ConfigurationError):
            ServeConfig(max_retries=-1)


def round_trip(session):
    """The session as a resume sees it: through the checkpoint pickle."""
    miner, restored = restore_session(capture_session(session.miner, session))
    assert isinstance(restored, ServeSession)
    assert miner.dispatcher is restored
    restored.clock = RealTimeClock()
    return restored


class TestSnapshotRoundTrip:
    def test_snapshot_restores_books_and_pending(self):
        session, pool = run_session_inprocess(SCENARIO)
        for _ in range(3):
            question = session.next_question()["question"]
            session.post_answer(question["question_id"], pool.answer(question))
        outstanding = session.next_question()["question"]

        fresh = round_trip(session)
        assert fresh.stats() == session.stats()
        assert fresh.outstanding == 1
        # The restored session re-offers the outstanding question
        # verbatim: same id, same member, same rule.
        reoffered = fresh.next_question()
        assert reoffered["status"] == "ok"
        assert reoffered["question"] == outstanding

    def test_finished_session_payload_stays_compact(self):
        # A checkpoint re-pickles everything the session keeps per
        # answer: the question log as columns, the sample stores as
        # float pairs. 43,204 bytes is this session's payload when the
        # log and the stores held one event and one RuleStats object
        # per answer, pickled through dataclass reflection; as columns
        # and pairs it is 33,403 bytes.
        scenario = Scenario(n_members=8, transactions_per_member=40, budget=400)
        session, pool = run_session_inprocess(scenario)
        drive_inprocess(session, pool)
        assert session.miner.questions_asked == 400
        payload = capture_session(session.miner, session)
        assert len(payload) <= 43_204
        assert round_trip(session).result().fingerprint() == session.result().fingerprint()

    def test_question_ids_continue_after_restore(self):
        session, pool = run_session_inprocess(SCENARIO)
        question = session.next_question()["question"]
        session.post_answer(question["question_id"], pool.answer(question))
        fresh = round_trip(session)
        next_doc = fresh.next_question()
        assert next_doc["question"]["question_id"] == "q2"


class TestSessionManager:
    def make_manager(self):
        return SessionManager(clock=RealTimeClock())

    def spec(self, **overrides):
        doc = {"n_members": 4, "support": 0.1, "confidence": 0.5, "budget": 20}
        doc.update(overrides)
        return doc

    def test_create_and_list(self):
        manager = self.make_manager()
        session = manager.create(self.spec(id="alpha"))
        assert session.session_id == "alpha"
        assert manager.get("alpha") is session
        listed = manager.list_doc()["sessions"]
        assert [doc["session"] for doc in listed] == ["alpha"]

    def test_auto_ids_never_collide(self):
        manager = self.make_manager()
        manager.create(self.spec(id="s1"))
        auto = manager.create(self.spec())
        assert auto.session_id == "s2"

    @pytest.mark.parametrize(
        "spec_patch",
        [
            {"id": "../escape"},
            {"id": ""},
            {"id": ".hidden"},
            {"n_members": 0},
            {"n_members": None, "members": ["a", "a"]},
            {"support": "lots"},
            {"budget": 0},
            {"seed_rules": ["not a rule key"]},
            {"timeout": -1},
            {"trust_model": "gold"},
            {"quarantine": "false"},
        ],
    )
    def test_bad_specs_rejected(self, spec_patch):
        manager = self.make_manager()
        doc = self.spec()
        doc.update(spec_patch)
        doc = {k: v for k, v in doc.items() if v is not None}
        with pytest.raises(ServeError):
            manager.create(doc)

    def test_duplicate_ids_rejected(self):
        manager = self.make_manager()
        manager.create(self.spec(id="alpha"))
        with pytest.raises(ServeError):
            manager.create(self.spec(id="alpha"))

    def test_unknown_session_raises_key_error(self):
        with pytest.raises(KeyError):
            self.make_manager().get("ghost")

    def test_resume_refuses_a_text_file_store(self, tmp_path):
        (tmp_path / "s1.db").write_text("not a database at all\n")
        manager = SessionManager(data_dir=tmp_path, clock=RealTimeClock())
        with pytest.raises(StorageError, match="not a session store"):
            manager.resume_all()

    @pytest.mark.parametrize("second", ["text_file", "mine_store"])
    def test_failed_resume_keeps_no_session_open(self, tmp_path, second):
        # s1.db is a serve store; s2.db, which resumes after it, is a
        # text file or a `repro mine` store, so the resume fails once
        # s1 is loaded.
        manager = SessionManager(data_dir=tmp_path, clock=RealTimeClock())
        manager.create(self.spec(id="s1")).miner.checkpoint()
        manager.delete("s1")
        if second == "text_file":
            (tmp_path / "s2.db").write_text("not a database at all\n")
            error = StorageError
        else:
            storage = open_backend(tmp_path / "s2.db")
            CrowdMiner(
                SCENARIO.build_crowd(), SCENARIO.miner_config(), storage=storage
            ).checkpoint()
            storage.close()
            error = ServeError
        opened = []
        manager = SessionManager(
            data_dir=tmp_path,
            clock=RealTimeClock(),
            storage_wrapper=lambda storage: opened.append(storage) or storage,
        )
        with pytest.raises(error):
            manager.resume_all()
        assert manager.sessions == {}
        assert opened
        for storage in opened:
            with pytest.raises(sqlite3.ProgrammingError, match="closed"):
                storage._conn.execute("SELECT 1")

    def test_drain_all_counts_sessions(self):
        manager = self.make_manager()
        manager.create(self.spec(id="a"))
        manager.create(self.spec(id="b"))
        assert manager.drain_all() == 2
        assert all(session.draining for session in manager.sessions.values())

    def test_status_doc_shape(self):
        manager = self.make_manager()
        session = manager.create(self.spec(id="alpha"))
        doc = session.status_doc()
        assert doc["session"] == "alpha"
        assert doc["budget"] == 20 and doc["budget_left"] == 20
        assert doc["members"] == 4 and doc["members_available"] == 4
        assert doc["serve"]["issued"] == 0
