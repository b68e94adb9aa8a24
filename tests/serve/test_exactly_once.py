"""Exactly-once semantics: idempotency keys, dedup, backpressure.

The server-side half of the retry story, exercised without HTTP. A
client that never saw a response cannot know whether the server acted,
so it retries with the same idempotency key — and the session must
fold every replay into the first delivery: a replayed *fetch* returns
the same question without issuing a new one, a replayed *answer post*
returns the memoized outcome without touching the books, and the dedup
table itself rides inside checkpoints so a crash between delivery and
retry cannot resurrect a double-count.
"""

import pytest

from repro.serve import RealTimeClock, Scenario, ServeConfig, ServeSession
from repro.serve.differential import run_session_inprocess
from repro.serve.session import _DEDUP_CAP
from repro.storage import capture_session, open_backend, restore_session

SCENARIO = Scenario(n_members=6, transactions_per_member=40, budget=30)


def fresh_session(**config):
    session, pool = run_session_inprocess(
        SCENARIO, config=ServeConfig(**config) if config else None
    )
    return session, pool


def round_trip(session):
    """The session as a resume sees it: through the checkpoint pickle."""
    _miner, restored = restore_session(capture_session(session.miner, session))
    restored.clock = RealTimeClock()
    return restored


class TestFetchDedup:
    def test_replayed_fetch_returns_same_question_without_issuing(self):
        session, _pool = fresh_session()
        first = session.next_question(idempotency_key="f0")
        replay = session.next_question(idempotency_key="f0")
        assert replay == first
        assert session.stats()["issued"] == 1
        assert session.stats()["outstanding"] == 1
        assert session.stats()["dedup_hits"] == 1

    def test_distinct_keys_issue_distinct_questions(self):
        session, _pool = fresh_session()
        a = session.next_question(idempotency_key="f0")
        b = session.next_question(idempotency_key="f1")
        assert a["question"]["question_id"] != b["question"]["question_id"]
        assert session.stats()["issued"] == 2

    def test_keyless_fetch_bypasses_dedup(self):
        session, _pool = fresh_session()
        a = session.next_question()
        b = session.next_question()
        assert a["question"]["question_id"] != b["question"]["question_id"]
        assert session.stats()["dedup_hits"] == 0


class TestAnswerDedup:
    def test_replayed_answer_post_is_folded_into_first_delivery(self):
        session, pool = fresh_session()
        doc = session.next_question(idempotency_key="f0")
        question = doc["question"]
        answer = pool.answer(question)
        qid = question["question_id"]
        first = session.post_answer(qid, answer, idempotency_key=f"a-{qid}")
        replay = session.post_answer(qid, answer, idempotency_key=f"a-{qid}")
        assert replay == first
        assert session.stats()["answered"] == 1
        assert session.stats()["dedup_hits"] == 1
        # Without the key, the replay would land as a stale post.
        assert session.stats()["stale"] == 0

    def test_replay_after_the_question_is_gone_still_memoized(self):
        session, pool = fresh_session()
        doc = session.next_question(idempotency_key="f0")
        question = doc["question"]
        qid = question["question_id"]
        session.post_answer(qid, pool.answer(question), idempotency_key=f"a-{qid}")
        # Drive a few more exchanges so the pending book moves on.
        for n in range(3):
            doc = session.next_question(idempotency_key=f"f{n + 1}")
            q = doc["question"]
            session.post_answer(
                q["question_id"],
                pool.answer(q),
                idempotency_key=f"a-{q['question_id']}",
            )
        replay = session.post_answer(
            qid, pool.answer(question), idempotency_key=f"a-{qid}"
        )
        assert replay["status"] == "counted"
        assert session.stats()["answered"] == 4
        assert session.stats()["stale"] == 0

    def test_dedup_table_is_fifo_bounded(self):
        session, _pool = fresh_session()
        for n in range(_DEDUP_CAP + 10):
            session._dedup_put(f"k{n}", {"n": n})
        assert len(session._dedup) == _DEDUP_CAP
        assert not session.knows_key("k0")
        assert session.knows_key(f"k{_DEDUP_CAP + 9}")


class TestBackpressure:
    def test_overloaded_flips_at_the_bound(self):
        session, pool = fresh_session(max_outstanding=2)
        assert not session.overloaded
        session.next_question(idempotency_key="f0")
        assert not session.overloaded
        doc = session.next_question(idempotency_key="f1")
        assert session.overloaded
        question = doc["question"]
        session.post_answer(
            question["question_id"],
            pool.answer(question),
            idempotency_key=f"a-{question['question_id']}",
        )
        assert not session.overloaded

    def test_known_key_replay_is_never_backpressured(self):
        # The deadlock guard: rejecting a deduped fetch replay would
        # wedge a client whose original fetch issued a question it
        # never saw. The route lets known keys through the 429 gate.
        session, _pool = fresh_session(max_outstanding=1)
        session.next_question(idempotency_key="f0")
        assert session.overloaded
        assert session.knows_key("f0")
        assert not session.knows_key("f1")

    def test_backpressure_counter_sits_outside_the_books(self):
        session, _pool = fresh_session(max_outstanding=1)
        session.next_question(idempotency_key="f0")
        session.count_backpressure()
        stats = session.stats()
        assert stats["backpressured"] == 1
        assert stats["issued"] == 1
        fates = (
            stats["answered"] + stats["stale"] + stats["malformed"]
            + stats["rejected"] + stats["gone"] + stats["timeouts"]
            + stats["outstanding"]
        )
        assert stats["issued"] == fates

    def test_max_outstanding_validation(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ServeConfig(max_outstanding=-1)


class TestDedupDurability:
    def test_dedup_table_rides_in_the_snapshot(self):
        session, pool = fresh_session()
        doc = session.next_question(idempotency_key="f0")
        question = doc["question"]
        qid = question["question_id"]
        session.post_answer(qid, pool.answer(question), idempotency_key=f"a-{qid}")
        restored = round_trip(session)
        assert restored.knows_key(f"a-{qid}")
        assert restored.knows_key("f0")

    def test_restore_replays_the_saved_dedup_table(self):
        session, pool = fresh_session()
        doc = session.next_question(idempotency_key="f0")
        question = doc["question"]
        qid = question["question_id"]
        outcome = session.post_answer(
            qid, pool.answer(question), idempotency_key=f"a-{qid}"
        )

        resumed = round_trip(session)
        answered_before = resumed.stats()["answered"]
        replay = resumed.post_answer(
            qid, pool.answer(question), idempotency_key=f"a-{qid}"
        )
        assert replay == outcome
        assert resumed.stats()["answered"] == answered_before

    def test_durable_session_checkpoint_carries_dedup(self):
        storage = open_backend(None, "memory")
        session, pool = run_session_inprocess(
            SCENARIO, storage=storage, checkpoint_every=1
        )
        doc = session.next_question(idempotency_key="f0")
        question = doc["question"]
        qid = question["question_id"]
        session.post_answer(qid, pool.answer(question), idempotency_key=f"a-{qid}")
        from repro.storage import load_session

        miner, restored, _info = load_session(storage)
        assert isinstance(restored, ServeSession)
        assert restored.miner is miner
        assert restored.knows_key(f"a-{qid}")
        storage.close()
