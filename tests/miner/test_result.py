"""Tests for mining results."""

import pickle

import pytest

from repro.core import Rule, RuleStats
from repro.miner import MiningResult, QuestionEvent, QuestionKind, QuestionLog


def make_result(significant):
    return MiningResult(
        significant=significant,
        questions_asked=10,
        closed_questions=7,
        open_questions=3,
        rules_discovered=5,
        inferred_classifications=1,
    )


class TestMaximal:
    def test_generalizations_dropped(self):
        general = Rule(["a"], ["c"])
        specific = Rule(["a", "b"], ["c"])
        result = make_result(
            {general: RuleStats(0.3, 0.6), specific: RuleStats(0.2, 0.55)}
        )
        assert set(result.maximal_significant) == {specific}

    def test_incomparable_all_kept(self):
        r1, r2 = Rule(["a"], ["b"]), Rule(["x"], ["y"])
        result = make_result({r1: RuleStats(0.3, 0.6), r2: RuleStats(0.2, 0.55)})
        assert set(result.maximal_significant) == {r1, r2}

    def test_empty(self):
        assert make_result({}).maximal_significant == {}


class TestTopK:
    def sample(self):
        return make_result(
            {
                Rule(["a"], ["b"]): RuleStats(0.5, 0.6),
                Rule(["c"], ["d"]): RuleStats(0.3, 0.9),
                Rule(["e"], ["f"]): RuleStats(0.1, 0.95),
            }
        )

    def test_by_support(self):
        top = self.sample().top_k(2)
        assert [r for r, _ in top] == [Rule(["a"], ["b"]), Rule(["c"], ["d"])]

    def test_by_confidence(self):
        top = self.sample().top_k(1, by="confidence")
        assert top[0][0] == Rule(["e"], ["f"])

    def test_by_product(self):
        top = self.sample().top_k(1, by="product")
        assert top[0][0] == Rule(["a"], ["b"])  # 0.30 beats 0.27, 0.095

    def test_k_larger_than_set(self):
        assert len(self.sample().top_k(10)) == 3

    def test_k_zero(self):
        assert self.sample().top_k(0) == []

    def test_unknown_ranking(self):
        import pytest

        with pytest.raises(ValueError, match="ranking"):
            self.sample().top_k(1, by="magic")

    def test_negative_k(self):
        import pytest

        with pytest.raises(ValueError, match="non-negative"):
            self.sample().top_k(-1)


class TestSummary:
    def test_summary_mentions_counts(self):
        result = make_result({Rule(["a"], ["b"]): RuleStats(0.3, 0.6)})
        text = result.summary()
        assert "10" in text and "7 closed" in text and "3 open" in text
        assert "{a} -> {b}" in text


class TestQuestionEvent:
    def test_empty_open_detection(self):
        event = QuestionEvent(0, QuestionKind.OPEN, "u1", None, None)
        assert event.is_empty_open

    def test_closed_never_empty_open(self):
        event = QuestionEvent(
            0, QuestionKind.CLOSED, "u1", Rule(["a"], ["b"]), RuleStats(0.2, 0.5)
        )
        assert not event.is_empty_open


def _events():
    rule = Rule(["a"], ["b"])
    return [
        QuestionEvent(0, QuestionKind.CLOSED, "u1", rule, RuleStats(0.2, 0.5)),
        QuestionEvent(1, QuestionKind.OPEN, "u2", None, None),
        QuestionEvent(2, QuestionKind.OPEN, "u1", Rule(["x"], ["y"]), RuleStats(0.1, 0.9)),
        QuestionEvent(3, QuestionKind.CLOSED, "u2", rule, RuleStats(0.0, 0.0)),
    ]


def _log(events):
    log = QuestionLog()
    for event in events:
        log.append(event)
    return log


class TestQuestionLog:
    def test_reads_back_the_appended_events(self):
        events = _events()
        log = _log(events)
        assert len(log) == 4
        assert list(log) == events
        assert [log[i] for i in range(4)] == events
        assert log[-1] == events[-1]
        assert log[1:3] == events[1:3]
        assert log == events and events == log
        assert log != events[:3]

    def test_counts_kinds(self):
        log = _log(_events())
        assert log.count_kind(QuestionKind.CLOSED) == 2
        assert log.count_kind(QuestionKind.OPEN) == 2

    def test_index_out_of_range(self):
        log = _log(_events())
        with pytest.raises(IndexError):
            log[4]
        with pytest.raises(IndexError):
            log[-5]

    def test_refuses_events_out_of_order(self):
        log = _log(_events()[:1])
        with pytest.raises(ValueError, match="does not follow"):
            log.append(_events()[2])

    def test_refuses_stats_without_rule(self):
        with pytest.raises(ValueError, match="exactly when"):
            QuestionLog().append(
                QuestionEvent(0, QuestionKind.OPEN, "u1", None, RuleStats(0.1, 0.2))
            )

    def test_pickles_as_columns(self):
        log = _log(_events())
        restored = pickle.loads(pickle.dumps(log))
        assert restored == log
        assert list(restored) == _events()

    def test_snapshot_stays_as_taken(self):
        events = _events()
        log = _log(events[:2])
        snapshot = log.snapshot()
        for event in events[2:]:
            log.append(event)
        assert len(snapshot) == 2
        assert list(snapshot) == events[:2]
        assert snapshot.count_kind(QuestionKind.CLOSED) + snapshot.count_kind(
            QuestionKind.OPEN
        ) == 2
