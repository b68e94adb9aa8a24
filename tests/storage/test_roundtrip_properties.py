"""Round-trip properties of the storage layer's encodings.

The rule key written next to the checkpoint pickle must survive the
trip to text and back for *any* rule the system can produce: item
names are natural-language text (unicode, punctuation, whitespace).
Personal databases, which travel inside the checkpoint pickle as their
rows alone, must come back answering every support query the same.
The per-question records a checkpoint re-pickles in bulk (answers,
log events, assessments) pickle as their constructor arguments and
must come back equal.
"""

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Rule, RuleStats, TransactionDB
from repro.estimation.significance import Assessment, Decision
from repro.io import PersistenceError
from repro.miner.result import QuestionEvent, QuestionKind
from repro.storage import rule_from_key, rule_key

# Natural-language item names: arbitrary unicode, punctuation included —
# exactly what ends up in rule keys for real domains.
item_text = st.text(min_size=1, max_size=12)

rules = st.lists(item_text, min_size=1, max_size=6, unique=True).flatmap(
    lambda items: st.integers(0, len(items) - 1).map(
        lambda cut: Rule(items[:cut], items[cut:])
    )
)


class TestRuleKey:
    @settings(max_examples=100, deadline=None)
    @given(rules)
    def test_round_trips_any_rule(self, rule):
        assert rule_from_key(rule_key(rule)) == rule

    @settings(max_examples=50, deadline=None)
    @given(rules)
    def test_key_survives_json_embedding(self, rule):
        # Keys land inside SQL text columns and JSON exports; another
        # encode/decode layer must not mangle them.
        embedded = json.loads(json.dumps({"rule": rule_key(rule)}))
        assert rule_from_key(embedded["rule"]) == rule

    def test_unicode_key_is_not_ascii_escaped(self):
        key = rule_key(Rule(["蜂蜜"], ["咳嗽"]))
        assert "蜂蜜" in key

    @pytest.mark.parametrize(
        "bad", ["", "{", "[]", '["a"]', '[["a"],2]', '[["a"],["a"]]', '[["a"],[]]']
    )
    def test_malformed_keys_raise_persistence_error(self, bad):
        with pytest.raises(PersistenceError):
            rule_from_key(bad)


class TestTransactionDBPickle:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(item_text, max_size=5), max_size=20), st.data())
    def test_round_trips_rows_items_and_stats(self, rows, data):
        db = TransactionDB(rows)
        restored = pickle.loads(pickle.dumps(db))
        assert list(restored) == list(db)
        assert restored.items == db.items
        # The restored database pickles again from the same encoding.
        assert list(pickle.loads(pickle.dumps(restored))) == list(db)
        if len(db.items) < 2:
            return
        body = data.draw(
            st.lists(st.sampled_from(db.items), min_size=2, max_size=4, unique=True)
        )
        cut = data.draw(st.integers(0, len(body) - 1))
        rule = Rule(body[:cut], body[cut:])
        assert restored.rule_stats(rule) == db.rule_stats(rule)


fractions = st.floats(0.0, 1.0, allow_nan=False)
stats = st.tuples(fractions, fractions).map(lambda pair: RuleStats(*sorted(pair)))


class TestRecordPickle:
    @settings(max_examples=100, deadline=None)
    @given(stats)
    def test_rule_stats_round_trip(self, value):
        assert pickle.loads(pickle.dumps(value)) == value

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.sampled_from(QuestionKind),
        item_text,
        st.one_of(st.none(), st.tuples(rules, stats)),
    )
    def test_question_event_round_trips(self, index, kind, member_id, answer):
        rule, value = answer if answer is not None else (None, None)
        event = QuestionEvent(index, kind, member_id, rule, value)
        assert pickle.loads(pickle.dumps(event)) == event

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(Decision), fractions, fractions, st.integers(0, 10**6))
    def test_assessment_round_trips(self, decision, probability, uncertainty, n):
        assessment = Assessment(decision, probability, uncertainty, n)
        assert pickle.loads(pickle.dumps(assessment)) == assessment
