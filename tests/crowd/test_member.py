"""Tests for one simulated member's answers, asked through the one crowd."""

import pytest

from repro.classic.rulegen import mine_rules
from repro.core import Itemset, Rule, TransactionDB
from repro.crowd import ExactAnswerModel, OpenAnswerPolicy, SimulatedCrowd
from repro.errors import CrowdExhaustedError
from tests.crowd.populations import population_of

DB = TransactionDB(
    [["cough", "tea"]] * 6 + [["cough"]] * 2 + [["headache", "coffee"]] * 2
)


def crowd_of_one(patience=None):
    return SimulatedCrowd(
        population_of(DB, ids=["u1"]),
        answer_model=ExactAnswerModel(),
        open_policy=OpenAnswerPolicy(personal_min_support=0.2),
        patience=patience,
        seed=1,
    )


@pytest.fixture
def crowd():
    return crowd_of_one()


class TestClosedAnswers:
    def test_exact_member_reports_truth(self, crowd):
        answer = crowd.ask_closed("u1", Rule(["cough"], ["tea"]))
        assert answer.stats.support == pytest.approx(0.6)
        assert answer.stats.confidence == pytest.approx(0.75)
        assert answer.member_id == "u1"

    def test_unknown_rule_is_zero(self, crowd):
        answer = crowd.ask_closed("u1", Rule(["yoga"], ["tea"]))
        assert answer.stats.support == 0.0


class TestOpenAnswers:
    def test_volunteers_a_personal_rule(self, crowd):
        answer = crowd.ask_open("u1")
        assert not answer.is_empty
        assert DB.rule_stats(answer.rule).support > 0

    def test_never_repeats_itself(self, crowd):
        seen = set()
        for _ in range(30):
            answer = crowd.ask_open("u1")
            if answer.is_empty:
                break
            assert answer.rule not in seen
            seen.add(answer.rule)
        assert answer.is_empty  # memory eventually exhausted

    def test_respects_exclusion(self, crowd):
        policy = crowd.open_policy
        everything = list(  # every habit the member could volunteer
            mine_rules(
                DB,
                policy.personal_min_support,
                policy.personal_min_confidence,
                max_size=policy.max_body_size,
            )
        )
        answer = crowd.ask_open("u1", exclude=set(everything[1:]))
        assert answer.rule == everything[0]
        answer = crowd.ask_open("u1", exclude=set(everything))
        assert answer.is_empty

    def test_context_restricts_antecedent(self, crowd):
        answer = crowd.ask_open("u1", context=Itemset(["headache"]))
        if not answer.is_empty:
            assert "headache" in answer.rule.antecedent


class TestPatience:
    def test_patience_limits_questions(self):
        crowd = crowd_of_one(patience=2)
        crowd.ask_closed("u1", Rule(["cough"], ["tea"]))
        crowd.ask_open("u1")
        assert not crowd.is_member_available("u1")
        with pytest.raises(CrowdExhaustedError):
            crowd.ask_closed("u1", Rule(["cough"], ["tea"]))

    def test_unbounded_by_default(self, crowd):
        for _ in range(50):
            crowd.ask_closed("u1", Rule(["cough"], ["tea"]))
        assert crowd.is_member_available("u1")
        assert crowd.stats.per_member["u1"] == 50
