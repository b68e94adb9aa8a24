"""Failure-injection integration tests.

Real crowds misbehave: members leave mid-session, answer streams dry
up, spammers pollute evidence, whole sub-crowds churn. These tests
inject each failure and assert the session *degrades* instead of
crashing or silently corrupting results.
"""

import pytest

from repro.core import Rule
from repro.crowd import (
    ExactAnswerModel,
    MemberCrowd,
    SimulatedCrowd,
    SpammerAnswerModel,
    StreamMember,
    standard_answer_model,
)
from repro.estimation import Thresholds
from repro.eval import precision_recall
from repro.miner import CrowdMiner, CrowdMinerConfig
from tests.crowd.populations import population_of


def spammer_crowd(population, every, seed):
    """Every ``every``-th member spams; the rest answer honestly."""
    return SimulatedCrowd(
        population,
        answer_model=standard_answer_model(),
        seed=seed,
        member_models={k: SpammerAnswerModel() for k in range(0, len(population), every)},
    )


class TestMemberChurn:
    def test_tiny_patience_session_terminates_cleanly(self, folk_population):
        crowd = SimulatedCrowd.from_population(
            folk_population, answer_model=ExactAnswerModel(), patience=1, seed=5
        )
        miner = CrowdMiner(
            crowd,
            CrowdMinerConfig(thresholds=Thresholds(0.1, 0.5), budget=10_000, seed=6),
        )
        result = miner.run()
        assert result.questions_asked <= len(folk_population)
        assert miner.is_done


class TestStreamExhaustion:
    def test_streams_drying_up_mid_session(self):
        # Three members with short scripted streams; the session must
        # stop gracefully when the last stream dries up.
        script = [
            "open: sore throat -> ginger tea ; often",
            "closed: often",
            "closed: sometimes",
        ]
        members = [StreamMember(f"m{i}", list(script)) for i in range(3)]
        crowd = MemberCrowd(members)
        miner = CrowdMiner(
            crowd,
            CrowdMinerConfig(
                thresholds=Thresholds(0.25, 0.5), budget=100, min_samples=3, seed=2
            ),
        )
        result = miner.run()
        assert result.questions_asked <= 9
        # All members ran dry; nothing crashed, the log is consistent.
        assert len(result.log) == result.questions_asked


class TestSpamPollution:
    @pytest.mark.parametrize("screen", [False, True])
    def test_screening_never_hurts_much(self, folk_population, folk_truth, screen):
        crowd = spammer_crowd(folk_population, 4, seed=9)
        miner = CrowdMiner(
            crowd,
            CrowdMinerConfig(
                thresholds=Thresholds(0.1, 0.5),
                budget=900,
                seed=10,
                screen_spammers=screen,
            ),
        )
        result = miner.run()
        precision, recall = precision_recall(result.significant, folk_truth)
        # With a quarter of the crowd spamming, the session still
        # produces output and does not crash; screened precision should
        # be at least competitive.
        assert result.questions_asked == 900
        if screen:
            assert precision >= 0.3

    def test_screened_beats_unscreened_precision(self, folk_population, folk_truth):
        outcomes = {}
        for screen in (False, True):
            crowd = spammer_crowd(folk_population, 3, seed=11)
            miner = CrowdMiner(
                crowd,
                CrowdMinerConfig(
                    thresholds=Thresholds(0.1, 0.5),
                    budget=900,
                    seed=12,
                    screen_spammers=screen,
                ),
            )
            result = miner.run()
            outcomes[screen] = precision_recall(result.significant, folk_truth)
        # A third of the crowd spamming: screening should not lose on
        # precision (allow small noise margin).
        assert outcomes[True][0] >= outcomes[False][0] - 0.05


class TestDegenerateCrowds:
    def test_single_member_crowd(self, folk_population):
        member = folk_population.members[0]
        crowd = SimulatedCrowd(
            population_of(member.db, ids=[member.member_id]),
            answer_model=ExactAnswerModel(),
            seed=2,
        )
        miner = CrowdMiner(
            crowd,
            CrowdMinerConfig(
                thresholds=Thresholds(0.1, 0.5), budget=200, min_samples=1, seed=3
            ),
        )
        result = miner.run()
        # One member: every rule gets at most one sample, and with
        # min_samples=1 the session can still classify.
        assert result.questions_asked > 0

    def test_empty_personal_databases(self):
        from repro.core import TransactionDB

        empty = TransactionDB([[] for _ in range(10)])
        crowd = SimulatedCrowd(
            population_of(empty, empty, empty), answer_model=ExactAnswerModel(), seed=4
        )
        miner = CrowdMiner(
            crowd,
            CrowdMinerConfig(
                thresholds=Thresholds(0.1, 0.5),
                budget=50,
                seed=5,
                seed_rules=(Rule(["a"], ["b"]),),
            ),
        )
        result = miner.run()
        # Nobody does anything: the seeded rule must come back
        # insignificant, not significant.
        assert Rule(["a"], ["b"]) not in result.significant
