"""Regression: malformed answers are dropped, counted — never fatal.

The bug class this pins (ISSUE satellite): one unparseable line from
one member used to end the whole mining session, and stats lines like
``"1.5 2.0"`` or ``"NaN NaN"`` — which ``float()`` happily parses —
leaked :class:`~repro.errors.InvalidThresholdError` out of the
protocol layer instead of the contractual ``ValueError``.
"""

import pytest

from repro.core import Rule
from repro.crowd import (
    ClosedAnswer,
    ClosedQuestion,
    MalformedAnswer,
    SimulatedCrowd,
    StreamMember,
    parse_stats,
    standard_answer_model,
)
from repro.estimation import Thresholds
from repro.faults import build_adversarial_crowd
from repro.miner import CrowdMiner, CrowdMinerConfig

RULE = Rule(["cough"], ["tea"])


class TestParseStatsContract:
    @pytest.mark.parametrize(
        "text",
        [
            "1.5 2.0",  # parses as floats, out of range
            "-0.5 0.5",
            "NaN NaN",  # parses as floats, never comparable
            "inf inf",
            "0.9 0.2",  # in range, incoherent
            "i dunno maybe",
            "0.3;0.6",
        ],
    )
    def test_bad_stats_raise_value_error_only(self, text):
        # ValueError and nothing else: StreamMember catches exactly
        # ValueError to build MalformedAnswer, so any other exception
        # type here crashes a live session.
        with pytest.raises(ValueError):
            parse_stats(text)


class TestStreamMemberSurvivesGarbage:
    def test_garbage_line_becomes_malformed_answer(self):
        member = StreamMember("u1", ["1.5 2.0", "often"])
        first = member.answer_closed(ClosedQuestion(RULE))
        assert isinstance(first, MalformedAnswer)
        assert first.raw_text == "1.5 2.0"
        # ...and the member keeps going; the next line still works.
        second = member.answer_closed(ClosedQuestion(RULE))
        assert not isinstance(second, MalformedAnswer)
        assert second.stats.support == 0.75


class TestMinerGateSurvivesGarbage:
    def test_ingest_drops_and_counts_malformed(self, folk_population):
        crowd = SimulatedCrowd.from_population(
            folk_population, answer_model=standard_answer_model(), seed=5
        )
        miner = CrowdMiner(
            crowd,
            CrowdMinerConfig(thresholds=Thresholds(0.10, 0.5), budget=50, seed=6),
        )
        proposal = miner.propose_question(crowd.available_members()[0])
        garbage = MalformedAnswer(
            proposal.member_id, ClosedQuestion(RULE), "???", "cannot parse"
        )
        assert miner.ingest_answer(proposal, garbage) is None
        assert miner.obs.snapshot().counters["answers.malformed"] == 1

    def test_session_with_garbled_member_runs_to_completion(
        self, folk_population
    ):
        # One member answering pure garbage must cost their questions,
        # not the session: the run ends by budget, with every garbage
        # line counted.
        crowd, roles = build_adversarial_crowd(
            folk_population,
            (("garbled", 0.1),),
            answer_model=standard_answer_model(),
            seed=5,
        )
        garbled = {m for m, r in roles.items() if r == "garbled"}
        assert garbled
        miner = CrowdMiner(
            crowd,
            CrowdMinerConfig(thresholds=Thresholds(0.10, 0.5), budget=150, seed=6),
        )
        result = miner.run()
        counters = miner.obs.snapshot().counters
        assert counters["answers.malformed"] > 0
        assert result.questions_asked > 0

    def test_all_garbage_crowd_still_terminates(self, folk_population):
        # Even a crowd that *only* produces garbage must end cleanly
        # (no evidence, no exception) rather than loop or crash.
        crowd, _ = build_adversarial_crowd(
            folk_population, (("garbled", 1.0),), seed=5
        )
        miner = CrowdMiner(
            crowd,
            CrowdMinerConfig(thresholds=Thresholds(0.10, 0.5), budget=40, seed=6),
        )
        result = miner.run()
        assert not result.significant
        assert miner.obs.snapshot().counters["answers.malformed"] > 0

    def test_garbled_wrapper_preserves_member_protocol(self, folk_population):
        # A garbled member is still a member: asking them spends their
        # patience and counts in the crowd's books, and the replies that
        # are not garbled are the ones their honest twin gives.
        def crowd(garbled):
            return SimulatedCrowd(
                folk_population,
                answer_model=standard_answer_model(),
                patience=6,
                seed=5,
                garbled=garbled,
            )

        garbled, honest = crowd({0: 0.5}), crowd({})
        member = garbled.member_ids[0]
        kinds = set()
        for _ in range(6):
            ours = garbled.ask_closed(member, RULE)
            theirs = honest.ask_closed(member, RULE)
            kinds.add(type(ours))
            if not isinstance(ours, MalformedAnswer):
                assert ours.stats == theirs.stats
        assert kinds == {MalformedAnswer, ClosedAnswer}
        assert garbled.stats.per_member[member] == 6
        assert not garbled.is_member_available(member)
