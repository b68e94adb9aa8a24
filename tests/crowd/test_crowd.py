"""Tests for the crowd facades: the simulated crowd and the member crowd."""

import gc
import weakref

import pytest

from repro.core import Rule, TransactionDB
from repro.crowd import (
    ExactAnswerModel,
    MemberCrowd,
    SimulatedCrowd,
    SpammerAnswerModel,
    StreamMember,
    standard_answer_model,
)
from repro.errors import CrowdExhaustedError
from repro.estimation import Thresholds
from repro.miner import CrowdMiner, CrowdMinerConfig
from tests.crowd.populations import population_of


def make_crowd(n=3, patience=None, seed=0):
    db = TransactionDB([["a", "b"]] * 5 + [["a"]] * 5)
    return SimulatedCrowd(
        population_of(*[db] * n),
        answer_model=ExactAnswerModel(),
        patience=patience,
        seed=seed,
    )


class TestConstruction:
    def test_empty_crowd_rejected(self):
        with pytest.raises(CrowdExhaustedError):
            MemberCrowd([])

    def test_duplicate_ids_rejected(self):
        members = [StreamMember("u", []), StreamMember("u", [])]
        with pytest.raises(ValueError, match="unique"):
            MemberCrowd(members)

    def test_from_population(self, folk_population):
        crowd = SimulatedCrowd.from_population(folk_population, seed=1)
        assert len(crowd) == len(folk_population)
        assert crowd.member_ids == [m.member_id for m in folk_population]

    def test_from_population_factory(self, folk_population):
        # Per-member answer models: every other member is a spammer.
        spammers = range(0, len(folk_population), 2)
        crowd = SimulatedCrowd(
            folk_population,
            answer_model=ExactAnswerModel(),
            seed=1,
            member_models={k: SpammerAnswerModel() for k in spammers},
        )
        assert len(crowd) == len(folk_population)
        rule = Rule(["a"], ["b"])  # outside the domain: every true support is 0
        for k, member_id in enumerate(crowd.member_ids):
            spammed = crowd.ask_closed(member_id, rule).stats.support > 0
            assert spammed == (k in spammers)

    def test_per_member_behaviour_must_lie_in_the_crowd(self, folk_population):
        with pytest.raises(ValueError, match="outside the crowd"):
            SimulatedCrowd(folk_population, garbled={len(folk_population): 1.0})


class TestScheduling:
    def test_round_robin(self):
        crowd = make_crowd(3)
        order = [crowd.next_member() for _ in range(6)]
        assert order == ["u0", "u1", "u2", "u0", "u1", "u2"]

    def test_skips_exhausted_members(self):
        crowd = make_crowd(2, patience=1)
        crowd.ask_closed("u0", Rule(["a"], ["b"]))
        assert crowd.available_members() == ["u1"]
        assert crowd.next_member() == "u1"

    def test_all_exhausted_raises(self):
        crowd = make_crowd(1, patience=1)
        crowd.ask_closed("u0", Rule(["a"], ["b"]))
        with pytest.raises(CrowdExhaustedError):
            crowd.next_member()


class TestProtocolAndStats:
    def test_closed_answer(self):
        crowd = make_crowd()
        answer = crowd.ask_closed("u0", Rule(["a"], ["b"]))
        assert answer.stats.support == pytest.approx(0.5)
        assert crowd.stats.closed_questions == 1
        assert crowd.stats.per_member["u0"] == 1
        assert Rule(["a"], ["b"]) in crowd.stats.unique_rules_asked

    def test_open_answer_counted(self):
        crowd = make_crowd()
        crowd.ask_open("u0")
        assert crowd.stats.open_questions == 1
        assert crowd.stats.total_questions == 1

    def test_empty_open_counted(self):
        crowd = make_crowd()
        # Exclude everything the member could say.
        exhausted = False
        for _ in range(50):
            answer = crowd.ask_open("u0")
            if answer.is_empty:
                exhausted = True
                break
        assert exhausted
        assert crowd.stats.empty_open_answers >= 1

    def test_unknown_member_raises(self):
        crowd = make_crowd()
        with pytest.raises(KeyError):
            crowd.ask_closed("nobody", Rule(["a"], ["b"]))


class TestLifetime:
    def test_finished_session_frees_its_crowd_without_the_cyclic_gc(
        self, folk_population
    ):
        # The crowd holds no member objects and nothing it holds refers
        # back to it, so reference counting alone frees it, its
        # population and its habit pools.
        gc.collect()
        gc.disable()
        try:
            crowd = SimulatedCrowd.from_population(
                folk_population, answer_model=standard_answer_model(), seed=3
            )
            alive = weakref.ref(crowd)
            miner = CrowdMiner(
                crowd, CrowdMinerConfig(Thresholds(0.10, 0.5), budget=60, seed=4)
            )
            miner.run()
            assert crowd.stats.open_questions > 0
            del crowd
            assert alive() is not None
            del miner
            assert alive() is None
        finally:
            gc.enable()
