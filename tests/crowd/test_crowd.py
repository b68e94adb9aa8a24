"""Tests for the SimulatedCrowd facade."""

import gc
import weakref

import pytest

from repro.core import Rule, TransactionDB
from repro.crowd import (
    ExactAnswerModel,
    SimulatedCrowd,
    SimulatedMember,
    SpammerAnswerModel,
    standard_answer_model,
)
from repro.errors import CrowdExhaustedError
from repro.estimation import Thresholds
from repro.miner import CrowdMiner, CrowdMinerConfig


def make_crowd(n=3, patience=None, seed=0):
    db = TransactionDB([["a", "b"]] * 5 + [["a"]] * 5)
    members = [
        SimulatedMember(
            member_id=f"u{i}", db=db, answer_model=ExactAnswerModel(),
            patience=patience, seed=i,
        )
        for i in range(n)
    ]
    return SimulatedCrowd(members, seed=seed)


class TestConstruction:
    def test_empty_crowd_rejected(self):
        with pytest.raises(CrowdExhaustedError):
            SimulatedCrowd([])

    def test_duplicate_ids_rejected(self):
        db = TransactionDB([["a"]])
        members = [
            SimulatedMember("u", db),
            SimulatedMember("u", db),
        ]
        with pytest.raises(ValueError, match="unique"):
            SimulatedCrowd(members)

    def test_from_population(self, folk_population):
        crowd = SimulatedCrowd.from_population(folk_population, seed=1)
        assert len(crowd) == len(folk_population)
        assert crowd.member_ids == [m.member_id for m in folk_population]

    def test_from_population_factory(self, folk_population):
        crowd = SimulatedCrowd.from_population(
            folk_population,
            answer_model_factory=lambda i: SpammerAnswerModel(),
            seed=1,
        )
        assert len(crowd) == len(folk_population)

    def test_model_and_factory_mutually_exclusive(self, folk_population):
        with pytest.raises(ValueError, match="not both"):
            SimulatedCrowd.from_population(
                folk_population,
                answer_model=ExactAnswerModel(),
                answer_model_factory=lambda i: ExactAnswerModel(),
            )


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
        # Members report departures to the crowd's rotation, not to the
        # crowd, so nothing cycles back to a crowd: reference counting
        # alone frees it, its databases and its habit pools.
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
