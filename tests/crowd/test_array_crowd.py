"""ArrayCrowd: the vectorized crowd answers like the object crowd.

Byte-identity contract (module docstring of
``repro/crowd/array_crowd.py``): for the same population columns,
seed, answer model and patience, an ``ArrayCrowd`` must answer every
question bit-for-bit like a ``SimulatedCrowd`` built over
``population.materialize()`` — scheduling, closed answers (including
noisy per-member generator streams), open answers, patience and
quarantine semantics all included.
"""

import pickle

import numpy as np
import pytest

from repro.core import Rule
from repro.crowd import (
    ArrayCrowd,
    ExactAnswerModel,
    SimulatedCrowd,
    standard_answer_model,
)
from repro.errors import CrowdExhaustedError
from repro.synth import ArrayPopulation, folk_remedies_model


@pytest.fixture(scope="module")
def model():
    return folk_remedies_model(seed=1)


@pytest.fixture(scope="module")
def population(model):
    return ArrayPopulation(model, n_members=40, transactions_per_member=80, seed=7)


def paired_crowds(population, answer_model_factory, patience=None):
    array_crowd = ArrayCrowd(
        population, answer_model=answer_model_factory(), patience=patience, seed=5
    )
    object_crowd = SimulatedCrowd.from_population(
        population.materialize(),
        answer_model=answer_model_factory(),
        patience=patience,
        seed=5,
    )
    return array_crowd, object_crowd


def some_rules(model, count, seed):
    rng = np.random.default_rng(seed)
    items = tuple(model.domain.items)
    rules = set()
    while len(rules) < count:
        size = int(rng.integers(2, 5))
        chosen = [items[k] for k in rng.choice(len(items), size=size, replace=False)]
        cut = int(rng.integers(1, size))
        rules.add(Rule(chosen[:cut], chosen[cut:]))
    return sorted(rules, key=str)


class TestClosedAnswerByteIdentity:
    def test_exact_model_answers_match(self, model, population):
        array_crowd, object_crowd = paired_crowds(population, ExactAnswerModel)
        for rule in some_rules(model, 20, seed=21):
            member = array_crowd.next_member()
            assert member == object_crowd.next_member()
            ours = array_crowd.ask_closed(member, rule)
            theirs = object_crowd.ask_closed(member, rule)
            assert ours.stats == theirs.stats, (member, rule)

    def test_noisy_model_streams_match(self, model, population):
        # The per-member generator streams must coincide, so even the
        # sampled reporting noise is identical answer for answer.
        array_crowd, object_crowd = paired_crowds(population, standard_answer_model)
        for rule in some_rules(model, 30, seed=22):
            member = array_crowd.next_member()
            object_crowd.next_member()
            ours = array_crowd.ask_closed(member, rule)
            theirs = object_crowd.ask_closed(member, rule)
            assert ours.stats == theirs.stats, (member, rule)

    def test_repeat_questions_to_one_member_advance_the_same_stream(
        self, model, population
    ):
        array_crowd, object_crowd = paired_crowds(population, standard_answer_model)
        member = array_crowd.member_ids[3]
        for rule in some_rules(model, 10, seed=23):
            assert (
                array_crowd.ask_closed(member, rule).stats
                == object_crowd.ask_closed(member, rule).stats
            )


class TestOpenAnswerByteIdentity:
    def test_open_answers_match(self, population):
        array_crowd, object_crowd = paired_crowds(population, standard_answer_model)
        for _ in range(12):
            member = array_crowd.next_member()
            object_crowd.next_member()
            ours = array_crowd.ask_open(member)
            theirs = object_crowd.ask_open(member)
            assert ours.rule == theirs.rule
            assert ours.stats == theirs.stats


class TestScheduling:
    def test_round_robin_with_exclusions_matches(self, population):
        array_crowd, object_crowd = paired_crowds(population, ExactAnswerModel)
        exclude: list[str] = []
        for _ in range(60):
            ours = array_crowd.next_member(exclude=exclude)
            theirs = object_crowd.next_member(exclude=exclude)
            assert ours == theirs
            if ours is not None:
                exclude.append(ours)
            if len(exclude) > 5:
                exclude.pop(0)

    def test_crash_and_quarantine_track_object_path(self, population):
        array_crowd, object_crowd = paired_crowds(population, ExactAnswerModel)
        victim = array_crowd.member_ids[2]
        array_crowd.crash(victim)
        object_crowd.crash(victim)
        bad = array_crowd.member_ids[5]
        array_crowd.quarantine(bad)
        object_crowd.quarantine(bad)
        assert array_crowd.available_count() == object_crowd.available_count()
        for _ in range(40):
            assert array_crowd.next_member() == object_crowd.next_member()

    def test_patience_exhaustion_matches(self, model, population):
        array_crowd, object_crowd = paired_crowds(
            population, ExactAnswerModel, patience=2
        )
        rule = some_rules(model, 1, seed=24)[0]
        member = array_crowd.member_ids[0]
        for _ in range(2):
            array_crowd.ask_closed(member, rule)
            object_crowd.ask_closed(member, rule)
        assert not array_crowd.is_member_available(member)
        assert not object_crowd.is_member_available(member)
        with pytest.raises(CrowdExhaustedError):
            array_crowd.ask_closed(member, rule)

    def test_partitions_cover_the_crowd_disjointly(self, population):
        crowd = ArrayCrowd(population, answer_model=ExactAnswerModel(), seed=5)
        parts = crowd.partitions(4)
        seen: list[str] = []
        for part in parts:
            seen.extend(part.member_ids)
        assert sorted(seen) == sorted(crowd.member_ids)
        assert len(set(seen)) == len(seen)


class TestCheckpointFootprint:
    def test_pickle_stays_sparse_at_scale(self, model):
        big = ArrayPopulation(model, n_members=500_000, transactions_per_member=50, seed=9)
        crowd = ArrayCrowd(big, answer_model=ExactAnswerModel(), seed=5)
        # Question a handful of members so sparse state exists.
        rule = some_rules(model, 1, seed=27)[0]
        for member in crowd.member_ids[:5]:
            crowd.ask_closed(member, rule)
        payload = pickle.dumps(crowd)
        assert len(payload) < 100_000, (
            f"500k-member crowd pickled to {len(payload)} bytes — "
            "member state is leaking into checkpoints"
        )
        restored = pickle.loads(payload)
        assert len(restored) == len(crowd)
        assert restored.stats.closed_questions == crowd.stats.closed_questions
