"""The one simulated crowd answers alike over either kind of population.

Byte-identity contract (module docstring of ``repro/crowd/crowd.py``):
for the same population columns, seed, answer model, per-member
behaviour and patience, the crowd over an ``ArrayPopulation`` must
answer every question bit-for-bit like the crowd over
``population.materialize()`` — scheduling, closed answers (including
noisy per-member generator streams), open answers, patience,
quarantine semantics and every adversary role all included.
"""

import pickle

import numpy as np
import pytest

from repro.core import Rule
from repro.crowd import (
    ArrayCrowd,
    ExactAnswerModel,
    SimulatedCrowd,
    array_crowd,
    standard_answer_model,
)
from repro.errors import CrowdExhaustedError
from repro.faults import ADVERSARY_ROLES, build_adversarial_crowd
from repro.synth import ArrayPopulation, folk_remedies_model

#: One mix per adversary role, and one with every role at once.
ROLE_MIXES = {
    **{role: ((role, 0.3),) for role in ADVERSARY_ROLES},
    "every-role": tuple((role, 0.15) for role in ADVERSARY_ROLES),
}


@pytest.fixture(scope="module")
def model():
    return folk_remedies_model(seed=1)


@pytest.fixture(scope="module")
def population(model):
    return ArrayPopulation(model, n_members=40, transactions_per_member=80, seed=7)


def paired_crowds(population, make_model, patience=None):
    array_crowd = SimulatedCrowd(
        population, answer_model=make_model(), patience=patience, seed=5
    )
    object_crowd = SimulatedCrowd.from_population(
        population.materialize(),
        answer_model=make_model(),
        patience=patience,
        seed=5,
    )
    return array_crowd, object_crowd


def adversarial_twins(population, mix):
    """The crowd with adversary ``mix`` over ``population`` and over its
    ``materialize()``; garbled members garble half their replies."""
    (array_crowd, array_roles), (object_crowd, object_roles) = (
        build_adversarial_crowd(
            pop, mix, answer_model=standard_answer_model(), seed=5, garbled_rate=0.5
        )
        for pop in (population, population.materialize())
    )
    assert array_roles == object_roles
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


class TestAdversaryRolesByteIdentity:
    @pytest.mark.parametrize("mix", ROLE_MIXES.values(), ids=ROLE_MIXES.keys())
    def test_every_role_answers_alike(self, model, population, mix):
        array_crowd, object_crowd = adversarial_twins(population, mix)
        # Two rounds of the crowd and more: members are asked again,
        # and every fifth question is open.
        for k, rule in enumerate(some_rules(model, 100, seed=25)):
            member = array_crowd.next_member()
            assert member == object_crowd.next_member()
            if k % 5 == 4:
                ours, theirs = array_crowd.ask_open(member), object_crowd.ask_open(member)
            else:
                ours = array_crowd.ask_closed(member, rule)
                theirs = object_crowd.ask_closed(member, rule)
            assert ours == theirs, (member, rule)

    def test_every_role_survives_a_pickle_round_trip(self, model, population):
        array_crowd, _ = adversarial_twins(population, ROLE_MIXES["every-role"])
        rules = some_rules(model, 80, seed=26)
        for rule in rules[:40]:
            array_crowd.ask_closed(array_crowd.next_member(), rule)
        twin = pickle.loads(pickle.dumps(array_crowd))
        for rule in rules[40:]:
            member = array_crowd.next_member()
            assert twin.next_member() == member
            assert twin.ask_closed(member, rule) == array_crowd.ask_closed(member, rule)


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
        crowd = SimulatedCrowd(population, answer_model=ExactAnswerModel(), seed=5)
        parts = crowd.partitions(4)
        seen: list[str] = []
        for part in parts:
            seen.extend(part.member_ids)
        assert sorted(seen) == sorted(crowd.member_ids)
        assert len(set(seen)) == len(seen)


def test_array_crowd_is_another_name_for_the_one_crowd():
    assert ArrayCrowd is array_crowd.ArrayCrowd is SimulatedCrowd


class TestCheckpointFootprint:
    def test_pickle_stays_sparse_at_scale(self, model):
        big = ArrayPopulation(model, n_members=500_000, transactions_per_member=50, seed=9)
        crowd = SimulatedCrowd(big, answer_model=ExactAnswerModel(), seed=5)
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
