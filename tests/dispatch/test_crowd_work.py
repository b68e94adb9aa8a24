"""A dispatched session's crowd work grows with its events, not its crowd.

Counted, never timed:

- set-up: lanes take their turns over crowd positions, so building a
  4-shard dispatcher over a 100,000-member columnar crowd, or restoring
  one from its checkpoint, formats no member id;

- departures: a lane learns who left from the crowd's departure log,
  so with patience 1 (every answer is a departure) the availability
  work of a whole 4-shard session is O(departures × shards), never a
  rescan of each lane after each departure;
- retries: a timed-out question is reassigned by walking the lane's
  available members only up to the first eligible one, so one
  reassignment probes at most (in flight + already answered + 1)
  members — and formats no more ids than that — however large the
  lane.
"""

import numpy as np
import pytest

from repro.core import Rule
from repro.crowd import ExactAnswerModel, SimulatedCrowd
from repro.crowd.rotation import Rotation
from repro.dispatch import DispatchConfig, Dispatcher, LognormalLatency
from repro.estimation import Thresholds
from repro.estimation.samples import RuleSamples
from repro.miner import CrowdMiner, CrowdMinerConfig, FixedRatioPolicy
from repro.storage import capture_session, restore_session
from repro.synth import ArrayPopulation, folk_remedies_model

SHARDS = 4


def seed_rules(items, count, seed):
    rng = np.random.default_rng(seed)
    rules = set()
    while len(rules) < count:
        size = int(rng.integers(2, 4))
        chosen = [items[k] for k in rng.choice(len(items), size=size, replace=False)]
        rules.add(Rule(chosen[:1], chosen[1:]))
    return tuple(sorted(rules, key=str))


def closed_miner(crowd, items, budget):
    """Closed questions only, about seeded rules (no open answers)."""
    return CrowdMiner(
        crowd,
        CrowdMinerConfig(
            thresholds=Thresholds(0.10, 0.5),
            budget=budget,
            seed_rules=seed_rules(items, 300, seed=8),
            open_policy=FixedRatioPolicy(0.0, fallback_to_open=False),
            expand_generalizations=False,
            expand_splits=False,
            seed=6,
        ),
    )


@pytest.fixture(scope="module")
def population():
    return ArrayPopulation(
        folk_remedies_model(seed=1), n_members=1_000, transactions_per_member=40, seed=3
    )


CROWDS = {
    "array": lambda population: SimulatedCrowd(
        population, answer_model=ExactAnswerModel(), patience=1, seed=5
    ),
    "simulated": lambda population: SimulatedCrowd.from_population(
        population.materialize(), answer_model=ExactAnswerModel(), patience=1, seed=5
    ),
}


@pytest.fixture
def formatted(monkeypatch):
    """How many member ids the columnar population has formatted."""
    count = [0]
    member_id_at = ArrayPopulation.member_id_at

    def counting(self, index):
        count[0] += 1
        return member_id_at(self, index)

    monkeypatch.setattr(ArrayPopulation, "member_id_at", counting)
    return count


class TestSetupWork:
    @pytest.fixture(scope="class")
    def large_population(self):
        return ArrayPopulation(
            folk_remedies_model(seed=1), n_members=100_000, transactions_per_member=40, seed=3
        )

    def sharded(self, population):
        crowd = SimulatedCrowd(population, answer_model=ExactAnswerModel(), patience=1, seed=5)
        miner = closed_miner(crowd, population.domain.items, budget=120)
        return Dispatcher(
            miner,
            DispatchConfig(window=8, latency=LognormalLatency(60.0, 1.0), seed=9),
            shards=SHARDS,
        )

    def test_building_a_sharded_dispatcher_formats_no_id(
        self, large_population, formatted
    ):
        self.sharded(large_population)
        assert formatted[0] == 0

    def test_restoring_a_sharded_session_formats_no_id(self, large_population, formatted):
        dispatcher = self.sharded(large_population)
        dispatcher.advance_to(90.0)
        # Questions in flight, and departures (patience 1) to replay.
        assert dispatcher.in_flight_count and dispatcher.miner.crowd.departures
        payload = capture_session(dispatcher.miner, dispatcher)
        formatted[0] = 0
        _miner, restored = restore_session(payload)
        assert formatted[0] == 0
        # Running on formats only the ids the session hands out.
        result = restored.run()
        assert formatted[0] <= 2 * result.dispatch.issued


class TestDepartureWork:
    @pytest.mark.parametrize("kind", sorted(CROWDS))
    def test_availability_work_is_linear_in_departures(
        self, monkeypatch, population, kind
    ):
        crowd = CROWDS[kind](population)
        work = [0]

        def counted(method):
            def wrapper(*args, **kwargs):
                work[0] += 1
                return method(*args, **kwargs)

            return wrapper

        # Every way a scheduler can learn of a departure: asking the
        # crowd about a member, or dropping one from a rotation.
        monkeypatch.setattr(Rotation, "discard", counted(Rotation.discard))
        monkeypatch.setattr(
            type(crowd), "is_member_available", counted(type(crowd).is_member_available)
        )
        miner = closed_miner(crowd, population.domain.items, budget=300)
        Dispatcher(
            miner,
            DispatchConfig(window=8, latency=LognormalLatency(60.0, 1.0), seed=9),
            shards=SHARDS,
        ).run()
        departures = len(crowd) - crowd.available_count()
        assert departures >= 100
        # Each lane applies each departure once; the crowd's own
        # rotation drops it once more.
        assert work[0] <= (SHARDS + 1) * departures, (work[0], departures)


class TestRetryProbes:
    @pytest.mark.parametrize("shards", [1, SHARDS])
    def test_reassignment_stops_at_the_first_free_member(
        self, monkeypatch, population, shards
    ):
        crowd = SimulatedCrowd(population, answer_model=ExactAnswerModel(), seed=5)
        miner = closed_miner(crowd, population.domain.items, budget=400)
        dispatcher = Dispatcher(
            miner,
            # A small window: with many questions in flight, most
            # timed-out ones are stale by then and dropped, not retried.
            DispatchConfig(
                window=2, timeout=240.0, latency=LognormalLatency(60.0, 1.0), seed=9
            ),
            shards=shards,
        )
        counts = {"probes": 0, "formatted": 0}

        def counting(name, method):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return method(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            RuleSamples, "has_answer_from", counting("probes", RuleSamples.has_answer_from)
        )
        monkeypatch.setattr(
            population, "member_id_at", counting("formatted", population.member_id_at)
        )
        reassign = dispatcher._reassign_target
        calls = []

        def measured(proposal, lane):
            # In flight when the question timed out, itself included.
            in_flight = dispatcher.in_flight_count + 1
            answered = len(miner.state.knowledge(proposal.rule).samples.member_ids)
            counts.update(probes=0, formatted=0)
            target = reassign(proposal, lane)
            calls.append((dict(counts), in_flight + answered + 1))
            return target

        monkeypatch.setattr(dispatcher, "_reassign_target", measured)
        result = dispatcher.run()
        assert result.dispatch.retries >= 20
        assert len(calls) >= result.dispatch.retries
        for seen, bound in calls:
            assert seen["probes"] <= bound and seen["formatted"] <= bound, (seen, bound)
