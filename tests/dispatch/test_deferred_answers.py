"""Answers simulated at first read: the simulated crowd's deferred closed answers.

An asynchronous closed question to the simulated crowd comes back as a
recipe whose ``(support, confidence)`` is simulated when the miner
first reads it — past its malformed, rejected and stale gates — so
answers the session throws away are never simulated. The contract
(``repro/crowd/crowd.py``): every observable stays byte-identical to
simulating at issue, because each member's answers are simulated in
issue order, and a model whose draws are shared across members (the
collusion ring's) is simulated at issue. Pinned here:

- a dispatched session over an ``ArrayPopulation`` equals the same
  session over its ``materialize()`` — log, knowledge base and
  dispatch books — with a drawing answer model and members asked again
  after an answer of theirs was discarded unread, sharded or not, with
  closed questions filling whole windows, and with every adversary
  role under quarantine;
- the work saved is counted: a session of the ``sharded_closed`` shape
  simulates exactly its completed answers;
- a checkpoint taken with unread answers queued resumes byte-identically.
"""

import pickle
from functools import partial

import numpy as np
import pytest

from repro.core import Rule
from repro.crowd import (
    NoisyAnswerModel,
    SimulatedCrowd,
    standard_answer_model,
)
from repro.crowd.questions import ClosedAnswer, DeferredClosedAnswer
from repro.dispatch import DispatchConfig, Dispatcher, LognormalLatency
from repro.estimation import Thresholds
from repro.eval.runner import ExperimentConfig, build_world
from repro.faults import build_adversarial_crowd
from repro.miner import CrowdMiner, CrowdMinerConfig, FixedRatioPolicy
from repro.storage import capture_session, restore_session
from repro.synth import ArrayPopulation, folk_remedies_model

from tests.crowd.test_array_crowd import ROLE_MIXES
from tests.dispatch.test_equivalence import kb_fingerprint, log_fingerprint

THRESHOLDS = Thresholds(0.10, 0.5)


@pytest.fixture(scope="module")
def population():
    # Small enough that members are asked again within one session.
    return ArrayPopulation(
        folk_remedies_model(seed=1), n_members=30, transactions_per_member=60, seed=2
    )


def random_rules(items, count, seed):
    """``count`` distinct rules with 2–4 item bodies."""
    rng = np.random.default_rng(seed)
    rules: set[Rule] = set()
    while len(rules) < count:
        size = int(rng.integers(2, 5))
        chosen = [items[k] for k in rng.choice(len(items), size=size, replace=False)]
        cut = int(rng.integers(1, size))
        rules.add(Rule(chosen[:cut], chosen[cut:]))
    return sorted(rules, key=str)


def dispatched(crowd, shards, window, budget=240, **options):
    miner = CrowdMiner(
        crowd, CrowdMinerConfig(thresholds=THRESHOLDS, seed=6, budget=budget, **options)
    )
    return Dispatcher(
        miner,
        DispatchConfig(
            window=window, timeout=240.0, latency=LognormalLatency(60.0, 1.0), seed=9
        ),
        shards=shards,
    )


def count_catch_ups(monkeypatch):
    """Count unread answers simulated because a later draw came first."""
    caught_up = [0]
    catch_up = SimulatedCrowd._catch_up

    def counted(self, index, through=None):
        queue = self._unread.get(index, ())
        ahead = len(queue) if through is None else list(queue).index(through)
        caught_up[0] += ahead
        catch_up(self, index, through)

    monkeypatch.setattr(SimulatedCrowd, "_catch_up", counted)
    return caught_up


def closed_only(population):
    """Miner options for closed questions about 120 seeded rules only."""
    return dict(
        seed_rules=tuple(random_rules(population.domain.items, 120, seed=23)),
        open_policy=FixedRatioPolicy(0.0, fallback_to_open=False),
        expand_generalizations=False,
        expand_splits=False,
    )


class TestDispatchedEquivalence:
    @pytest.mark.parametrize(
        "shards, window, answer_model, seeded",
        [
            (1, 8, standard_answer_model, False),
            (4, 1, standard_answer_model, False),
            # Every lane's first fill is a window of closed questions.
            (4, 8, standard_answer_model, True),
            (2, 4, standard_answer_model, True),
            (4, 8, partial(NoisyAnswerModel, 0.1), True),
            (2, 4, partial(NoisyAnswerModel, 0.1), True),
        ],
        ids=["1-8", "4-1", "seeded-4-8", "seeded-2-4", "seeded-4-8-noisy", "seeded-2-4-noisy"],
    )
    def test_array_crowd_matches_eager_object_crowd(
        self, monkeypatch, population, shards, window, answer_model, seeded
    ):
        caught_up = count_catch_ups(monkeypatch)
        options = closed_only(population) if seeded else {}
        array_session = dispatched(
            SimulatedCrowd(population, answer_model=answer_model(), seed=5),
            shards,
            window,
            **options,
        )
        object_session = dispatched(
            SimulatedCrowd.from_population(
                population.materialize(), answer_model=answer_model(), seed=5
            ),
            shards,
            window,
            **options,
        )
        ours = array_session.run()
        theirs = object_session.run()

        assert log_fingerprint(array_session.miner) == log_fingerprint(object_session.miner)
        assert kb_fingerprint(array_session.miner) == kb_fingerprint(object_session.miner)
        assert ours.dispatch == theirs.dispatch
        assert ours.fingerprint() == theirs.fingerprint()
        # The session did throw answers away, and asked some of their
        # members again: discarded answers were simulated late, in order.
        assert ours.dispatch.stale_discarded + ours.dispatch.timeouts > 0
        assert caught_up[0] > 0

    @pytest.mark.parametrize("mix", ROLE_MIXES.values(), ids=ROLE_MIXES.keys())
    def test_every_role_dispatches_alike_on_either_population(self, population, mix):
        sessions = [
            dispatched(
                build_adversarial_crowd(
                    pop, mix, answer_model=standard_answer_model(), seed=5, garbled_rate=0.5
                )[0],
                shards=2,
                window=8,
                quarantine=True,
            )
            for pop in (population, population.materialize())
        ]
        ours, theirs = (session.run() for session in sessions)
        assert log_fingerprint(sessions[0].miner) == log_fingerprint(sessions[1].miner)
        assert ours.dispatch == theirs.dispatch
        assert ours.fingerprint() == theirs.fingerprint()
        assert ours.dispatch.stale_discarded + ours.dispatch.timeouts > 0


class TestCrowdLevelOrder:
    def test_later_draws_catch_up_unread_answers_in_issue_order(self, population):
        # Unrounded noise: any change in the order of draws shows.
        rules = random_rules(population.domain.items, 4, seed=21)
        array_crowd = SimulatedCrowd(population, answer_model=NoisyAnswerModel(0.1), seed=5)
        object_crowd = SimulatedCrowd.from_population(
            population.materialize(), answer_model=NoisyAnswerModel(0.1), seed=5
        )
        member = array_crowd.member_ids[4]
        eager = [object_crowd.ask_closed(member, rule).stats for rule in rules]
        latency, rng = LognormalLatency(60.0, 1.0), np.random.default_rng(1)
        unread = [
            array_crowd.ask_closed_async(member, rule, latency=latency, rng=rng).answer
            for rule in rules[:3]
        ]
        assert all(isinstance(answer, DeferredClosedAnswer) for answer in unread)
        # Reading the second answer first simulates the first ahead of it.
        assert unread[1].stats == eager[1]
        # A synchronous question draws next: the third unread answer is
        # simulated ahead of it.
        assert array_crowd.ask_closed(member, rules[3]).stats == eager[3]
        assert [answer.stats for answer in unread] == eager[:3]
        assert array_crowd.ask_open(member).stats == object_crowd.ask_open(member).stats

    def test_unread_answer_pickles_as_its_recipe(self, population):
        crowd = SimulatedCrowd(population, answer_model=standard_answer_model(), seed=5)
        member = crowd.member_ids[2]
        (rule,) = random_rules(population.domain.items, 1, seed=22)
        answer = crowd.ask_closed_async(
            member, rule, latency=LognormalLatency(60.0, 1.0), rng=np.random.default_rng(1)
        ).answer
        crowd_copy, answer_copy = pickle.loads(pickle.dumps((crowd, answer)))
        assert type(answer_copy) is DeferredClosedAnswer
        assert answer_copy._stats is None  # nothing simulated by the capture
        assert answer_copy.stats == answer.stats
        read = pickle.loads(pickle.dumps(answer))
        assert type(read) is ClosedAnswer
        assert read == ClosedAnswer(member, answer.question, answer.stats)


class TestSimulationCount:
    def test_sharded_session_simulates_only_what_it_reads(self, monkeypatch):
        # The sharded_closed world shape: a 100k-member columnar crowd,
        # 2,000 seeded rules, closed questions only, 4 shards x 8 in
        # flight. Eager simulation ran once per issued question (3,000
        # against 1,667 completed).
        shards, window, budget = 4, 8, 3_000
        config = ExperimentConfig(
            name="deferred-answers",
            budget=budget,
            checkpoints=(budget,),
            repetitions=1,
            n_items=80,
            n_patterns=10,
            n_members=100_000,
            transactions_per_member=100,
            population_backend="array",
        )
        model, population, _ = build_world(config, seed=201, ground_truth=False)
        rules = random_rules(model.domain.items, 2_000, seed=11)
        miner = CrowdMiner(
            SimulatedCrowd(population, answer_model=standard_answer_model(), seed=12),
            CrowdMinerConfig(
                thresholds=THRESHOLDS,
                budget=budget,
                seed_rules=tuple(rules),
                open_policy=FixedRatioPolicy(0.0, fallback_to_open=False),
                expand_generalizations=False,
                expand_splits=False,
                seed=13,
            ),
        )
        simulations = [0]
        rule_stats_at = type(population).rule_stats_at

        def counted(self, index, rule):
            simulations[0] += 1
            return rule_stats_at(self, index, rule)

        monkeypatch.setattr(type(population), "rule_stats_at", counted)
        result = Dispatcher(
            miner,
            DispatchConfig(window=window, latency=LognormalLatency(60.0, 1.0), seed=14),
            shards=shards,
        ).run()
        books = result.dispatch
        assert books.issued == budget
        assert books.stale_discarded > 500
        assert simulations[0] == books.completed, (simulations[0], books)


class TestCheckpoint:
    @pytest.mark.parametrize("shards, window", [(1, 8), (4, 4)])
    def test_resume_with_unread_answers_queued(self, population, shards, window):
        def session():
            return dispatched(
                SimulatedCrowd(population, answer_model=standard_answer_model(), seed=5),
                shards,
                window,
            )

        uninterrupted = session().run()
        dispatcher = session()
        dispatcher._fill_window()
        while dispatcher.miner.questions_asked < 100 and dispatcher._step():
            pass
        crowd = dispatcher.miner.crowd
        assert dispatcher.in_flight_count
        # Unread answers are queued: in flight, and discarded unread.
        assert sum(map(len, crowd._unread.values())) > dispatcher.in_flight_count
        payload = capture_session(dispatcher.miner, dispatcher)
        _miner, restored = restore_session(payload)
        resumed = restored.run()
        assert resumed.fingerprint() == uninterrupted.fingerprint()
        assert resumed.dispatch == uninterrupted.dispatch
