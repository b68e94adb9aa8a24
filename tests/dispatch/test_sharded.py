"""Sharded dispatch equivalence and determinism.

The acceptance bar for ``Dispatcher(..., shards=n)``, in the style of
``tests/dispatch/test_equivalence.py``:

- one shard, window 1, zero latency and the same seeds must reproduce
  the synchronous session **byte for byte**, on both the object-backed
  and the array-backed crowd;
- more shards must stay deterministic: the same seed replays the same
  transcript, knowledge base and dispatch books, run after run;
- the dispatch books must always balance (every issued question meets
  exactly one fate), however the completion streams interleave, and
  the in-flight gauge must count the whole session, not one lane.
"""

import pytest

from repro.crowd import ExactAnswerModel, SimulatedCrowd
from repro.dispatch import (
    ConstantLatency,
    DispatchConfig,
    Dispatcher,
    LognormalLatency,
)
from repro.errors import ConfigurationError, InvalidThresholdError
from repro.estimation import Thresholds
from repro.miner import AnswerCache, CachingCrowd, CrowdMiner, CrowdMinerConfig
from repro.synth import ArrayPopulation, build_population, folk_remedies_model

from tests.dispatch.test_equivalence import (
    kb_fingerprint,
    log_fingerprint,
    make_miner,
)

THRESHOLDS = Thresholds(0.10, 0.5)


def assert_books_balance(stats):
    assert stats.issued == (
        stats.completed
        + stats.stale_discarded
        + stats.malformed
        + stats.rejected
        + stats.timeouts
        + stats.crashed
    ), stats


@pytest.fixture(scope="module")
def array_population():
    return ArrayPopulation(
        folk_remedies_model(seed=1), n_members=200, transactions_per_member=120, seed=2
    )


def make_array_miner(population, budget=400):
    crowd = SimulatedCrowd(population, answer_model=ExactAnswerModel(), seed=5)
    config = CrowdMinerConfig(thresholds=THRESHOLDS, seed=6, budget=budget)
    return CrowdMiner(crowd, config)


class TestSingleShardEquivalence:
    def test_object_crowd_matches_sync_byte_for_byte(self, folk_population):
        sync = make_miner(folk_population)
        sync_result = sync.run()

        mined = make_miner(folk_population)
        result = Dispatcher(
            mined,
            DispatchConfig(window=1, latency=ConstantLatency(0.0), seed=99),
            shards=1,
        ).run()

        assert log_fingerprint(mined) == log_fingerprint(sync)
        assert kb_fingerprint(mined) == kb_fingerprint(sync)
        assert result.significant == sync_result.significant
        assert result.questions_asked == sync_result.questions_asked

    def test_array_crowd_matches_object_sync_byte_for_byte(self, array_population):
        # The object path here runs over ``materialize()``, which shares
        # the array population's columns exactly — so one shard over the
        # array crowd must replay the object-backed sync session.
        materialized = array_population.materialize()
        sync = CrowdMiner(
            SimulatedCrowd.from_population(
                materialized, answer_model=ExactAnswerModel(), seed=5
            ),
            CrowdMinerConfig(thresholds=THRESHOLDS, seed=6, budget=400),
        )
        sync.run()

        mined = make_array_miner(array_population)
        Dispatcher(
            mined,
            DispatchConfig(window=1, latency=ConstantLatency(0.0), seed=99),
            shards=1,
        ).run()

        assert log_fingerprint(mined) == log_fingerprint(sync)
        assert kb_fingerprint(mined) == kb_fingerprint(sync)

    def test_single_shard_books_match_plain_dispatcher_semantics(
        self, folk_population
    ):
        config = DispatchConfig(
            window=4, latency=LognormalLatency(median=60.0, sigma=1.0), seed=99
        )
        plain_miner = make_miner(folk_population)
        plain = Dispatcher(plain_miner, config).run()
        sharded_miner = make_miner(folk_population)
        sharded = Dispatcher(sharded_miner, config, shards=1).run()

        assert_books_balance(plain.dispatch)
        assert_books_balance(sharded.dispatch)
        assert sharded.dispatch.issued == plain.dispatch.issued


class TestMultiShardDeterminism:
    def run_sharded(self, population, shards, window=6):
        miner = make_miner(population)
        result = Dispatcher(
            miner,
            DispatchConfig(
                window=window,
                latency=LognormalLatency(median=60.0, sigma=1.0),
                seed=99,
            ),
            shards=shards,
        ).run()
        return log_fingerprint(miner), kb_fingerprint(miner), result.dispatch

    def test_same_seed_same_transcript(self, folk_population):
        first = self.run_sharded(folk_population, shards=4)
        second = self.run_sharded(folk_population, shards=4)
        assert first[0] == second[0]
        assert first[1] == second[1]
        assert first[2] == second[2]
        assert_books_balance(first[2])

    def test_array_crowd_batched_windows_deterministic(self, array_population):
        def run():
            miner = make_array_miner(array_population)
            result = Dispatcher(
                miner,
                DispatchConfig(window=8, latency=ConstantLatency(10.0), seed=99),
                shards=4,
            ).run()
            return log_fingerprint(miner), kb_fingerprint(miner), result.dispatch

        first, second = run(), run()
        assert first[0] == second[0]
        assert first[1] == second[1]
        assert first[2] == second[2]
        assert_books_balance(first[2])
        assert first[2].in_flight_high_water > 8, (
            "four shards with window 8 should overlap more than one "
            "shard's worth of questions"
        )

    def test_shard_counts_change_schedule_but_stay_balanced(self, folk_population):
        for shards in (2, 3, 4):
            _, _, stats = self.run_sharded(folk_population, shards=shards)
            assert_books_balance(stats)
            assert stats.completed > 0


class TestShardedConfiguration:
    def test_rejects_crowds_without_partitions(self, folk_population):
        crowd = CachingCrowd(
            SimulatedCrowd.from_population(
                folk_population, answer_model=ExactAnswerModel(), seed=5
            ),
            AnswerCache(),
        )
        miner = CrowdMiner(
            crowd, CrowdMinerConfig(thresholds=THRESHOLDS, seed=6, budget=50)
        )
        with pytest.raises(ConfigurationError):
            Dispatcher(miner, DispatchConfig(window=2, seed=99), shards=2)

    def test_rejects_nonpositive_shards(self, folk_population):
        miner = make_miner(folk_population)
        with pytest.raises(InvalidThresholdError):
            Dispatcher(miner, DispatchConfig(window=2, seed=99), shards=0)

    def test_stats_sum_over_shards(self, folk_population):
        miner = make_miner(folk_population)
        dispatcher = Dispatcher(
            miner,
            DispatchConfig(
                window=6, latency=LognormalLatency(median=60.0, sigma=1.0), seed=99
            ),
            shards=4,
        )
        dispatcher.run()
        stats = dispatcher.stats()
        assert stats.issued == dispatcher.questions_issued
        assert stats.completed == miner.questions_asked
        assert stats.makespan == max(lane.clock.now for lane in dispatcher._lanes)

    @pytest.mark.parametrize("shards, least_high_water", [(1, 1), (4, 7)])
    def test_in_flight_gauge_counts_every_lane(
        self, folk_model, shards, least_high_water
    ):
        miner = make_miner(
            build_population(
                folk_model, n_members=40, transactions_per_member=120, seed=2
            )
        )
        result = Dispatcher(
            miner,
            DispatchConfig(
                window=6, latency=LognormalLatency(median=60.0, sigma=1.0), seed=99
            ),
            shards=shards,
        ).run()
        gauge = miner.obs.gauge_high_water("dispatch.in_flight")
        assert gauge == result.dispatch.in_flight_high_water
        # Four lanes of six overlap more than one lane's window.
        assert result.dispatch.in_flight_high_water >= least_high_water
