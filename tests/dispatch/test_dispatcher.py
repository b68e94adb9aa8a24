"""Tests for the asynchronous dispatcher: windows, timeouts, staleness."""

import gc
import math
import weakref

import pytest

from repro.crowd import (
    ExactAnswerModel,
    SimulatedCrowd,
    standard_answer_model,
)
from repro.dispatch import (
    ConstantLatency,
    DispatchConfig,
    Dispatcher,
    DroppingLatency,
    LatencyProfile,
    LognormalLatency,
    heavy_tail_latency,
)
from repro.errors import ConfigurationError
from repro.estimation import Thresholds
from repro.miner import CrowdMiner, CrowdMinerConfig, QuestionKind
from repro.storage import open_backend
from repro.synth import ArrayPopulation, folk_remedies_model

THRESHOLDS = Thresholds(0.10, 0.5)


def make_miner(population, *, budget=120, crowd_seed=5, miner_seed=6, exact=True):
    model = ExactAnswerModel() if exact else standard_answer_model()
    crowd = SimulatedCrowd.from_population(
        population, answer_model=model, seed=crowd_seed
    )
    config = CrowdMinerConfig(thresholds=THRESHOLDS, seed=miner_seed, budget=budget)
    return CrowdMiner(crowd, config)


class TestWindow:
    def test_high_water_reaches_the_window(self, folk_population):
        miner = make_miner(folk_population)
        dispatcher = Dispatcher(
            miner,
            DispatchConfig(window=8, latency=ConstantLatency(30.0), seed=1),
        )
        result = dispatcher.run()
        assert result.dispatch is not None
        assert result.dispatch.in_flight_high_water == 8

    def test_window_capped_by_crowd_size(self, folk_population):
        miner = make_miner(folk_population)  # 25 members
        dispatcher = Dispatcher(
            miner,
            DispatchConfig(window=100, latency=ConstantLatency(30.0), seed=1),
        )
        result = dispatcher.run()
        assert result.dispatch.in_flight_high_water <= len(miner.crowd)

    def test_budget_counts_issues(self, folk_population):
        miner = make_miner(folk_population, budget=50)
        dispatcher = Dispatcher(
            miner, DispatchConfig(window=4, latency=ConstantLatency(10.0), seed=1)
        )
        result = dispatcher.run()
        assert result.dispatch.issued == 50
        assert dispatcher.budget_left == 0

    def test_makespan_advances_with_latency(self, folk_population):
        miner = make_miner(folk_population, budget=40)
        dispatcher = Dispatcher(
            miner, DispatchConfig(window=1, latency=ConstantLatency(60.0), seed=1)
        )
        result = dispatcher.run()
        # One question at a time, each 60 simulated seconds.
        assert result.dispatch.makespan == pytest.approx(60.0 * 40)


class TestTimeoutsAndRetries:
    def test_slow_answers_time_out_and_retry(self, folk_population):
        miner = make_miner(folk_population, budget=30)
        # Every answer takes 1000s against a 100s timeout: all time out,
        # and retries (with backoff 2x) eventually get dropped too.
        dispatcher = Dispatcher(
            miner,
            DispatchConfig(
                window=2,
                latency=ConstantLatency(1000.0),
                timeout=100.0,
                max_retries=1,
                backoff=2.0,
                seed=1,
            ),
        )
        result = dispatcher.run()
        stats = result.dispatch
        assert stats.timeouts > 0
        assert stats.retries > 0
        assert stats.late_discarded == stats.timeouts
        assert stats.dropped > 0
        assert stats.completed == 0  # nothing ever landed in time
        assert miner.questions_asked == 0

    def test_backoff_lets_a_retry_succeed(self, folk_population):
        miner = make_miner(folk_population, budget=10)
        # 150s answers, 100s base timeout, backoff 2 => the retry waits
        # 200s and the (reissued) answer lands.
        dispatcher = Dispatcher(
            miner,
            DispatchConfig(
                window=1,
                latency=ConstantLatency(150.0),
                timeout=100.0,
                max_retries=2,
                backoff=2.0,
                seed=1,
            ),
        )
        result = dispatcher.run()
        stats = result.dispatch
        assert stats.timeouts > 0
        assert stats.completed > 0
        assert stats.dropped == 0

    def test_retry_reassigns_to_a_different_member(self, folk_population):
        miner = make_miner(folk_population, budget=4)
        slow_then_fast = LatencyProfile(default=ConstantLatency(1000.0))
        dispatcher = Dispatcher(
            miner,
            DispatchConfig(
                window=1,
                latency=slow_then_fast,
                timeout=100.0,
                max_retries=1,
                seed=1,
            ),
        )
        issued_members = []
        original_issue = dispatcher._issue

        def spy(proposal, attempt, lane):
            issued_members.append((proposal.member_id, attempt))
            original_issue(proposal, attempt, lane)

        dispatcher._issue = spy
        dispatcher.run()
        originals = [m for m, attempt in issued_members if attempt == 0]
        retries = [m for m, attempt in issued_members if attempt > 0]
        assert retries
        # Window 1 strictly alternates original/retry, so pairing the
        # two lists matches each retry with its timed-out original.
        for original, retry in zip(originals, retries):
            assert retry != original

    def test_answer_landing_exactly_at_timeout_counts(self, folk_population):
        miner = make_miner(folk_population, budget=5)
        dispatcher = Dispatcher(
            miner,
            DispatchConfig(
                window=1, latency=ConstantLatency(100.0), timeout=100.0, seed=1
            ),
        )
        result = dispatcher.run()
        # Arrival is scheduled before the timeout at the same instant.
        assert result.dispatch.timeouts == 0
        assert result.dispatch.completed == 5


class TestDropout:
    def test_lost_answers_need_a_timeout(self, folk_population):
        miner = make_miner(folk_population, budget=10)
        dispatcher = Dispatcher(
            miner,
            DispatchConfig(
                window=1,
                latency=DroppingLatency(ConstantLatency(10.0), p_drop=1.0),
                timeout=math.inf,
                seed=1,
            ),
        )
        with pytest.raises(ConfigurationError, match="timeout"):
            dispatcher.run()

    def test_dropout_recovered_by_timeout(self, folk_population):
        miner = make_miner(folk_population, budget=20)
        dispatcher = Dispatcher(
            miner,
            DispatchConfig(
                window=2,
                latency=DroppingLatency(ConstantLatency(10.0), p_drop=0.5),
                timeout=60.0,
                max_retries=3,
                seed=1,
            ),
        )
        result = dispatcher.run()
        stats = result.dispatch
        assert stats.completed > 0
        assert stats.timeouts > 0
        # Lost answers are not "late": nothing was travelling anymore.
        assert stats.late_discarded < stats.timeouts


class TestEvidenceIntegrity:
    """Stale answers must never be double-counted in the knowledge base."""

    def test_no_member_counted_twice_per_rule(self, folk_population):
        miner = make_miner(folk_population, budget=300, exact=False)
        dispatcher = Dispatcher(
            miner,
            DispatchConfig(
                window=12,
                latency=heavy_tail_latency(median=60.0),
                timeout=1800.0,
                max_retries=2,
                seed=7,
            ),
        )
        dispatcher.run()
        closed_pairs = [
            (event.rule, event.member_id)
            for event in miner.log
            if event.kind is QuestionKind.CLOSED
        ]
        assert len(closed_pairs) == len(set(closed_pairs))

    def test_evidence_count_matches_ingested_closed_answers(self, folk_population):
        # The regression the version stamp exists for: every sample in
        # the knowledge base corresponds to exactly one ingested closed
        # event (plus none from open answers under the default config) —
        # stale arrivals, late arrivals and drops contribute nothing.
        miner = make_miner(folk_population, budget=300, exact=False)
        dispatcher = Dispatcher(
            miner,
            DispatchConfig(
                window=12,
                latency=heavy_tail_latency(median=60.0),
                timeout=1800.0,
                max_retries=2,
                seed=7,
            ),
        )
        result = dispatcher.run()
        total_samples = sum(
            knowledge.samples.n for knowledge in miner.state.rules()
        )
        closed_ingested = sum(
            1 for event in miner.log if event.kind is QuestionKind.CLOSED
        )
        assert total_samples == closed_ingested
        stats = result.dispatch
        # The books balance: every issue either completed, went stale,
        # or timed out into a retry or a drop.
        assert stats.issued == stats.completed + stats.stale_discarded + stats.timeouts
        assert stats.timeouts == stats.retries + stats.dropped

    def test_stale_discards_counted_in_obs(self, folk_population):
        miner = make_miner(folk_population, budget=300, exact=False)
        dispatcher = Dispatcher(
            miner,
            DispatchConfig(
                window=16, latency=heavy_tail_latency(median=60.0),
                timeout=3600.0, seed=3,
            ),
        )
        result = dispatcher.run()
        stats = result.dispatch
        assert stats.stale_discarded == result.obs.counters.get("dispatch.stale", 0)
        assert stats.issued == result.obs.counters.get("dispatch.issued", 0)


class TestReporting:
    def test_summary_reports_dispatch_counters(self, folk_population):
        miner = make_miner(folk_population, budget=40)
        dispatcher = Dispatcher(
            miner, DispatchConfig(window=4, latency=ConstantLatency(30.0), seed=1)
        )
        summary = dispatcher.run().summary()
        assert "in-flight high water 4" in summary
        assert "makespan" in summary

    def test_sync_summary_has_fallback_line(self, folk_population):
        miner = make_miner(folk_population, budget=20)
        result = miner.run()
        assert "synchronous session (no dispatcher attached)" in result.summary()

    def test_config_validation(self):
        with pytest.raises(Exception):
            DispatchConfig(window=0)
        with pytest.raises(ConfigurationError):
            DispatchConfig(timeout=0.0)
        with pytest.raises(ConfigurationError):
            DispatchConfig(max_retries=-1)
        with pytest.raises(ConfigurationError):
            DispatchConfig(backoff=0.5)

    def test_advance_to_runs_on_a_grid(self, folk_population):
        miner = make_miner(folk_population, budget=40)
        dispatcher = Dispatcher(
            miner, DispatchConfig(window=2, latency=ConstantLatency(50.0), seed=1)
        )
        dispatcher.advance_to(100.0)
        mid_questions = miner.questions_asked
        assert 0 < mid_questions < 40
        assert dispatcher.clock.now == 100.0
        dispatcher.advance_to(10_000.0)
        assert miner.questions_asked == 40


class TestLifetime:
    @pytest.mark.parametrize("shards", [1, 4])
    def test_finished_session_is_freed_without_the_cyclic_gc(self, shards):
        # The miner holds its dispatcher seat weakly, a cancelled clock
        # event lets go of its action, and an unread answer's recipe
        # does not point back at its crowd: reference counting alone
        # frees a finished session, unread answers still queued.
        population = ArrayPopulation(
            folk_remedies_model(seed=1), n_members=60, transactions_per_member=60, seed=2
        )
        gc.collect()
        gc.disable()
        try:
            crowd = SimulatedCrowd(population, answer_model=standard_answer_model(), seed=5)
            miner = CrowdMiner(
                crowd, CrowdMinerConfig(thresholds=THRESHOLDS, seed=6, budget=300)
            )
            dispatcher = Dispatcher(
                miner,
                DispatchConfig(
                    window=8, timeout=240.0, latency=LognormalLatency(60.0, 1.0), seed=9
                ),
                shards=shards,
            )
            result = dispatcher.run()
            assert result.dispatch.timeouts > 0
            assert crowd._unread, "want unread answers queued at the end"
            alive = [weakref.ref(obj) for obj in (crowd, miner, dispatcher)]
            del crowd, miner, dispatcher, result
            assert [ref() for ref in alive] == [None, None, None]
        finally:
            gc.enable()

    def test_checkpoint_refuses_once_the_seat_is_freed(self, folk_population):
        # A capture without the dispatcher would resume the session as a
        # synchronous one; the miner refuses instead of writing it.
        miner = make_miner(folk_population, budget=20)
        miner.storage = open_backend(None, "memory")
        dispatcher = Dispatcher(
            miner, DispatchConfig(window=2, latency=ConstantLatency(10.0), seed=1)
        )
        dispatcher.run()
        assert miner.checkpoint() is not None
        del dispatcher
        with pytest.raises(ConfigurationError, match="dispatcher seat was freed"):
            miner.checkpoint()
        miner.storage.close()
