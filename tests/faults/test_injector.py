"""The fault matrix: every adversary × every transport fault.

The ISSUE's robustness bar: any combination of adversarial answer
behaviour and injected transport/membership faults must (a) complete
without an unhandled exception, (b) leave the dispatcher's books
balanced, and (c) replay byte-identically from its seed tuple.
"""

import pytest

from repro.dispatch import DispatchConfig, Dispatcher, LognormalLatency
from repro.errors import ConfigurationError
from repro.estimation import Thresholds
from repro.faults import (
    FaultInjector,
    FaultPlan,
    build_adversarial_crowd,
    periodic_plan,
)
from repro.miner import CrowdMiner, CrowdMinerConfig
from tests.dispatch.test_equivalence import log_fingerprint

THRESHOLDS = Thresholds(0.10, 0.5)

ADVERSARIES = {
    "none": (),
    "spammer": (("spammer", 0.2),),
    "colluder": (("colluder", 0.2),),
    "drifter": (("drifter", 0.2),),
    "lazy": (("lazy", 0.2),),
    "garbled": (("garbled", 0.2),),
}

FAULTS = {
    "crashes": periodic_plan(horizon=300.0, crash_every=60.0, seed=13),
    "churn": periodic_plan(horizon=300.0, churn_at=120.0, churn_size=3, seed=13),
    "duplicates": periodic_plan(horizon=300.0, duplicate_every=45.0, seed=13),
    "all": periodic_plan(
        horizon=300.0,
        crash_every=90.0,
        churn_at=150.0,
        churn_size=3,
        duplicate_every=60.0,
        seed=13,
    ),
}


def run_faulted(population, mix, plan, *, budget=60, **miner_overrides):
    crowd, _ = build_adversarial_crowd(population, mix, seed=5)
    miner = CrowdMiner(
        crowd,
        CrowdMinerConfig(
            thresholds=THRESHOLDS, budget=budget, seed=6, **miner_overrides
        ),
    )
    dispatcher = Dispatcher(
        miner,
        DispatchConfig(
            window=4,
            latency=LognormalLatency(median=20.0, sigma=0.8),
            timeout=70.0,
            seed=99,
        ),
    )
    FaultInjector(dispatcher, plan).arm()
    result = dispatcher.run()
    return miner, dispatcher, result


def assert_books_balance(stats):
    assert stats.issued == (
        stats.completed
        + stats.stale_discarded
        + stats.malformed
        + stats.rejected
        + stats.timeouts
        + stats.crashed
    ), f"books do not balance: {stats}"
    assert stats.timeouts + stats.crashed == stats.retries + stats.dropped
    assert stats.late_discarded <= stats.timeouts


class TestFaultMatrix:
    @pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_completes_with_balanced_books(
        self, folk_population, adversary, fault
    ):
        _, _, result = run_faulted(
            folk_population, ADVERSARIES[adversary], FAULTS[fault]
        )
        assert result.questions_asked > 0
        assert_books_balance(result.dispatch)

    def test_everything_at_once_with_quality_loop(self, folk_population):
        # The kitchen sink: mixed adversaries, every fault class, and
        # the full quality loop defending — still no exceptions, still
        # balanced books, and the injector's counters tell what bit.
        mix = (("spammer", 0.2), ("garbled", 0.1), ("drifter", 0.1))
        miner, dispatcher, result = run_faulted(
            folk_population,
            mix,
            FAULTS["all"],
            budget=120,
            quarantine=True,
        )
        assert_books_balance(result.dispatch)
        counters = miner.obs.snapshot().counters
        fired = sum(
            counters.get(name, 0)
            for name in (
                "faults.crashes",
                "faults.churned",
                "faults.duplicates",
                "faults.noops",
            )
        )
        assert fired > 0, "no planned fault ever fired"
        assert result.dispatch.malformed > 0  # garbled members got through

    def test_faulted_session_replays_byte_identically(self, folk_population):
        mix = (("spammer", 0.2), ("garbled", 0.1))
        runs = [
            run_faulted(folk_population, mix, FAULTS["all"], budget=80)
            for _ in range(2)
        ]
        (miner_a, _, result_a), (miner_b, _, result_b) = runs
        assert log_fingerprint(miner_a) == log_fingerprint(miner_b)
        assert result_a.dispatch == result_b.dispatch
        assert result_a.significant == result_b.significant

    def test_crashes_actually_crash(self, folk_population):
        _, _, result = run_faulted(folk_population, (), FAULTS["crashes"])
        assert result.dispatch.crashed > 0

    def test_duplicates_discarded_not_booked(self, folk_population):
        _, _, result = run_faulted(folk_population, (), FAULTS["duplicates"])
        assert result.dispatch.duplicates > 0
        assert_books_balance(result.dispatch)  # replays outside the books


class TestFaultPlan:
    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.is_empty
        assert not FAULTS["all"].is_empty

    def test_negative_times_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(crashes=(-1.0,))
        with pytest.raises(ConfigurationError):
            FaultPlan(churn_waves=((-5.0, 2),))

    def test_zero_wave_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(churn_waves=((10.0, 0),))

    def test_periodic_plan_grid(self):
        plan = periodic_plan(horizon=100.0, crash_every=30.0, duplicate_every=50.0)
        assert plan.crashes == (30.0, 60.0, 90.0)
        assert plan.duplicates == (50.0, 100.0)
        assert plan.churn_waves == ()

    def test_periodic_plan_validation(self):
        with pytest.raises(ConfigurationError):
            periodic_plan(horizon=0.0)
        with pytest.raises(ConfigurationError):
            periodic_plan(horizon=10.0, crash_every=-1.0)


class TestInjectorArming:
    def test_double_arm_rejected(self, folk_population):
        crowd, _ = build_adversarial_crowd(folk_population, (), seed=5)
        miner = CrowdMiner(
            crowd, CrowdMinerConfig(thresholds=THRESHOLDS, budget=10, seed=6)
        )
        dispatcher = Dispatcher(miner, DispatchConfig(window=2, seed=99))
        injector = FaultInjector(dispatcher, FaultPlan(crashes=(5.0,)))
        injector.arm()
        with pytest.raises(ConfigurationError):
            injector.arm()
