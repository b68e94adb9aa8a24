"""Tests for in-loop spammer screening and dynamic trust aggregation."""

import numpy as np
import pytest

from repro.core import Rule, RuleStats
from repro.crowd import SimulatedCrowd, SpammerAnswerModel, standard_answer_model
from repro.errors import ConfigurationError
from repro.estimation import (
    DynamicTrustAggregator,
    MeanAggregator,
    RuleSamples,
    Thresholds,
)
from repro.miner import CrowdMiner, CrowdMinerConfig


class FakeTrust:
    def __init__(self, weights):
        self.weights = weights

    def trust(self, member_id):
        return self.weights.get(member_id, 1.0)


class TestDynamicTrustAggregator:
    def test_requires_trust_method(self):
        with pytest.raises(TypeError, match="trust"):
            DynamicTrustAggregator(object())

    def test_distrusted_member_excluded(self):
        store = RuleSamples(Rule(["a"], ["b"]))
        store.add("honest", RuleStats(0.2, 0.5))
        store.add("spammer", RuleStats(1.0, 1.0))
        agg = DynamicTrustAggregator(FakeTrust({"spammer": 0.0}))
        summary = agg.summarize(store)
        assert np.allclose(summary.mean, [0.2, 0.5])

    def test_trust_read_live(self):
        store = RuleSamples(Rule(["a"], ["b"]))
        store.add("u1", RuleStats(0.0, 0.0))
        store.add("u2", RuleStats(1.0, 1.0))
        source = FakeTrust({"u1": 1.0, "u2": 1.0})
        agg = DynamicTrustAggregator(source)
        assert np.allclose(agg.summarize(store).mean, [0.5, 0.5])
        source.weights["u2"] = 0.0  # trust collapses between reads
        assert np.allclose(agg.summarize(store).mean, [0.0, 0.0])


class TestScreeningInMiner:
    def test_config_conflict_rejected(self):
        with pytest.raises(ConfigurationError, match="aggregator"):
            CrowdMinerConfig(
                thresholds=Thresholds(0.1, 0.5),
                screen_spammers=True,
                aggregator=MeanAggregator(),
            )

    def test_screening_flags_spammers(self, folk_population):
        crowd = SimulatedCrowd(
            folk_population,
            answer_model=standard_answer_model(),
            seed=7,
            member_models={
                k: SpammerAnswerModel() for k in range(0, len(folk_population), 5)
            },
        )
        miner = CrowdMiner(
            crowd,
            CrowdMinerConfig(
                thresholds=Thresholds(0.1, 0.5),
                budget=600,
                seed=8,
                screen_spammers=True,
            ),
        )
        miner.run()
        assert miner.latent is not None
        spammers = {
            m.member_id for i, m in enumerate(folk_population) if i % 5 == 0
        }
        flagged = {
            m.member_id
            for m in folk_population
            if miner.latent.trust(m.member_id) < 0.8
        }
        # Most flagged members are actual spammers, and at least some
        # spammers are caught.
        assert flagged & spammers
        honest_flagged = flagged - spammers
        assert len(honest_flagged) <= len(flagged) // 2

    def test_screening_off_by_default(self, folk_crowd):
        miner = CrowdMiner(
            folk_crowd,
            CrowdMinerConfig(thresholds=Thresholds(0.1, 0.5), budget=20, seed=8),
        )
        assert miner.latent is None
