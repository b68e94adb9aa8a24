"""Tests for aggregation policies."""

import numpy as np
import pytest

from repro.core import Rule, RuleStats
from repro.estimation import (
    CompositeTrust,
    MeanAggregator,
    RuleSamples,
    TrimmedMeanAggregator,
    WeightedAggregator,
)


def store_with(values):
    store = RuleSamples(Rule(["a"], ["b"]))
    for i, (s, c) in enumerate(values):
        store.add(f"u{i}", RuleStats(s, c))
    return store


class TestMean:
    def test_matches_store_summary(self):
        store = store_with([(0.2, 0.5), (0.4, 0.9)])
        agg = MeanAggregator()
        summary = agg.summarize(store)
        assert np.allclose(summary.mean, [0.3, 0.7])
        assert summary.n == 2


class TestTrimmed:
    def test_no_trim_when_too_few_samples(self):
        store = store_with([(0.2, 0.5), (0.4, 0.9)])
        summary = TrimmedMeanAggregator(trim=0.1).summarize(store)
        assert summary.n == 2  # floor(0.1 * 2) == 0 → nothing trimmed

    def test_trims_outliers(self):
        honest = [(0.3, 0.6)] * 8
        spam = [(1.0, 1.0), (0.0, 0.0)]
        store = store_with(honest + spam)
        summary = TrimmedMeanAggregator(trim=0.2).summarize(store)
        assert np.allclose(summary.mean, [0.3, 0.6], atol=1e-9)

    def test_outliers_shift_plain_mean_but_not_trimmed(self):
        honest = [(0.3, 0.6)] * 8
        spam = [(1.0, 1.0)] * 2
        store = store_with(honest + spam)
        plain = MeanAggregator().summarize(store)
        trimmed = TrimmedMeanAggregator(trim=0.2).summarize(store)
        assert plain.mean[0] > trimmed.mean[0]

    def test_invalid_trim_rejected(self):
        with pytest.raises(ValueError):
            TrimmedMeanAggregator(trim=0.5)

    def test_empty_store(self):
        summary = TrimmedMeanAggregator(0.2).summarize(
            store_with([])
        )
        assert summary.n == 0


class TestWeighted:
    def test_zero_weight_excluded(self):
        store = store_with([(0.2, 0.5), (1.0, 1.0)])
        agg = WeightedAggregator({"u1": 0.0})  # u1 is the (1.0, 1.0) spammer
        summary = agg.summarize(store)
        assert np.allclose(summary.mean, [0.2, 0.5])

    def test_uniform_weights_match_mean(self):
        store = store_with([(0.2, 0.5), (0.4, 0.9), (0.6, 0.8)])
        weighted = WeightedAggregator({}).summarize(store)
        plain = MeanAggregator().summarize(store)
        assert np.allclose(weighted.mean, plain.mean)

    def test_all_zero_weights_read_as_no_evidence(self):
        # Every contributor at zero trust (e.g. all quarantined, purge
        # pending): falling back to the unweighted mean would count the
        # distrusted answers at full weight — the summary must instead
        # report no usable evidence so the rule reads as unresolved.
        store = store_with([(0.2, 0.5), (0.4, 0.9)])
        agg = WeightedAggregator({"u0": 0.0, "u1": 0.0}, default_weight=0.0)
        summary = agg.summarize(store)
        assert summary.n == 0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightedAggregator({"u0": -1.0})

    def test_empty_store(self):
        summary = WeightedAggregator({}).summarize(store_with([]))
        assert summary.n == 0


class TestVersionTokens:
    def test_pure_policies_report_constant_version(self):
        assert MeanAggregator().version == 0
        assert TrimmedMeanAggregator(0.1).version == 0
        assert WeightedAggregator({"u0": 2.0}).version == 0

    def test_dynamic_trust_follows_its_source(self):
        from repro.estimation import ConsistencyChecker, DynamicTrustAggregator

        checker = ConsistencyChecker()
        agg = DynamicTrustAggregator(checker)
        assert agg.version == 0
        checker.record("u", Rule(["a"], ["b"]), RuleStats(0.4, 0.6))
        assert agg.version == 1
        # Reading the version must not consume it.
        assert agg.version == 1

    def test_versionless_source_never_reports_stable(self):
        from repro.estimation import DynamicTrustAggregator

        class BareTrust:
            def trust(self, member_id):
                return 1.0

        agg = DynamicTrustAggregator(BareTrust())
        # No change signal → every read is a fresh version, so cached
        # summaries keyed on it can never be (wrongly) reused.
        assert agg.version != agg.version


class TestCompositeTrust:
    class _FixedSource:
        def __init__(self, value):
            self.value = value
            self.version = 0

        def trust(self, member_id):
            return self.value

    def test_trust_is_product(self):
        composite = CompositeTrust(
            (self._FixedSource(0.5), self._FixedSource(0.5))
        )
        assert composite.trust("m1") == 0.25

    def test_version_sums_sources(self):
        a, b = self._FixedSource(1.0), self._FixedSource(1.0)
        composite = CompositeTrust((a, b))
        before = composite.version
        a.version += 3
        assert composite.version == before + 3

    def test_versionless_source_forces_invalidation(self):
        source = self._FixedSource(1.0)
        del source.version
        composite = CompositeTrust((source,))
        assert composite.version < composite.version  # strictly increasing
