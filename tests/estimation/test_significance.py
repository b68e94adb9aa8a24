"""Tests for the significance test."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from repro.core import Rule, RuleStats
from repro.errors import InvalidThresholdError
from repro.estimation import (
    Decision,
    EstimateSummary,
    RuleSamples,
    SignificanceTest,
    Thresholds,
)


def evidence(values):
    store = RuleSamples(Rule(["a"], ["b"]))
    for i, (s, c) in enumerate(values):
        store.add(f"u{i}", RuleStats(s, c))
    return store.summary()


@pytest.fixture
def test():
    return SignificanceTest(Thresholds(0.2, 0.5), min_samples=3)


class TestThresholds:
    def test_valid(self):
        t = Thresholds(0.1, 0.5)
        assert t.as_tuple() == (0.1, 0.5)

    def test_invalid_rejected(self):
        with pytest.raises(InvalidThresholdError):
            Thresholds(1.5, 0.5)


class TestConstruction:
    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError):
            SignificanceTest(Thresholds(0.1, 0.5), decision_confidence=0.4)
        with pytest.raises(ValueError):
            SignificanceTest(Thresholds(0.1, 0.5), decision_confidence=1.0)

    def test_bad_prior_rejected(self):
        with pytest.raises(ValueError):
            SignificanceTest(Thresholds(0.1, 0.5), prior_std=0.0)


class TestProbability:
    def test_no_evidence_is_half(self, test):
        assert test.probability_significant(evidence([])) == 0.5

    def test_strong_consistent_evidence_high(self, test):
        summary = evidence([(0.5, 0.8)] * 10)
        assert test.probability_significant(summary) > 0.95

    def test_clearly_below_low(self, test):
        summary = evidence([(0.01, 0.05 + 0.01 * i) for i in range(10)])
        assert test.probability_significant(summary) < 0.05

    def test_single_sample_moderate(self, test):
        # One sample uses the wide prior: confident-ish but not settled.
        p = test.probability_significant(evidence([(0.6, 0.9)]))
        assert 0.5 < p < 0.99

    def test_variance_floor_prevents_certainty(self):
        test = SignificanceTest(
            Thresholds(0.2, 0.5), min_samples=3, variance_floor=0.15**2
        )
        # Identical answers near the threshold: the floor keeps doubt alive.
        summary = evidence([(0.25, 0.55)] * 3)
        p = test.probability_significant(summary)
        assert p < 0.9

    def test_support_marginal(self, test):
        summary = evidence([(0.5, 0.9)] * 8)
        assert test.probability_support_exceeds(summary) > 0.95
        summary_low = evidence([(0.01, 0.02 + 0.01 * i) for i in range(8)])
        assert test.probability_support_exceeds(summary_low) < 0.05

    @settings(max_examples=300, deadline=None)
    @given(
        threshold=st.floats(0.0, 1.0),
        mean=st.floats(-1.0, 2.0),
        var=st.one_of(st.floats(1e-300, 1e-12), st.floats(1e-12, 4.0)),
    )
    def test_support_marginal_equals_norm_sf(self, threshold, mean, var):
        # No variance floor, so the marginal's variance is ``var`` itself,
        # tiny positive values included.
        test = SignificanceTest(Thresholds(threshold, 0.5), variance_floor=0.0)
        summary = EstimateSummary(
            n=4, mean=np.array([mean, 0.5]), mean_cov=np.diag([var, var])
        )
        expected = float(norm.sf(threshold, loc=mean, scale=math.sqrt(var)))
        assert test.probability_support_exceeds(summary) == expected


class TestDecisions:
    def test_min_samples_blocks_decision(self, test):
        summary = evidence([(0.6, 0.9)] * 2)
        assert test.assess(summary).decision is Decision.UNDECIDED

    def test_significant(self, test):
        summary = evidence([(0.5, 0.8), (0.55, 0.85), (0.6, 0.9), (0.5, 0.8)])
        assert test.assess(summary).decision is Decision.SIGNIFICANT

    def test_insignificant(self, test):
        summary = evidence([(0.0, 0.0), (0.01, 0.02), (0.0, 0.05), (0.02, 0.03)])
        assert test.assess(summary).decision is Decision.INSIGNIFICANT

    def test_boundary_undecided(self, test):
        summary = evidence([(0.15, 0.45), (0.25, 0.55), (0.2, 0.5)])
        assessment = test.assess(summary)
        assert assessment.decision is Decision.UNDECIDED
        assert assessment.uncertainty > 0.1

    def test_uncertainty_definition(self, test):
        assessment = test.assess(evidence([(0.5, 0.8)] * 5))
        p = assessment.probability_significant
        assert assessment.uncertainty == pytest.approx(min(p, 1 - p))

    def test_decision_is_final_property(self):
        assert Decision.SIGNIFICANT.is_final
        assert Decision.INSIGNIFICANT.is_final
        assert not Decision.UNDECIDED.is_final


class TestPointDecision:
    def test_no_evidence_insignificant(self, test):
        assert test.point_decision(evidence([])) is Decision.INSIGNIFICANT

    def test_point_above(self, test):
        assert (
            test.point_decision(evidence([(0.3, 0.6)])) is Decision.SIGNIFICANT
        )

    def test_point_below(self, test):
        assert (
            test.point_decision(evidence([(0.1, 0.6)])) is Decision.INSIGNIFICANT
        )


class TestCovarianceAblation:
    def test_independent_mode_runs(self):
        test = SignificanceTest(Thresholds(0.2, 0.5), use_covariance=False)
        summary = evidence([(0.5, 0.8), (0.4, 0.7), (0.6, 0.9), (0.5, 0.75)])
        p = test.probability_significant(summary)
        assert 0.0 <= p <= 1.0

    def test_modes_differ_with_correlated_evidence(self):
        values = [(0.1 + 0.05 * i, 0.3 + 0.05 * i) for i in range(8)]
        joint = SignificanceTest(Thresholds(0.2, 0.5), use_covariance=True)
        indep = SignificanceTest(Thresholds(0.2, 0.5), use_covariance=False)
        summary = evidence(values)
        assert joint.probability_significant(summary) != pytest.approx(
            indep.probability_significant(summary), abs=1e-4
        )
