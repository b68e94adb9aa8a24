"""Estimation framework: from collected answers to classified rules.

Streaming per-rule statistics, bivariate-normal significance testing
with three-way decisions, pluggable cross-member aggregation, and
consistency-based spammer screening.
"""

from repro.estimation.aggregate import (
    Aggregator,
    CompositeTrust,
    DynamicTrustAggregator,
    MeanAggregator,
    TrimmedMeanAggregator,
    WeightedAggregator,
)
from repro.estimation.consistency import ConsistencyChecker, MemberRecord
from repro.estimation.intervals import (
    EstimateIntervals,
    Interval,
    summary_intervals,
    wald_interval,
    wilson_interval,
)
from repro.estimation.normal import (
    quadrant_probability,
    quadrant_probability_independent,
)
from repro.estimation.samples import EstimateSummary, RuleSamples
from repro.estimation.significance import (
    Assessment,
    Decision,
    SignificanceTest,
    Thresholds,
)
from repro.estimation.welford import StreamingMeanCov

__all__ = [
    "Aggregator",
    "Assessment",
    "CompositeTrust",
    "ConsistencyChecker",
    "Decision",
    "DynamicTrustAggregator",
    "EstimateIntervals",
    "EstimateSummary",
    "Interval",
    "MeanAggregator",
    "MemberRecord",
    "RuleSamples",
    "SignificanceTest",
    "StreamingMeanCov",
    "Thresholds",
    "TrimmedMeanAggregator",
    "WeightedAggregator",
    "quadrant_probability",
    "summary_intervals",
    "wald_interval",
    "wilson_interval",
    "quadrant_probability_independent",
]
