"""Estimation framework: from collected answers to classified rules.

Streaming per-rule statistics, bivariate-normal significance testing
with three-way decisions, pluggable cross-member aggregation, and the
latent-ability quality-control model (spammer screening and
quarantine).
"""

from repro.estimation.aggregate import (
    Aggregator,
    DynamicTrustAggregator,
    MeanAggregator,
    TrimmedMeanAggregator,
    WeightedAggregator,
)
from repro.estimation.intervals import (
    EstimateIntervals,
    Interval,
    summary_intervals,
    wald_interval,
    wilson_interval,
)
from repro.estimation.latent import LatentAbilityModel, MemberAbility
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
    "Decision",
    "DynamicTrustAggregator",
    "EstimateIntervals",
    "EstimateSummary",
    "Interval",
    "LatentAbilityModel",
    "MeanAggregator",
    "MemberAbility",
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
