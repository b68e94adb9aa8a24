"""The significance test: classify rules from collected evidence.

A rule is *significant* when the crowd-mean support and confidence both
clear the query thresholds ``(θ_s, θ_c)``. Evidence about a rule is a
set of per-member observations; by the central limit theorem the sample
mean is approximately bivariate normal around the true mean, so the
probability that the rule is truly significant is the mass of that
normal in the upper-right threshold quadrant.

:class:`SignificanceTest` turns that probability into a three-way
decision (the multi-user algorithm's aggregator can answer *yes*, *no*
or *undecided*):

- ``p ≥ decision_confidence`` → **significant**;
- ``p ≤ 1 − decision_confidence`` → **insignificant**;
- otherwise → **undecided** (more answers needed).

The same probability drives question selection: the rule's
*uncertainty* ``min(p, 1 − p)`` is the probability of misclassifying it
if forced to decide now, and the adaptive strategy asks about the rule
whose uncertainty is largest.

Two practical guards temper the raw normal approximation:

- a **minimum sample count** before any final decision (a single
  enthusiastic answer must not settle a rule);
- a **variance floor** reflecting answer coarseness: Likert-coarsened
  answers can agree exactly, producing a zero sample variance that
  would otherwise make the test infinitely confident.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from repro._util import check_fraction, check_positive
from repro.estimation.normal import (
    quadrant_probability,
    quadrant_probability_independent,
)
from repro.estimation.samples import EstimateSummary


@dataclass(frozen=True, slots=True)
class Thresholds:
    """The query's significance thresholds ``(θ_s, θ_c)``.

    The support threshold has the paper's intuitive reading: a habit's
    minimum average frequency (e.g. ``3/365`` ≈ "at least three times a
    year").
    """

    support: float
    confidence: float

    def __post_init__(self) -> None:
        check_fraction(self.support, "support threshold")
        check_fraction(self.confidence, "confidence threshold")

    def as_tuple(self) -> tuple[float, float]:
        """``(θ_s, θ_c)`` as a plain tuple."""
        return (self.support, self.confidence)


class Decision(enum.Enum):
    """Three-way classification of a rule."""

    SIGNIFICANT = "significant"
    INSIGNIFICANT = "insignificant"
    UNDECIDED = "undecided"

    @property
    def is_final(self) -> bool:
        """True for the two settled outcomes."""
        return self is not Decision.UNDECIDED


@dataclass(frozen=True, slots=True)
class Assessment:
    """The test's full output for one rule."""

    decision: Decision
    probability_significant: float
    uncertainty: float
    n: int

    def __reduce__(self) -> tuple:
        # Positional, like RuleStats: a checkpoint pickles every one.
        return Assessment, (self.decision, self.probability_significant, self.uncertainty, self.n)


class SignificanceTest:
    """Classify rules and quantify their uncertainty.

    Parameters
    ----------
    thresholds:
        The query thresholds.
    decision_confidence:
        One-sided confidence required to settle a rule (default 0.9).
    min_samples:
        Minimum distinct members answering before a final decision.
    variance_floor:
        Lower bound applied to each component's *per-observation*
        variance, encoding irreducible answer coarseness. The floor on
        the mean's variance therefore decays as ``floor / n``.
    use_covariance:
        When false, the upper-quadrant probability is the product of
        the two marginal probabilities (the E9 ablation).
    prior_std:
        Per-observation standard deviation assumed while ``n < 2``
        (before any sample covariance exists).
    """

    def __init__(
        self,
        thresholds: Thresholds,
        decision_confidence: float = 0.9,
        min_samples: int = 3,
        variance_floor: float = 0.01**2,
        use_covariance: bool = True,
        prior_std: float = 0.25,
    ) -> None:
        if not 0.5 < decision_confidence < 1.0:
            raise ValueError(
                f"decision_confidence must be in (0.5, 1), got {decision_confidence}"
            )
        self.thresholds = thresholds
        self.decision_confidence = float(decision_confidence)
        self.min_samples = check_positive(min_samples, "min_samples")
        if variance_floor < 0:
            raise ValueError("variance_floor must be non-negative")
        self.variance_floor = float(variance_floor)
        self.use_covariance = bool(use_covariance)
        if prior_std <= 0:
            raise ValueError("prior_std must be positive")
        self.prior_std = float(prior_std)

    # -- core computation -------------------------------------------------------

    def _effective_mean_cov(self, summary: EstimateSummary) -> np.ndarray:
        """The mean-estimate covariance with priors and floors applied."""
        n = max(summary.n, 1)
        cov = np.array(summary.mean_cov, dtype=float, copy=True)
        if summary.n < 2:
            # No sample covariance yet: fall back to the prior spread.
            prior_var = self.prior_std**2 / n
            cov = np.diag([prior_var, prior_var])
        floor = self.variance_floor / n
        cov[0, 0] = max(cov[0, 0], floor)
        cov[1, 1] = max(cov[1, 1], floor)
        return cov

    def probability_significant(self, summary: EstimateSummary) -> float:
        """``P(true mean lies in the significant quadrant | evidence)``.

        With no evidence at all the probability is 0.5 — maximal
        uncertainty, which makes unseen rules maximally interesting to
        strategies that rank by uncertainty.
        """
        if summary.n == 0:
            return 0.5
        cov = self._effective_mean_cov(summary)
        quadrant = (
            quadrant_probability
            if self.use_covariance
            else quadrant_probability_independent
        )
        return quadrant(summary.mean, cov, self.thresholds.as_tuple())

    def probability_support_exceeds(self, summary: EstimateSummary) -> float:
        """Marginal ``P(crowd-mean support ≥ θ_s | evidence)``.

        Confidence is *not* monotone along the rule lattice but support
        is, so lattice pruning may only rely on this marginal: a rule
        whose support is confidently below threshold condemns all of
        its specializations, whatever their confidences.
        """
        if summary.n == 0:
            return 0.5
        cov = self._effective_mean_cov(summary)
        var = float(cov[0, 0])
        mean = float(summary.mean[0])
        if var <= 0:
            return 1.0 if mean >= self.thresholds.support else 0.0
        # The kernel ``norm.sf`` reduces to, without its dispatch.
        return float(ndtr(-(self.thresholds.support - mean) / math.sqrt(var)))

    def assess(self, summary: EstimateSummary) -> Assessment:
        """Full three-way assessment of a rule's evidence."""
        p = self.probability_significant(summary)
        uncertainty = min(p, 1.0 - p)
        if summary.n < self.min_samples:
            decision = Decision.UNDECIDED
        elif p >= self.decision_confidence:
            decision = Decision.SIGNIFICANT
        elif p <= 1.0 - self.decision_confidence:
            decision = Decision.INSIGNIFICANT
        else:
            decision = Decision.UNDECIDED
        return Assessment(
            decision=decision,
            probability_significant=p,
            uncertainty=uncertainty,
            n=summary.n,
        )

    def point_decision(self, summary: EstimateSummary) -> Decision:
        """The forced (point-estimate) classification, ignoring confidence.

        Used when a budget runs out and every rule must be labelled:
        compare the mean estimate to the thresholds directly.
        """
        if summary.n == 0:
            return Decision.INSIGNIFICANT
        s, c = float(summary.mean[0]), float(summary.mean[1])
        # The same answers summed in a different order (live streaming
        # vs cache replay) can land a float ulp apart; a mean sitting
        # exactly on a threshold must classify the same either way.
        tolerance = 1e-9
        if (
            s >= self.thresholds.support - tolerance
            and c >= self.thresholds.confidence - tolerance
        ):
            return Decision.SIGNIFICANT
        return Decision.INSIGNIFICANT

    def __repr__(self) -> str:
        return (
            f"SignificanceTest(thresholds=({self.thresholds.support}, "
            f"{self.thresholds.confidence}), confidence={self.decision_confidence}, "
            f"min_samples={self.min_samples})"
        )
