"""Cross-member aggregation policies.

The paper treats the answer aggregator as a *black box*: given the
answers collected for a rule, decide the current estimate (and hence,
downstream, the significance classification). The default box is the
plain sample mean; this module provides it and the robust and
trust-weighted variants used in the spammer-robustness experiments:

- :class:`MeanAggregator` — plain mean/covariance (O(1), streaming);
- :class:`TrimmedMeanAggregator` — drop the most extreme answers
  componentwise before averaging, which bounds the influence of a
  minority of spammers;
- :class:`WeightedAggregator` — per-member trust weights (e.g. from an
  external worker-quality system);
- :class:`DynamicTrustAggregator` — live trust weights re-read from a
  trust source at every summary.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro._util import check_fraction
from repro.estimation.samples import EstimateSummary, RuleSamples


class Aggregator:
    """Base aggregation policy: turn a sample store into an estimate."""

    def summarize(self, samples: RuleSamples) -> EstimateSummary:
        """Compute the estimate snapshot for ``samples``."""
        raise NotImplementedError

    @property
    def version(self) -> int:
        """Monotonic cache token for the policy's *own* state.

        A summary computed for a sample store is reusable while both
        the store's version and this version are unchanged. Policies
        that are pure functions of the samples (the default) never
        change, hence the constant 0; policies reading live external
        state (:class:`DynamicTrustAggregator`) must bump this whenever
        that state may have moved.
        """
        return 0

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class MeanAggregator(Aggregator):
    """The plain sample mean — the paper's default black box.

    Delegates to the store's streaming estimator, so it costs O(1) per
    read regardless of sample count.
    """

    def summarize(self, samples: RuleSamples) -> EstimateSummary:
        return samples.summary()


def _summary_from_array(data: np.ndarray) -> EstimateSummary:
    n = data.shape[0]
    if n == 0:
        return EstimateSummary(0, np.zeros(2), np.zeros((2, 2)))
    mean = data.mean(axis=0)
    if n < 2:
        return EstimateSummary(n, mean, np.zeros((2, 2)))
    cov = np.cov(data, rowvar=False, ddof=1)
    return EstimateSummary(n, mean, cov / n)


class TrimmedMeanAggregator(Aggregator):
    """Symmetric componentwise trimming before averaging.

    ``trim`` is the fraction removed from *each* tail of each
    component (so ``trim=0.1`` drops the lowest and highest 10 % of
    support answers and, independently, of confidence answers). With a
    spammer fraction below ``trim``, spam answers cannot move the
    estimate beyond the trimmed range.

    Componentwise trimming technically breaks the joint-sample pairing
    for the covariance; we recompute the covariance on the rows that
    survive *both* components' trims, a standard practical compromise.
    """

    def __init__(self, trim: float = 0.1) -> None:
        check_fraction(trim, "trim")
        if trim >= 0.5:
            raise ValueError("trim must be < 0.5 (cannot trim everything)")
        self.trim = float(trim)

    def summarize(self, samples: RuleSamples) -> EstimateSummary:
        data = samples.as_array()
        n = data.shape[0]
        k = int(np.floor(self.trim * n))
        if n == 0 or k == 0:
            return _summary_from_array(data)
        keep = np.ones(n, dtype=bool)
        for component in range(2):
            order = np.argsort(data[:, component], kind="stable")
            keep[order[:k]] = False
            keep[order[n - k :]] = False
        survivors = data[keep]
        if survivors.shape[0] == 0:
            survivors = data
        return _summary_from_array(survivors)

    def __repr__(self) -> str:
        return f"TrimmedMeanAggregator(trim={self.trim})"


class DynamicTrustAggregator(Aggregator):
    """Trust-weighted aggregation with *live* weights.

    Wraps a :class:`~repro.estimation.latent.LatentAbilityModel` (or
    any object with a ``trust(member_id) -> float`` method) and
    re-reads each member's trust at every summarize call, so estimates
    automatically discount members whose answers have since revealed
    them as inconsistent. This is the aggregation mode behind the
    miner's spammer screening and quarantine.
    """

    def __init__(self, trust_source) -> None:
        if not callable(getattr(trust_source, "trust", None)):
            raise TypeError("trust_source must expose trust(member_id) -> float")
        self.trust_source = trust_source
        self._fallback_version = 0

    @property
    def version(self) -> int:
        """Tracks the trust source so cached summaries invalidate.

        A trust source without a ``version`` attribute (any object with
        just ``trust()``) gives no change signal, so every read reports
        a fresh version — caching is disabled rather than risking stale
        trust weights.
        """
        source_version = getattr(self.trust_source, "version", None)
        if source_version is None:
            self._fallback_version += 1
            return self._fallback_version
        return int(source_version)

    def summarize(self, samples: RuleSamples) -> EstimateSummary:
        weights = {
            member_id: self.trust_source.trust(member_id)
            for member_id in samples.member_ids
        }
        if all(w == 1.0 for w in weights.values()):
            # With full trust all round, the weighted mean *is* the
            # plain mean — but computed batch-wise it differs from the
            # streaming estimate in float ulps. Taking the exact
            # streaming path keeps trust-enabled sessions byte-identical
            # to plain ones until some member actually loses trust (and
            # reuses the O(1) estimator instead of an O(n) recompute).
            return samples.summary()
        return WeightedAggregator(weights).summarize(samples)

    def __repr__(self) -> str:
        return f"DynamicTrustAggregator({self.trust_source!r})"


class WeightedAggregator(Aggregator):
    """Trust-weighted mean with effective-sample-size covariance scaling.

    ``weights`` maps member ids to non-negative trust weights; members
    absent from the mapping get ``default_weight``. The covariance of
    the weighted mean uses Kish's effective sample size
    ``(Σw)² / Σw²`` in place of ``n``.
    """

    def __init__(
        self, weights: Mapping[str, float], default_weight: float = 1.0
    ) -> None:
        for member, w in weights.items():
            if w < 0:
                raise ValueError(f"negative weight for member {member!r}")
        if default_weight < 0:
            raise ValueError("default_weight must be non-negative")
        self.weights = dict(weights)
        self.default_weight = float(default_weight)

    def summarize(self, samples: RuleSamples) -> EstimateSummary:
        members = sorted(samples.member_ids)
        if not members:
            return EstimateSummary(0, np.zeros(2), np.zeros((2, 2)))
        data = np.array([samples.pair_of(m) for m in members])
        w = np.array([self.weights.get(m, self.default_weight) for m in members])
        if w.sum() <= 0:
            # Every contributor has zero trust (e.g. all quarantined,
            # purge pending). Falling back to the unweighted mean would
            # count their evidence at full weight — report no usable
            # evidence instead, so the rule reads as unresolved.
            return EstimateSummary(0, np.zeros(2), np.zeros((2, 2)))
        w = w / w.sum()
        mean = (w[:, None] * data).sum(axis=0)
        n = data.shape[0]
        if n < 2:
            return EstimateSummary(n, mean, np.zeros((2, 2)))
        centred = data - mean
        cov = (w[:, None, None] * np.einsum("ni,nj->nij", centred, centred)).sum(axis=0)
        cov = cov / max(1e-12, (1.0 - float((w**2).sum())))  # unbiased-ish
        ess = 1.0 / float((w**2).sum())
        return EstimateSummary(n, mean, cov / ess)

    def __repr__(self) -> str:
        return f"WeightedAggregator({len(self.weights)} weights)"
