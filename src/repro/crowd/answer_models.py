"""Answer models: how a member's true stats become a reported answer.

People do not read numbers out of their heads. Following the paper's
discussion (and its citation of Bradburn et al.'s survey-methodology
work on autobiographical memory), a member's report of "how often" is
an imprecise function of the truth. An :class:`AnswerModel` is that
function: it maps the exact :class:`~repro.core.measures.RuleStats`
computed from the member's materialized personal database to the stats
the member actually reports.

Models compose (noise, then coarsening, is the realistic pipeline) and
every model preserves the structural invariant ``support ≤ confidence``
so that downstream estimators never see an impossible answer — crowd
members may be vague, but they are not incoherent about conditionals.
A composition passes bare ``(support, confidence)`` pairs between its
stages (:meth:`AnswerModel.report_pair`) and validates one
:class:`~repro.core.measures.RuleStats` at the end.
The deliberately incoherent :class:`SpammerAnswerModel` exists to test
aggregation robustness, and does *not* preserve anything.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro._util import check_nonnegative, clamp01
from repro.core.measures import RuleStats

#: The five-point frequency vocabulary of the papers' crowd UI
#: ("never", "rarely", "sometimes", "often", "very often").
LIKERT5 = (0.0, 0.25, 0.5, 0.75, 1.0)


def coherent_stats(support: float, confidence: float) -> RuleStats:
    """Clamp to [0,1] and restore ``support ≤ confidence``.

    The repair every answer model applies before reporting: whatever
    distortion happened, the reported pair must still be one some
    personal database could produce. Exposed publicly so adversarial
    models (:mod:`repro.faults.adversaries`) fabricate *representable*
    lies — the interesting attacks are the ones the type system cannot
    reject.
    """
    return RuleStats(*_coherent(support, confidence))


def _coherent(support: float, confidence: float) -> tuple[float, float]:
    """:func:`coherent_stats` as a bare pair."""
    support = clamp01(support)
    confidence = clamp01(confidence)
    if support > confidence:
        confidence = support
    return support, confidence


class AnswerModel:
    """Base class: the identity (perfectly accurate) answerer."""

    #: Whether :meth:`report` ever draws from the generator. Models
    #: that never do set this ``False`` so callers can skip per-member
    #: generator construction entirely (the answer streams are
    #: byte-identical either way — nothing is consumed).
    consumes_rng: bool = True
    #: Whether the model draws from state shared across members (a
    #: collusion ring's one generator), so its answers depend on the
    #: order questions reach the whole crowd. A crowd simulates such
    #: answers when the question is issued, never at first read.
    shares_draws: bool = False

    def report(self, stats: RuleStats, rng: np.random.Generator) -> RuleStats:
        """Turn true ``stats`` into reported stats. Base class: identity."""
        return stats

    def report_rule(
        self, rule, stats: RuleStats, rng: np.random.Generator
    ) -> RuleStats:
        """Like :meth:`report`, but told *which* rule is being asked about.

        Honest models do not care what the rule is — only its true
        stats matter — so the default delegates to :meth:`report`.
        Rule-aware models (colluding spammers fabricating a shared
        per-rule profile) override this; the member layer always calls
        through here.
        """
        return self.report(stats, rng)

    def report_pair(
        self, rule, support: float, confidence: float, rng: np.random.Generator
    ) -> tuple[float, float]:
        """:meth:`report_rule` on a bare ``(support, confidence)`` pair.

        The step :class:`ComposedAnswerModel` takes per stage. This
        default wraps the pair in a :class:`RuleStats`, so a model that
        defines only :meth:`report` or :meth:`report_rule` answers as
        it always did; the honest models override it with the same
        arithmetic on floats.
        """
        stats = self.report_rule(rule, RuleStats(support, confidence), rng)
        return stats.support, stats.confidence

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class ExactAnswerModel(AnswerModel):
    """Perfect recall: reports the exact truth. Alias of the base class."""

    consumes_rng = False


class NoisyAnswerModel(AnswerModel):
    """Additive Gaussian perception noise on both components.

    ``sigma`` is the standard deviation of the noise added
    independently to support and confidence before re-coherence. This
    is the σ swept by experiment E3.
    """

    def __init__(self, sigma: float) -> None:
        self.sigma = check_nonnegative(sigma, "sigma")
        self.consumes_rng = self.sigma > 0.0

    def report(self, stats: RuleStats, rng: np.random.Generator) -> RuleStats:
        return RuleStats(*self.report_pair(None, stats.support, stats.confidence, rng))

    def report_pair(
        self, rule, support: float, confidence: float, rng: np.random.Generator
    ) -> tuple[float, float]:
        if self.sigma == 0.0:
            return support, confidence
        # One call for both terms: the same two draws, in order.
        noise_support, noise_confidence = rng.normal(0.0, self.sigma, 2).tolist()
        return _coherent(support + noise_support, confidence + noise_confidence)

    def __repr__(self) -> str:
        return f"NoisyAnswerModel(sigma={self.sigma})"


class LikertAnswerModel(AnswerModel):
    """Coarsening to a fixed frequency vocabulary.

    Members answer by picking the closest of a few labelled
    frequencies ("never" … "very often"), as in the papers' UI; the
    grid defaults to :data:`LIKERT5`.
    """

    consumes_rng = False

    def __init__(self, grid: Sequence[float] = LIKERT5) -> None:
        if len(grid) < 2:
            raise ValueError("a Likert grid needs at least two levels")
        self.grid = np.array(sorted(clamp01(g) for g in grid))
        self._levels = tuple(self.grid.tolist())

    def _snap(self, value: float) -> float:
        # The nearest level, ties to the lower one: ``argmin`` over
        # ``abs(grid - value)``, one float at a time (no array per call).
        levels = self._levels
        best = levels[0]
        best_gap = abs(best - value)
        for level in levels[1:]:
            gap = abs(level - value)
            if gap < best_gap:
                best, best_gap = level, gap
        return best

    def report(self, stats: RuleStats, rng: np.random.Generator) -> RuleStats:
        return RuleStats(*self.report_pair(None, stats.support, stats.confidence, rng))

    def report_pair(
        self, rule, support: float, confidence: float, rng: np.random.Generator
    ) -> tuple[float, float]:
        return _coherent(self._snap(support), self._snap(confidence))

    def __repr__(self) -> str:
        return f"LikertAnswerModel(grid={self.grid.tolist()})"


class ForgetfulAnswerModel(AnswerModel):
    """Systematic under-reporting of frequency (imperfect recall).

    Support is multiplied by a Beta-distributed recall factor with mean
    ``recall``; confidence is left alone (people remember *what* they
    do given the situation better than *how often* the situation
    arose). ``concentration`` controls the spread of the recall factor.
    """

    def __init__(self, recall: float = 0.9, concentration: float = 20.0) -> None:
        if not 0.0 < recall <= 1.0:
            raise ValueError(f"recall must be in (0, 1], got {recall}")
        self.recall = float(recall)
        self.concentration = check_nonnegative(concentration, "concentration")
        self.consumes_rng = self.recall < 1.0

    def report(self, stats: RuleStats, rng: np.random.Generator) -> RuleStats:
        if self.recall == 1.0:
            return stats
        alpha = self.recall * self.concentration
        beta = (1.0 - self.recall) * self.concentration
        factor = float(rng.beta(max(alpha, 1e-9), max(beta, 1e-9)))
        return coherent_stats(stats.support * factor, stats.confidence)

    def __repr__(self) -> str:
        return f"ForgetfulAnswerModel(recall={self.recall})"


class SpammerAnswerModel(AnswerModel):
    """A worker who answers uniformly at random, ignoring the truth.

    Used for aggregation-robustness tests (trimmed means, spammer
    screening). Intentionally does not enforce coherence beyond the
    representational requirement.
    """

    def report(self, stats: RuleStats, rng: np.random.Generator) -> RuleStats:
        a, b = sorted(rng.random(2))
        return RuleStats(float(a), float(b))


class ComposedAnswerModel(AnswerModel):
    """Apply several models in sequence (e.g. forget → noise → Likert)."""

    def __init__(self, stages: Sequence[AnswerModel]) -> None:
        if not stages:
            raise ValueError("composition needs at least one stage")
        self.stages = tuple(stages)
        self.consumes_rng = any(stage.consumes_rng for stage in stages)
        self.shares_draws = any(stage.shares_draws for stage in stages)

    def report(self, stats: RuleStats, rng: np.random.Generator) -> RuleStats:
        for stage in self.stages:
            stats = stage.report(stats, rng)
        return stats

    def report_rule(
        self, rule, stats: RuleStats, rng: np.random.Generator
    ) -> RuleStats:
        """Every stage in turn on bare pairs; one :class:`RuleStats` at the end."""
        return RuleStats(*self.report_pair(rule, stats.support, stats.confidence, rng))

    def report_pair(
        self, rule, support: float, confidence: float, rng: np.random.Generator
    ) -> tuple[float, float]:
        for stage in self.stages:
            support, confidence = stage.report_pair(rule, support, confidence, rng)
        return support, confidence

    def __repr__(self) -> str:
        return f"ComposedAnswerModel({list(self.stages)!r})"


def standard_answer_model(sigma: float = 0.05, likert: bool = True) -> AnswerModel:
    """The default humanlike pipeline: noise, then Likert coarsening.

    Matches the experiments' default member: imprecise perception
    (``sigma``) reported through the five-point vocabulary.
    """
    stages: list[AnswerModel] = [NoisyAnswerModel(sigma)]
    if likert:
        stages.append(LikertAnswerModel())
    return ComposedAnswerModel(stages) if len(stages) > 1 else stages[0]
