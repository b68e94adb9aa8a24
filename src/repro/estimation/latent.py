"""Latent-ability worker trust: joint member/truth estimation, no gold.

A gold-probe quality loop scores each member against the *crowd
aggregate* of a settled rule. That reference is exactly what a
collusion ring poisons: once enough fabricated rules settle, honest
members fail probes on them, get quarantined, and their purged
evidence amplifies the colluders — the net-negative regime the
historical gold rows of EXPERIMENTS.md E8-R measured. The cure,
standard in the truth-inference literature (Dawid–Skene and its
continuous-response descendants), is to stop trusting any single
reference and instead *jointly* estimate per-member ability and
per-rule latent truth from the full answer matrix. There is no gold
to poison: a member is judged
by how well their answers fit the truth implied by *everyone's*
answers under the fitted ability weights, and colluders lose that
argument as long as they are not the self-consistent majority.

The model, on the support/confidence plane:

- each rule ``r`` has a latent truth ``t_r ∈ [0, 1]²`` (the crowd-mean
  support and confidence the miner wants) and a latent **difficulty**
  ``τ_r`` — the legitimate member-to-member scatter on that rule
  (habits differ: a rule half the crowd lives by and half has never
  heard of has honest answers a long way apart);
- each member ``m`` has a latent ability: a systematic **bias**
  ``b_m ∈ R²`` and a *relative* **noise scale** ``σ_m``; their answer
  to rule ``r`` is modelled as ``x_mr = t_r + b_m + ε`` with
  ``ε ~ N(0, σ_m² τ_r² I)``.

The rule-difficulty axis is what makes the member axis identifiable
on heterogeneous domains: an honest member whose personal habits sit
far from the crowd mean has large residuals only on rules where
*everyone* scatters (large ``τ_r``), so their relative ``σ_m`` stays
near 1 — while a spammer or colluder is wrong even on the rules the
honest crowd agrees tightly about, which no amount of per-rule scale
can excuse.

Estimation alternates the conditional maximizations (an EM /
coordinate-ascent scheme; with Gaussian noise each step is the exact
Newton–Raphson solution of its subproblem):

- **truth step** — ``t_r`` is the precision-weighted mean of the
  bias-corrected answers, weights ``1 / (σ_m² τ_r²)``;
- **difficulty step** — ``τ_r²`` is the shrunk mean of the rule's
  squared residuals, each standardized by its author's ``σ_m²``;
- **ability step** — ``b_m`` is the shrunk mean residual of member
  ``m``'s answers against the current truths, and ``σ_m²`` the shrunk
  mean of their squared residuals standardized by ``τ_r²``, with a
  pseudo-count prior pulling toward the honest profile (``b = 0``,
  ``σ = 1``) so thin records are not over-read.

Joint estimation alone has a known failure mode: it rewards
*self-consistency*, and a tight collusion ring is more self-consistent
than a heterogeneous honest crowd. Near 50% collusion the EM race can
tip — the fitted truths converge on the fabricated cluster and honest
members read as the noisy ones. The model therefore anchors the fit on
a signal no majority can poison, because it is computed from each
member's *own* answers in isolation: **support antitonicity on the
rule lattice**. Support is antitone in the rule body, so a member
reporting higher support for a more specific rule than for its
generalization is inconsistent with every possible personal database.
Honest members — answering from one coherent set of habits — respect
this by construction; colluders and spammers fabricate each rule's
statistics independently and violate it on roughly half of their
comparable pairs. Each member's mean violation (their *incoherence*)
sets a floor on their noise scale inside the fit, so fabricated answer
mass enters the truth step pre-discounted and the honest cluster wins
the race at any collusion fraction, and feeds the trust score
directly.

The dynamics then do the rest: whichever group's answers are more
self-consistent *around the anchored truths* earns precision, pulls
the truths further toward itself, and grows the other group's relative
residuals — without a single gold question spent or poisoned.

The same antitonicity pass feeds **spammer screening**: with
``screen=True`` a member's trust is also multiplied by a factor that
decays with their *raw* mean violation (no margin, no prior), so a
member who fabricates statistics loses weight from their first few
comparable pairs, before any re-estimation. Screening only weights;
quarantine reads the fitted trust alone.

:class:`LatentAbilityModel` implements the trust-source protocol
(``trust`` + ``version`` for :class:`~repro.estimation.aggregate
.DynamicTrustAggregator`) plus the quarantine surface; the miner
installs it behind ``CrowdMinerConfig(screen_spammers=True)`` or
``CrowdMinerConfig(quarantine=True)``, and re-estimates and
quarantines only under the latter.
Everything is a deterministic pure function of the observed answer
stream — no randomness — so seeded sessions replay byte-identically.

The clean-session contract carries over: a member whose posterior
ability stays inside the honest tolerances has trust of exactly
``1.0``, keeping the aggregator on its exact streaming fast path and
adversary-free quality-enabled sessions byte-identical to quality-off
ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import check_fraction, check_positive
from repro.core.measures import RuleStats
from repro.core.rule import Rule


@dataclass(frozen=True, slots=True)
class MemberAbility:
    """One member's posterior ability after the latest re-estimation."""

    #: Posterior *relative* noise scale: 1.0 = typical honest scatter
    #: for the rules answered, larger = noisier than the crowd can
    #: explain by rule difficulty alone.
    sigma: float
    #: Posterior systematic bias on (support, confidence).
    bias: tuple[float, float]
    #: Parsed answers in the matrix when the estimate was made.
    answers: int
    #: Malformed strikes accumulated when the estimate was made.
    malformed: int
    #: Shrunk mean support-antitonicity violation *beyond the margin*
    #: over the member's own comparable rule pairs (0.0 = coherent;
    #: honest noise/Likert flips stay near zero because the margin
    #: forgives them; fabricated statistics land well above 0.05).
    incoherence: float = 0.0
    #: Comparable (subset-ordered or equal-body) rule pairs the
    #: incoherence mean is taken over.
    comparable_pairs: int = 0

    @property
    def bias_magnitude(self) -> float:
        """The larger per-component |bias|."""
        return max(abs(self.bias[0]), abs(self.bias[1]))


#: Posterior *relative* noise scale forgiven entirely. 1.0 is "typical
#: honest scatter for the rules answered", but the fit's own sampling
#: wobble (few answers per member, heterogeneous habits, thin early
#: matrices) legitimately puts honest members several times above it,
#: so the value is deliberately loose — the scale axis is a backstop for
#: egregious noise; the coherence axis is the discriminating one
#: (adversaries who fabricate statistics show up there long before
#: their fitted scale does).
SIGMA_TOLERANCE = 8.0
#: Posterior |bias| per component forgiven entirely. Honest personal
#: habits legitimately sit a few tenths from the crowd mean (that is
#: heterogeneity, not dishonesty), so the value is loose — the bias
#: term mainly *explains* honest offsets so they do not inflate the
#: member's noise scale.
BIAS_TOLERANCE = 0.5
#: Malformed-answer *rate* forgiven entirely (a member who only ever
#: sends garbage must still lose trust despite having no parsed answers
#: to fit).
MALFORMED_TOLERANCE = 0.25
#: Per-pair violation magnitude forgiven before anything is tallied.
#: Honest members violate antitonicity only through answer noise and
#: Likert coarsening on borderline pairs (exact-model members never
#: do), and those flips are bounded — about one Likert step; fabricated
#: statistics overshoot the margin routinely and by a lot.
COHERENCE_MARGIN = 0.1
#: Pseudo-pairs added to the denominator of the incoherence mean, so
#: one unlucky violation on a thin record (a handful of comparable
#: pairs) cannot condemn a member by itself.
COHERENCE_PRIOR = 4.0
#: Shrunk beyond-margin mean violation forgiven entirely. Honest members
#: sit at (or within rounding of) zero under the margin; fabricated
#: statistics land several times higher.
COHERENCE_TOLERANCE = 0.05
#: Converts incoherence beyond the tolerance (support units, so small
#: numbers) into the common excess scale shared with the
#: sigma/bias/malformed terms.
COHERENCE_WEIGHT = 12.0
#: How hard incoherence floors a member's noise scale *inside* the fit:
#: the floor is ``1 + ANCHOR_GAIN · excess_incoherence``. This is what
#: breaks the 50%-collusion symmetry — a tight ring is more
#: self-consistent than an honest crowd, but its members enter the
#: truth step pre-discounted and can never win the precision race.
ANCHOR_GAIN = 20.0
#: Trust decay speed past the tolerances: trust is
#: ``1 / (1 + SEVERITY · excess)``.
SEVERITY = 6.0
#: The prior per-rule difficulty (absolute standard deviation; one
#: quarter of a Likert step), toward which thin rules shrink.
PRIOR_TAU = 0.12
#: The pseudo-count weight of both shrinkage priors — a member with
#: ``n`` fitted answers has their ability pulled toward ``(b=0, σ=1)``
#: with weight ``PRIOR_STRENGTH / (n + PRIOR_STRENGTH)``, so nobody is
#: condemned on two answers.
PRIOR_STRENGTH = 6.0
#: Coordinate-ascent budget per re-estimation; iteration stops early
#: once no truth component moves more than ``CONVERGENCE_TOL``.
MAX_ITERATIONS = 12
CONVERGENCE_TOL = 1e-6
#: Raw mean violation screening forgives entirely. Honest members
#: violate rarely and mildly (noise and Likert coarsening on borderline
#: pairs), so their mean stays small even though one violation can
#: reach a grid step; random answerers violate on roughly half of their
#: comparable pairs.
SCREEN_TOLERANCE = 0.05
#: How fast the screening factor decays past its tolerance: the factor
#: is ``1 / (1 + SCREEN_SEVERITY · excess)``. A raw mean of 0.10, twice
#: the tolerance, halves a member's weight; a uniform random answerer's
#: (about 1/6 on subset-ordered pairs) cuts it to about 0.3.
SCREEN_SEVERITY = 20.0


class LatentAbilityModel:
    """Joint member-ability / rule-truth estimation as a trust source.

    The tolerances, priors and solver budget are the module constants
    above; the four parameters are the ones a session configures.

    Parameters
    ----------
    trust_floor:
        Trust below which :meth:`should_quarantine` turns true.
    min_answers:
        Minimum observed answers (malformed strikes included) before
        quarantine may trigger.
    reestimate_every:
        Observations between re-estimations (answer-count driven, so
        deterministic under replay; the miner calls
        :meth:`due` / :meth:`reestimate` from its ingest path).
    screen:
        Multiply trust by the screening factor of the member's raw
        mean violation (spammer screening).
    """

    def __init__(
        self,
        trust_floor: float = 0.45,
        min_answers: int = 4,
        reestimate_every: int = 10,
        screen: bool = False,
    ) -> None:
        check_fraction(trust_floor, "trust_floor")
        self.trust_floor = float(trust_floor)
        self.min_answers = check_positive(min_answers, "min_answers")
        self.reestimate_every = check_positive(reestimate_every, "reestimate_every")
        self.screen = bool(screen)
        # The answer matrix: member → rule → latest parsed
        # ``(support, confidence)`` pair. A member revising a rule
        # overwrites their cell, matching the one-observation-per-member
        # contract of RuleSamples.
        self._answers: dict[str, dict[Rule, tuple[float, float]]] = {}
        self._malformed: dict[str, int] = {}
        # The coherence tallies: running support-antitonicity violation
        # totals over each member's own comparable rule pairs, updated
        # incrementally as answers arrive (each new answer is compared
        # against the member's existing cells once). The fit reads the
        # violation beyond the margin, screening the raw violation.
        self._violation: dict[str, float] = {}
        self._raw_violation: dict[str, float] = {}
        self._pairs: dict[str, int] = {}
        self._quarantined: set[str] = set()
        # Posterior state from the latest re-estimation. Members absent
        # from _trust are at the honest default of exactly 1.0.
        self._trust: dict[str, float] = {}
        self._ability: dict[str, MemberAbility] = {}
        self._since_estimate = 0
        self._estimates = 0
        #: Monotonic change counter — the trust-source cache token read
        #: by :class:`~repro.estimation.aggregate.DynamicTrustAggregator`.
        #: Bumped when a re-estimation (or quarantine) actually moves
        #: some member's trust, so clean sessions keep their cached
        #: aggregate summaries; with screening on, also on every
        #: observed answer, which may move the member's raw mean.
        self.version = 0

    # -- recording ------------------------------------------------------------

    def observe_answer(self, member_id: str, rule: Rule, stats: RuleStats) -> None:
        """Record one counted closed answer into the matrix.

        Before the cell is written, the answer is scored against every
        *comparable* rule the member answered before: support is
        antitone in the rule body, so for bodies ``general ⊂
        specific`` any reported ``supp(specific) − supp(general)``
        above zero is impossible under a coherent personal database,
        and equal bodies must report equal supports. The running
        violation means are the member's incoherence and, raw, their
        screening score.
        """
        cells = self._answers.setdefault(member_id, {})
        body = rule.body
        violation = self._violation.get(member_id, 0.0)
        raw_violation = self._raw_violation.get(member_id, 0.0)
        pairs = self._pairs.get(member_id, 0)
        support = stats.support
        for other_rule, (other_support, _) in cells.items():
            other_body = other_rule.body
            if body < other_body:
                gap = other_support - support
            elif other_body < body:
                gap = support - other_support
            elif body == other_body and other_rule != rule:
                gap = abs(support - other_support)
            else:
                continue
            pairs += 1
            # Only the magnitude beyond the margin counts for the fit:
            # honest noise/Likert flips are bounded and land inside it.
            violation += max(0.0, gap - COHERENCE_MARGIN)
            raw_violation += max(0.0, gap)
        self._violation[member_id] = violation
        self._raw_violation[member_id] = raw_violation
        self._pairs[member_id] = pairs
        cells[rule] = (support, stats.confidence)
        self._since_estimate += 1
        if self.screen:
            self.version += 1

    def incoherence_of(self, member_id: str) -> float:
        """Shrunk beyond-margin violation mean over comparable pairs."""
        pairs = self._pairs.get(member_id, 0)
        if pairs == 0:
            return 0.0
        return self._violation[member_id] / (pairs + COHERENCE_PRIOR)

    def violation_score(self, member_id: str) -> float:
        """Raw violation mean over comparable pairs (screening's score)."""
        pairs = self._pairs.get(member_id, 0)
        if pairs == 0:
            return 0.0
        return self._raw_violation[member_id] / pairs

    def observe_malformed(self, member_id: str) -> None:
        """Record one unparseable reply (a strike with no coordinates)."""
        self._malformed[member_id] = self._malformed.get(member_id, 0) + 1
        self._since_estimate += 1

    def answers_observed(self, member_id: str) -> int:
        """Observations on record for the member (malformed included)."""
        return len(self._answers.get(member_id, ())) + self._malformed.get(
            member_id, 0
        )

    # -- estimation -----------------------------------------------------------

    def due(self) -> bool:
        """True when enough observations accumulated for a re-estimation."""
        return self._since_estimate >= self.reestimate_every

    @property
    def estimates(self) -> int:
        """Re-estimations run so far."""
        return self._estimates

    def reestimate(self) -> bool:
        """Re-fit abilities and truths; returns True when trust moved.

        Deterministic: members and rules enter the solver in sorted
        order, and the fit is a pure function of the matrix.
        """
        self._since_estimate = 0
        self._estimates += 1
        abilities = self._fit()
        changed = False
        trust_after: dict[str, float] = {}
        for member_id, ability in abilities.items():
            self._ability[member_id] = ability
            trust = self._trust_from(ability)
            if trust != 1.0:
                trust_after[member_id] = trust
        if trust_after != self._trust:
            changed = True
            self._trust = trust_after
            self.version += 1
        return changed

    def _fit(self) -> dict[str, MemberAbility]:
        """One full coordinate-ascent fit over the current matrix."""
        members = sorted(self._answers)
        member_index = {m: i for i, m in enumerate(members)}
        rule_order: dict[Rule, int] = {}
        rows: list[int] = []
        cols: list[int] = []
        values: list[tuple[float, float]] = []
        for member_id in members:
            cells = self._answers[member_id]
            for rule in sorted(cells, key=Rule.sort_key):
                index = rule_order.setdefault(rule, len(rule_order))
                rows.append(member_index[member_id])
                cols.append(index)
                values.append(cells[rule])
        abilities: dict[str, MemberAbility] = {}
        if values:
            incoherence = np.array(
                [self.incoherence_of(member_id) for member_id in members]
            )
            sigma, bias = self._solve(
                np.array(rows),
                np.array(cols),
                np.array(values),
                n_members=len(members),
                n_rules=len(rule_order),
                incoherence=incoherence,
            )
            for member_id, i in member_index.items():
                abilities[member_id] = MemberAbility(
                    sigma=float(sigma[i]),
                    bias=(float(bias[i, 0]), float(bias[i, 1])),
                    answers=len(self._answers[member_id]),
                    malformed=self._malformed.get(member_id, 0),
                    incoherence=float(incoherence[i]),
                    comparable_pairs=self._pairs.get(member_id, 0),
                )
        # Members with only malformed strikes never reach the solver
        # but still need an ability record (the garbled-member case).
        for member_id in sorted(self._malformed):
            if member_id not in abilities:
                abilities[member_id] = MemberAbility(
                    sigma=1.0,
                    bias=(0.0, 0.0),
                    answers=0,
                    malformed=self._malformed[member_id],
                )
        return abilities

    def _solve(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        x: np.ndarray,
        n_members: int,
        n_rules: int,
        incoherence: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The alternating truth/difficulty/ability updates on the matrix."""
        answers_per_rule = np.bincount(cols, minlength=n_rules)
        # Residuals against a rule only one member answered are zero by
        # construction (the truth *is* that answer); excluding them
        # keeps lone answers from deflating the scale estimates.
        fit_mask = answers_per_rule[cols] >= 2
        fit_counts = np.bincount(
            rows[fit_mask], minlength=n_members
        ).astype(float)
        rule_fit_counts = np.bincount(
            cols[fit_mask], minlength=n_rules
        ).astype(float)
        prior_tau2 = PRIOR_TAU**2
        # The coherence anchor: a member's noise scale is floored by
        # their own antitonicity violations, so fabricated answer mass
        # enters every truth step pre-discounted. Without this floor
        # the fit rewards raw self-consistency and a tight collusion
        # ring out-competes a heterogeneous honest crowd near 50%.
        anchor2 = (
            1.0
            + ANCHOR_GAIN * np.maximum(0.0, incoherence - COHERENCE_TOLERANCE)
        ) ** 2
        sigma2 = anchor2.copy()  # relative: 1 = typical honest
        tau2 = np.full(n_rules, prior_tau2)  # absolute per-rule scatter
        bias = np.zeros((n_members, 2))
        truth = np.zeros((n_rules, 2))
        member_denom = fit_counts + PRIOR_STRENGTH
        rule_denom = rule_fit_counts + PRIOR_STRENGTH
        for _ in range(MAX_ITERATIONS):
            # Truth step: precision-weighted mean of bias-corrected
            # answers. The small ridge keeps weights finite when a
            # member's residuals collapse to zero.
            w = 1.0 / (sigma2[rows] * tau2[cols] + 1e-8)
            corrected = x - bias[rows]
            total_w = np.bincount(cols, weights=w, minlength=n_rules)
            new_truth = np.stack(
                [
                    np.bincount(cols, weights=w * corrected[:, 0], minlength=n_rules),
                    np.bincount(cols, weights=w * corrected[:, 1], minlength=n_rules),
                ],
                axis=1,
            ) / total_w[:, None]
            shift = float(np.max(np.abs(new_truth - truth))) if n_rules else 0.0
            truth = new_truth
            # Bias step: shrunk mean residual, multi-answer rules only.
            residual = x - truth[cols]
            bias = (
                np.stack(
                    [
                        np.bincount(
                            rows[fit_mask],
                            weights=residual[fit_mask, 0],
                            minlength=n_members,
                        ),
                        np.bincount(
                            rows[fit_mask],
                            weights=residual[fit_mask, 1],
                            minlength=n_members,
                        ),
                    ],
                    axis=1,
                )
                / member_denom[:, None]
            )
            centred = residual - bias[rows]
            squared = np.sum(centred**2, axis=1) / 2.0
            # Difficulty step: mean squared residual per rule,
            # standardized by each author's relative skill, shrunk
            # toward the prior scatter.
            tau2 = (
                np.bincount(
                    cols[fit_mask],
                    weights=squared[fit_mask] / sigma2[rows[fit_mask]],
                    minlength=n_rules,
                )
                + PRIOR_STRENGTH * prior_tau2
            ) / rule_denom
            tau2 = np.maximum(tau2, 1e-6)
            # Ability step: *median* standardized squared residual per
            # member, shrunk toward honest 1. The median is the robust
            # part: an honest member whose personal habits put a few
            # answers far from the crowd mean has a handful of huge
            # residuals but a typical one near 1, while a spammer or
            # colluder is wrong on *most* rules — exactly what the
            # median separates. (Mean scoring condemns legitimate
            # minority-habit members on heterogeneous domains.)
            # ln 2 is the median of the squared-residual statistic
            # under the model (χ²₂/2), so honest medians centre on 1.
            std_sq = squared / tau2[cols]
            typical = np.ones(n_members)
            for i in range(n_members):
                values = std_sq[fit_mask & (rows == i)]
                if values.size:
                    typical[i] = float(np.median(values)) / float(np.log(2.0))
            sigma2 = (
                fit_counts * typical + PRIOR_STRENGTH * 1.0
            ) / member_denom
            sigma2 = np.maximum(sigma2, anchor2)
            if shift <= CONVERGENCE_TOL:
                break
        return np.sqrt(sigma2), bias

    # -- the trust-source protocol --------------------------------------------

    def _trust_from(self, ability: MemberAbility) -> float:
        """Map a posterior ability to a trust weight in ``(0, 1]``."""
        # The coherence term is the unpoisonable one: it is computed
        # from the member's own answers alone, so no fabricated
        # majority can shift it. Honest members sit at (or within
        # tolerance of) zero and keep exact unit trust.
        excess = COHERENCE_WEIGHT * max(
            0.0, ability.incoherence - COHERENCE_TOLERANCE
        )
        excess += max(0.0, ability.sigma - SIGMA_TOLERANCE)
        excess += max(0.0, ability.bias_magnitude - BIAS_TOLERANCE)
        observed = ability.answers + ability.malformed
        if observed > 0:
            malformed_rate = ability.malformed / observed
            excess += max(0.0, malformed_rate - MALFORMED_TOLERANCE)
        if excess == 0.0:
            return 1.0
        return 1.0 / (1.0 + SEVERITY * excess)

    def trust(self, member_id: str) -> float:
        """Trust weight in ``(0, 1]``; exactly 1.0 for honest-fitting members.

        With screening on, the fitted trust times the screening factor
        of the member's :meth:`violation_score`. 0.0 once quarantined.
        """
        if member_id in self._quarantined:
            return 0.0
        fitted = self._trust.get(member_id, 1.0)
        if not self.screen:
            return fitted
        excess = max(0.0, self.violation_score(member_id) - SCREEN_TOLERANCE)
        return 1.0 / (1.0 + SCREEN_SEVERITY * excess) * fitted

    def ability_of(self, member_id: str) -> MemberAbility | None:
        """The member's latest posterior ability (``None`` before any fit)."""
        return self._ability.get(member_id)

    def abilities(self) -> list[tuple[str, MemberAbility]]:
        """All posterior abilities from the latest fit, sorted by member."""
        return sorted(self._ability.items())

    # -- quarantine -----------------------------------------------------------

    def should_quarantine(self, member_id: str) -> bool:
        """True when the member's posterior ability warrants exile.

        Reads the fitted trust alone: screening lowers a member's
        weight but never exiles them.
        """
        if member_id in self._quarantined:
            return False
        if self.answers_observed(member_id) < self.min_answers:
            return False
        return self._trust.get(member_id, 1.0) < self.trust_floor

    def quarantine_candidates(self) -> list[str]:
        """Members due for quarantine after the latest re-estimation.

        Sorted for deterministic sweep order.
        """
        return sorted(
            member_id
            for member_id in self._trust
            if self.should_quarantine(member_id)
        )

    def mark_quarantined(self, member_id: str) -> None:
        """Record the quarantine decision (trust pinned to 0)."""
        self._quarantined.add(member_id)
        self.version += 1

    def is_quarantined(self, member_id: str) -> bool:
        """True when the member has been quarantined."""
        return member_id in self._quarantined

    @property
    def quarantined(self) -> set[str]:
        """Members quarantined so far (a copy)."""
        return set(self._quarantined)

    def __repr__(self) -> str:
        return (
            f"LatentAbilityModel({len(self._answers)} members, "
            f"{self._estimates} estimates, "
            f"{len(self._quarantined)} quarantined)"
        )
