"""The latent-ability trust model: coherence, fitting, quarantine.

Three layers pin the ISSUE's acceptance bars:

- unit: the support-antitonicity incoherence statistic (the
  unpoisonable anchor), the clean fast-path contract (exact unit
  trust, version untouched), and the quarantine gates;
- state: a trust shift reopens a settled rule and a recovered member
  produces fresh summaries (the purge/reopen machinery the quality
  loop reuses);
- session: a 30% collusion ring — the regime that poisoned the gold
  loop — gets quarantined with honest members untouched, and the
  counters/histogram surface the story.
"""

import pytest

from repro.core import Rule, RuleStats
from repro.estimation import Thresholds
from repro.estimation.aggregate import DynamicTrustAggregator
from repro.estimation.significance import Decision, SignificanceTest
from repro.estimation.latent import (
    COHERENCE_TOLERANCE,
    SIGMA_TOLERANCE,
    LatentAbilityModel,
)
from repro.faults import build_adversarial_crowd
from repro.miner import CrowdMiner, CrowdMinerConfig
from repro.miner.state import MiningState, RuleOrigin

THRESHOLDS = Thresholds(0.10, 0.5)

# A chain on the rule lattice: GENERAL.body ⊂ SPECIFIC.body, so any
# reported supp(SPECIFIC) > supp(GENERAL) is incoherent. TWIN shares
# SPECIFIC's body through the other antecedent split.
GENERAL = Rule([], ["ginger tea"])
SPECIFIC = Rule(["ginger tea"], ["honey"])
TWIN = Rule(["honey"], ["ginger tea"])


class TestIncoherence:
    def test_monotone_answers_are_coherent(self):
        model = LatentAbilityModel()
        model.observe_answer("m1", GENERAL, RuleStats(0.6, 0.6))
        model.observe_answer("m1", SPECIFIC, RuleStats(0.4, 0.7))
        assert model.incoherence_of("m1") == 0.0

    def test_violation_beyond_margin_counts(self):
        model = LatentAbilityModel()
        model.observe_answer("m1", GENERAL, RuleStats(0.2, 0.4))
        model.observe_answer("m1", SPECIFIC, RuleStats(0.6, 0.8))
        # gap 0.4, margin forgives 0.1, shrunk over 1 pair + 4 prior.
        assert model.incoherence_of("m1") == pytest.approx(0.3 / 5.0)

    def test_small_flip_inside_margin_forgiven(self):
        # Likert coarsening can flip a borderline pair by one step;
        # that must not read as fabrication.
        model = LatentAbilityModel()
        model.observe_answer("m1", GENERAL, RuleStats(0.40, 0.5))
        model.observe_answer("m1", SPECIFIC, RuleStats(0.45, 0.6))
        assert model.incoherence_of("m1") == 0.0

    def test_equal_bodies_must_report_equal_supports(self):
        # SPECIFIC and TWIN share a body, so their supports are the
        # same personal quantity; disagreement is incoherence.
        model = LatentAbilityModel()
        model.observe_answer("m1", SPECIFIC, RuleStats(0.2, 0.5))
        model.observe_answer("m1", TWIN, RuleStats(0.7, 0.9))
        assert model.incoherence_of("m1") == pytest.approx(0.4 / 5.0)

    def test_incomparable_rules_are_no_pairs(self):
        model = LatentAbilityModel()
        model.observe_answer("m1", Rule([], ["a"]), RuleStats(0.9, 0.9))
        model.observe_answer("m1", Rule([], ["b"]), RuleStats(0.1, 0.2))
        assert model.incoherence_of("m1") == 0.0
        ability_pairs = model._pairs.get("m1", 0)
        assert ability_pairs == 0


def feed_clean_matrix(model, n_members=5):
    """Honest-looking answers: everyone near the same per-rule truth."""
    rules = [
        (GENERAL, 0.6),
        (SPECIFIC, 0.4),
        (Rule([], ["camomile"]), 0.3),
        (Rule(["camomile"], ["lemon"]), 0.2),
    ]
    for i in range(n_members):
        offset = 0.02 * (i - n_members // 2)
        for rule, support in rules:
            s = min(1.0, max(0.0, support + offset))
            model.observe_answer(f"m{i}", rule, RuleStats(s, min(1.0, s + 0.3)))


class TestCleanFastPath:
    def test_clean_matrix_keeps_exact_unit_trust(self):
        model = LatentAbilityModel()
        feed_clean_matrix(model)
        changed = model.reestimate()
        assert not changed
        assert model.version == 0  # the aggregator cache token never moves
        for i in range(5):
            assert model.trust(f"m{i}") == 1.0  # exactly — fast-path contract
            ability = model.ability_of(f"m{i}")
            assert ability is not None
            assert ability.incoherence == 0.0
            assert ability.sigma < SIGMA_TOLERANCE
        assert model.quarantine_candidates() == []

    def test_estimates_counter_and_due(self):
        model = LatentAbilityModel(reestimate_every=3)
        assert not model.due()
        model.observe_answer("m1", GENERAL, RuleStats(0.5, 0.6))
        model.observe_answer("m1", SPECIFIC, RuleStats(0.4, 0.6))
        assert not model.due()
        model.observe_malformed("m2")  # malformed strikes count too
        assert model.due()
        assert model.estimates == 0
        model.reestimate()
        assert model.estimates == 1
        assert not model.due()  # counter reset


class TestFabricationIsCaught:
    def feed(self, model):
        feed_clean_matrix(model)
        # The fabricator reports each rule independently: big support
        # on the specific rules, small on their generalizations.
        model.observe_answer("bad", GENERAL, RuleStats(0.1, 0.3))
        model.observe_answer("bad", SPECIFIC, RuleStats(0.9, 0.9))
        model.observe_answer("bad", Rule([], ["camomile"]), RuleStats(0.1, 0.2))
        model.observe_answer(
            "bad", Rule(["camomile"], ["lemon"]), RuleStats(0.8, 0.9)
        )

    def test_incoherent_member_loses_trust_and_version_bumps(self):
        model = LatentAbilityModel()
        self.feed(model)
        before = model.version
        changed = model.reestimate()
        assert changed
        assert model.version > before
        assert model.trust("bad") < 1.0
        assert model.ability_of("bad").incoherence > COHERENCE_TOLERANCE
        for i in range(5):
            assert model.trust(f"m{i}") == 1.0  # honest members untouched

    def test_version_stable_when_nothing_moves(self):
        model = LatentAbilityModel()
        self.feed(model)
        model.reestimate()
        version = model.version
        assert not model.reestimate()  # same matrix, same fit
        assert model.version == version

    def test_quarantine_cycle(self):
        model = LatentAbilityModel(min_answers=4, trust_floor=0.45)
        self.feed(model)
        model.reestimate()
        assert model.should_quarantine("bad")
        assert model.quarantine_candidates() == ["bad"]
        version = model.version
        model.mark_quarantined("bad")
        assert model.version > version  # quarantine invalidates summaries
        assert model.is_quarantined("bad")
        assert model.trust("bad") == 0.0
        assert not model.should_quarantine("bad")  # never twice
        assert model.quarantined == {"bad"}

    def test_min_answers_gates_quarantine(self):
        model = LatentAbilityModel(min_answers=10)
        self.feed(model)
        model.reestimate()
        assert model.trust("bad") < model.trust_floor
        assert not model.should_quarantine("bad")  # only 4 answers on record

    def test_malformed_only_member_is_caught(self):
        model = LatentAbilityModel(min_answers=4)
        feed_clean_matrix(model)
        for _ in range(5):
            model.observe_malformed("garbled")
        model.reestimate()
        ability = model.ability_of("garbled")
        assert ability is not None and ability.malformed == 5
        assert model.trust("garbled") < model.trust_floor
        assert model.should_quarantine("garbled")


class TestParameterValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(Exception):
            LatentAbilityModel(trust_floor=1.5)
        with pytest.raises(Exception):
            LatentAbilityModel(reestimate_every=0)
        with pytest.raises(Exception):
            LatentAbilityModel(min_answers=0)


class MutableTrust:
    """A trust source the test can move between assertions."""

    def __init__(self):
        self.values = {}
        self.version = 0

    def trust(self, member_id):
        return self.values.get(member_id, 1.0)

    def set(self, member_id, value):
        self.values[member_id] = value
        self.version += 1


class TestTrustShiftReopensRules:
    def test_settled_rule_reopens_and_resettles(self):
        source = MutableTrust()
        state = MiningState(
            SignificanceTest(THRESHOLDS),
            aggregator=DynamicTrustAggregator(source),
        )
        members = [f"m{i}" for i in range(4)]
        for member in members:
            state.record_answer(
                GENERAL, member, RuleStats(0.6, 0.8), RuleOrigin.SEED
            )
        knowledge = state.knowledge(GENERAL)
        assert knowledge.decision is Decision.SIGNIFICANT
        assert knowledge not in state.unresolved()

        # Every contributor loses trust: the settled decision rests on
        # evidence that no longer carries weight, so the rule reopens.
        for member in members:
            source.set(member, 0.0)
        changed = state.reassess_trust_shift()
        assert changed == 1
        assert knowledge.decision is Decision.UNDECIDED
        assert knowledge.rule in {k.rule for k in state.unresolved()}
        assert state.summary_for(knowledge).n == 0  # no weighted evidence

        # Trust restored (the recovery path): fresh summaries see the
        # full evidence again and the rule re-settles without re-asking.
        for member in members:
            source.set(member, 1.0)
        assert state.reassess_trust_shift() == 1
        assert knowledge.decision is Decision.SIGNIFICANT
        assert state.summary_for(knowledge).n == 4

    def test_partial_purge_then_recovery_gives_fresh_summaries(self):
        source = MutableTrust()
        state = MiningState(
            SignificanceTest(THRESHOLDS),
            aggregator=DynamicTrustAggregator(source),
        )
        for member in ("good1", "good2", "good3"):
            state.record_answer(
                GENERAL, member, RuleStats(0.6, 0.8), RuleOrigin.SEED
            )
        state.record_answer(GENERAL, "shaky", RuleStats(0.2, 0.6), RuleOrigin.SEED)
        knowledge = state.knowledge(GENERAL)
        source.set("shaky", 0.1)
        down = state.summary_for(knowledge)
        source.set("shaky", 1.0)
        up = state.summary_for(knowledge)  # fresh summary, not the cached one
        assert down.n == up.n == 4
        # Down-weighting the dissenting member pulls the mean toward
        # the majority; restoring their trust pulls it back.
        assert down.mean[0] > up.mean[0]


class TestLatentCollusionSession:
    @pytest.fixture
    def colluded(self, folk_population):
        crowd, roles = build_adversarial_crowd(
            folk_population, (("colluder", 0.3),), seed=5
        )
        config = CrowdMinerConfig(
            thresholds=THRESHOLDS, budget=400, seed=6, quarantine=True
        )
        miner = CrowdMiner(crowd, config)
        miner.run()
        return miner, roles

    def test_colluders_quarantined_without_honest_casualties(self, colluded):
        miner, roles = colluded
        assert miner.latent is not None
        quarantined = miner.latent.quarantined
        colluders = {mid for mid, role in roles.items() if role == "colluder"}
        assert quarantined, "no member quarantined under a 30% collusion ring"
        # The coherence anchor is computed from each member's own
        # answers, so honest members cannot be framed: every catch
        # must be a colluder.
        assert quarantined <= colluders
        assert len(quarantined) / len(colluders) >= 0.5

    def test_quarantined_evidence_is_purged_and_not_routed(self, colluded):
        miner, _ = colluded
        quarantined = miner.latent.quarantined
        for knowledge in miner.state.rules():
            assert not (set(knowledge.samples.member_ids) & quarantined)
        assert not (set(miner.crowd.available_members()) & quarantined)

    def test_counters_and_histogram_tell_the_story(self, colluded):
        miner, _ = colluded
        snapshot = miner.obs.snapshot()
        assert snapshot.counters.get("quality.reestimates", 0) > 0
        assert snapshot.counters.get("quality.quarantined", 0) == len(
            miner.latent.quarantined
        )
        assert "quality.ability" in snapshot.histograms
