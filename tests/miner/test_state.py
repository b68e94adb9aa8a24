"""Tests for the mining knowledge base."""

import numpy as np
import pytest

from repro.core import Rule, RuleStats
from repro.estimation import (
    Decision,
    DynamicTrustAggregator,
    LatentAbilityModel,
    SignificanceTest,
    Thresholds,
)
from repro.miner import MiningState, RuleIndex, RuleOrigin


def make_state(**kwargs):
    test = SignificanceTest(Thresholds(0.2, 0.5), min_samples=3)
    return MiningState(test, **kwargs)


def feed(state, rule, values, origin=RuleOrigin.SEED):
    for i, (s, c) in enumerate(values):
        state.record_answer(rule, f"u{i}", RuleStats(s, c), origin)


class TestBookkeeping:
    def test_add_rule_idempotent(self):
        state = make_state()
        rule = Rule(["a"], ["b"])
        k1 = state.add_rule(rule, RuleOrigin.SEED)
        k2 = state.add_rule(rule, RuleOrigin.OPEN_ANSWER)
        assert k1 is k2
        assert k1.origin is RuleOrigin.SEED
        assert len(state) == 1

    def test_prior_promise_keeps_maximum(self):
        state = make_state()
        rule = Rule(["a"], ["b"])
        state.add_rule(rule, RuleOrigin.LATTICE, prior_promise=0.45)
        state.add_rule(rule, RuleOrigin.OPEN_ANSWER, prior_promise=0.7)
        assert state.knowledge(rule).prior_promise == 0.7

    def test_unresolved_initially(self):
        state = make_state()
        state.add_rule(Rule(["a"], ["b"]), RuleOrigin.SEED)
        assert len(state.unresolved()) == 1

    def test_known_rule_set(self):
        state = make_state()
        rule = Rule(["a"], ["b"])
        state.add_rule(rule, RuleOrigin.SEED)
        assert state.known_rule_set() == {rule}


class TestClassification:
    def test_strong_evidence_decides_significant(self):
        state = make_state()
        rule = Rule(["a"], ["b"])
        feed(state, rule, [(0.5, 0.8), (0.55, 0.9), (0.6, 0.85), (0.5, 0.8)])
        assert state.knowledge(rule).decision is Decision.SIGNIFICANT

    def test_weak_evidence_decides_insignificant(self):
        state = make_state()
        rule = Rule(["a"], ["b"])
        feed(state, rule, [(0.0, 0.0), (0.01, 0.02), (0.0, 0.01), (0.02, 0.04)])
        assert state.knowledge(rule).decision is Decision.INSIGNIFICANT

    def test_uncertainty_zero_once_resolved(self):
        state = make_state()
        rule = Rule(["a"], ["b"])
        feed(state, rule, [(0.5, 0.8)] * 5)
        assert state.knowledge(rule).uncertainty == 0.0

    def test_uncertainty_half_with_no_evidence(self):
        state = make_state()
        k = state.add_rule(Rule(["a"], ["b"]), RuleOrigin.SEED)
        assert k.uncertainty == 0.5


class TestLatticePropagation:
    def test_support_dead_general_condemns_specializations(self):
        state = make_state()
        general = Rule(["a"], ["b"])
        specific = Rule(["a", "c"], ["b"])
        state.add_rule(specific, RuleOrigin.SEED)
        feed(state, general, [(0.0, 0.0)] * 4)
        k = state.knowledge(specific)
        assert k.decision is Decision.INSIGNIFICANT
        assert k.inferred
        assert state.inferred_classifications == 1

    def test_new_rule_inherits_insignificance(self):
        state = make_state()
        general = Rule(["a"], ["b"])
        feed(state, general, [(0.0, 0.0)] * 4)
        k = state.add_rule(Rule(["a", "c"], ["b"]), RuleOrigin.LATTICE)
        assert k.decision is Decision.INSIGNIFICANT
        assert k.inferred

    def test_confidence_insignificance_does_not_propagate(self):
        # High support, low confidence: the rule is insignificant but
        # NOT support-dead, so specializations stay open.
        state = make_state()
        general = Rule(["a"], ["b"])
        specific = Rule(["a", "c"], ["b"])
        state.add_rule(specific, RuleOrigin.SEED)
        feed(state, general, [(0.4, 0.41), (0.45, 0.45), (0.4, 0.42), (0.42, 0.44)])
        assert state.knowledge(general).decision is Decision.INSIGNIFICANT
        assert state.knowledge(specific).decision is Decision.UNDECIDED

    def test_pruning_can_be_disabled(self):
        state = make_state(lattice_pruning=False)
        general = Rule(["a"], ["b"])
        specific = Rule(["a", "c"], ["b"])
        state.add_rule(specific, RuleOrigin.SEED)
        feed(state, general, [(0.0, 0.0)] * 4)
        assert state.knowledge(specific).decision is Decision.UNDECIDED

    def test_direct_evidence_overrides_inferred(self):
        state = make_state()
        general = Rule(["a"], ["b"])
        specific = Rule(["a", "c"], ["b"])
        state.add_rule(specific, RuleOrigin.SEED)
        feed(state, general, [(0.0, 0.0)] * 4)
        assert state.knowledge(specific).inferred
        # Strong direct evidence contradicts the inference (odd but
        # possible with noisy crowds) and wins.
        feed(state, specific, [(0.6, 0.9)] * 5)
        k = state.knowledge(specific)
        assert k.decision is Decision.SIGNIFICANT
        assert not k.inferred


class TestReporting:
    def test_decided_mode_only_settled(self):
        state = make_state()
        decided = Rule(["a"], ["b"])
        pending = Rule(["x"], ["y"])
        feed(state, decided, [(0.5, 0.8)] * 4)
        feed(state, pending, [(0.5, 0.8)] * 2)  # below min_samples
        reported = state.significant_rules(mode="decided")
        assert decided in reported
        assert pending not in reported

    def test_point_mode_requires_min_samples(self):
        state = make_state()
        pending = Rule(["x"], ["y"])
        feed(state, pending, [(0.5, 0.8)] * 2)
        assert pending not in state.significant_rules(mode="point")
        # Two more *distinct* members (the feed helper restarts ids).
        state.record_answer(pending, "u10", RuleStats(0.3, 0.55), RuleOrigin.SEED)
        state.record_answer(pending, "u11", RuleStats(0.3, 0.55), RuleOrigin.SEED)
        point = state.significant_rules(mode="point")
        assert pending in point

    def test_reported_stats_are_estimates(self):
        state = make_state()
        rule = Rule(["a"], ["b"])
        feed(state, rule, [(0.4, 0.8), (0.6, 0.9), (0.5, 0.85), (0.5, 0.85)])
        stats = state.significant_rules()[rule]
        assert stats.support == pytest.approx(0.5)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            make_state().significant_rules(mode="wild")


class TestRuleIndex:
    def test_generalization_candidates_by_body_subset(self):
        index = RuleIndex()
        rules = [
            Rule(["a"], ["b"]),
            Rule(["b"], ["a"]),  # same body, different split
            Rule(["a", "c"], ["b"]),
            Rule(["x"], ["y"]),
        ]
        for rule in rules:
            index.add(rule)
        probe = Rule(["a", "c"], ["b"])
        found = set(index.generalization_candidates(probe))
        # Candidates are filtered on bodies only: both splits of {a, b}
        # qualify, the probe itself qualifies, the unrelated rule not.
        assert found == {rules[0], rules[1], rules[2]}

    def test_specialization_candidates_by_body_superset(self):
        index = RuleIndex()
        rules = [
            Rule(["a"], ["b"]),
            Rule(["a", "c"], ["b"]),
            Rule(["a"], ["b", "d"]),
            Rule(["x"], ["y"]),
        ]
        for rule in rules:
            index.add(rule)
        found = set(index.specialization_candidates(Rule(["a"], ["b"])))
        assert found == {rules[0], rules[1], rules[2]}

    def test_missing_item_short_circuits(self):
        index = RuleIndex()
        index.add(Rule(["a"], ["b"]))
        assert list(index.specialization_candidates(Rule(["a"], ["z"]))) == []

    def test_large_body_falls_back_to_postings(self):
        # Bodies past the subset-enumeration limit take the posting-scan
        # path; both paths must agree with a brute-force subset check.
        index = RuleIndex()
        wide = Rule([f"i{k}" for k in range(11)], ["t"])  # body size 12
        narrow = Rule(["i0", "i1"], ["t"])
        other = Rule(["i0"], ["z"])
        for rule in (wide, narrow, other):
            index.add(rule)
        assert set(index.generalization_candidates(wide)) == {wide, narrow}
        assert set(index.specialization_candidates(narrow)) == {wide, narrow}


class TestIndexedLatticeQueries:
    def test_known_generalizations_respect_split_order(self):
        state = make_state()
        target = Rule(["a", "c"], ["b"])
        comparable = Rule(["a"], ["b"])
        incomparable = Rule(["b"], ["a"])  # same body as comparable
        for rule in (target, comparable, incomparable):
            state.add_rule(rule, RuleOrigin.SEED)
        found = {k.rule for k in state.known_generalizations(target)}
        assert found == {comparable}

    def test_known_specializations_exclude_self(self):
        state = make_state()
        general = Rule(["a"], ["b"])
        specific = Rule(["a", "c"], ["b", "d"])
        state.add_rule(general, RuleOrigin.SEED)
        state.add_rule(specific, RuleOrigin.SEED)
        assert {k.rule for k in state.known_specializations(general)} == {specific}
        assert list(state.known_specializations(specific)) == []

    def test_index_matches_brute_force_on_random_rules(self):
        rng = np.random.default_rng(7)
        items = [f"i{k}" for k in range(6)]
        state = make_state()
        rules = []
        while len(rules) < 40:
            size = int(rng.integers(2, 5))
            chosen = list(rng.choice(items, size=size, replace=False))
            cut = int(rng.integers(1, size))
            rule = Rule(chosen[:cut], chosen[cut:])
            if rule not in state:
                rules.append(rule)
                state.add_rule(rule, RuleOrigin.SEED)
        for probe in rules:
            expected_gen = {
                r for r in rules if r != probe and r.generalizes(probe)
            }
            expected_spec = {
                r for r in rules if r != probe and probe.generalizes(r)
            }
            assert {k.rule for k in state.known_generalizations(probe)} == expected_gen
            assert {k.rule for k in state.known_specializations(probe)} == expected_spec


class TestIncrementalViews:
    def test_unresolved_shrinks_as_rules_settle(self):
        state = make_state()
        settled = Rule(["a"], ["b"])
        open_rule = Rule(["x"], ["y"])
        state.add_rule(open_rule, RuleOrigin.SEED)
        feed(state, settled, [(0.5, 0.8)] * 4)
        assert [k.rule for k in state.unresolved()] == [open_rule]

    def test_unresolved_keeps_discovery_order(self):
        state = make_state()
        first = Rule(["a"], ["b"])
        second = Rule(["x"], ["y"])
        third = Rule(["p"], ["q"])
        state.add_rule(first, RuleOrigin.SEED)
        state.add_rule(second, RuleOrigin.SEED)
        state.add_rule(third, RuleOrigin.SEED)
        assert [k.rule for k in state.unresolved()] == [first, second, third]

    def test_reopened_rule_returns_to_discovery_position(self):
        state = make_state()
        first = Rule(["a"], ["b"])
        second = Rule(["x"], ["y"])
        state.add_rule(first, RuleOrigin.SEED)
        state.add_rule(second, RuleOrigin.SEED)
        feed(state, first, [(0.5, 0.8)] * 3)
        assert state.knowledge(first).decision is Decision.SIGNIFICANT
        # Contradicting answers blow up the variance and reopen it.
        state.record_answer(first, "u10", RuleStats(0.0, 0.0), RuleOrigin.SEED)
        state.record_answer(first, "u11", RuleStats(0.0, 0.0), RuleOrigin.SEED)
        assert state.knowledge(first).decision is Decision.UNDECIDED
        assert [k.rule for k in state.unresolved()] == [first, second]

    def test_known_rule_set_is_live(self):
        state = make_state()
        known = state.known_rule_set()
        rule = Rule(["a"], ["b"])
        state.add_rule(rule, RuleOrigin.SEED)
        assert rule in known

    def test_take_newly_significant_drains_once(self):
        state = make_state()
        rule = Rule(["a"], ["b"])
        feed(state, rule, [(0.5, 0.8)] * 4)
        assert state.take_newly_significant() == [rule]
        assert state.take_newly_significant() == []


class TestSummaryCache:
    def test_repeated_reads_hit_the_cache(self):
        state = make_state()
        rule = Rule(["a"], ["b"])
        feed(state, rule, [(0.5, 0.8)] * 3)
        knowledge = state.knowledge(rule)
        misses = state.obs.counter("kb.summary_misses")
        first = state.summary_for(knowledge)
        second = state.summary_for(knowledge)
        assert first is second
        assert state.obs.counter("kb.summary_misses") == misses
        assert state.obs.counter("kb.summary_hits") >= 2

    def test_new_answer_invalidates(self):
        state = make_state()
        rule = Rule(["a"], ["b"])
        feed(state, rule, [(0.4, 0.8)] * 3)
        knowledge = state.knowledge(rule)
        before = state.summary_for(knowledge)
        state.record_answer(rule, "u10", RuleStats(0.8, 0.9), RuleOrigin.SEED)
        after = state.summary_for(knowledge)
        assert after is not before
        assert after.n == 4

    def test_trust_weight_change_invalidates(self):
        # The spammer-screening path: a screening update must reach
        # cached summaries even when the rule's own samples are untouched.
        model = LatentAbilityModel(screen=True)
        test = SignificanceTest(Thresholds(0.2, 0.5), min_samples=3)
        state = MiningState(test, aggregator=DynamicTrustAggregator(model))
        rule = Rule(["a"], ["b"])
        state.record_answer(rule, "honest", RuleStats(0.2, 0.5), RuleOrigin.SEED)
        state.record_answer(rule, "spammer", RuleStats(0.8, 0.9), RuleOrigin.SEED)
        knowledge = state.knowledge(rule)
        before = state.summary_for(knowledge)
        assert state.summary_for(knowledge) is before  # cached while quiet
        # The spammer violates support monotonicity on another rule;
        # their trust drops, dragging the weighted mean toward "honest".
        model.observe_answer("spammer", Rule(["a"], ["b"]), RuleStats(0.1, 0.3))
        model.observe_answer("spammer", Rule(["a", "c"], ["b"]), RuleStats(0.9, 0.95))
        after = state.summary_for(knowledge)
        assert after is not before
        assert after.mean[0] < before.mean[0]

    def test_versionless_trust_source_disables_caching(self):
        class BareTrust:
            def trust(self, member_id):
                return 1.0

        test = SignificanceTest(Thresholds(0.2, 0.5), min_samples=3)
        state = MiningState(test, aggregator=DynamicTrustAggregator(BareTrust()))
        rule = Rule(["a"], ["b"])
        state.record_answer(rule, "u0", RuleStats(0.4, 0.8), RuleOrigin.SEED)
        knowledge = state.knowledge(rule)
        misses = state.obs.counter("kb.summary_misses")
        state.summary_for(knowledge)
        state.summary_for(knowledge)
        assert state.obs.counter("kb.summary_misses") == misses + 2


class TestPropagationAfterInferredToDirect:
    def test_direct_support_death_propagates_despite_unchanged_decision(self):
        # Regression: propagation used to trigger only on decision
        # *changes*, so a rule moving from inferred insignificance to
        # directly-evidenced, support-dead insignificance (same label,
        # new grounds) never condemned its specializations.
        state = make_state()
        general = Rule(["a"], ["b"])
        middle = Rule(["a", "c"], ["b"])
        state.add_rule(middle, RuleOrigin.SEED)
        # Step 1: the general rule dies on support and condemns middle.
        feed(state, general, [(0.0, 0.0)] * 4)
        assert state.knowledge(middle).inferred
        # Step 2: further answers lift the general rule's support while
        # keeping its confidence dead: still INSIGNIFICANT, but no
        # longer support-dead — it can no longer condemn anyone.
        for i in range(8):
            state.record_answer(
                general, f"g{i}", RuleStats(0.5, 0.5), RuleOrigin.SEED
            )
        assert state.knowledge(general).decision is Decision.INSIGNIFICANT
        # Step 3: a specialization arrives; nothing condemns it now.
        specific = Rule(["a", "c", "d"], ["b"])
        state.add_rule(specific, RuleOrigin.SEED)
        assert state.knowledge(specific).decision is Decision.UNDECIDED
        # Step 4: direct evidence makes middle support-dead. Its
        # decision stays INSIGNIFICANT (inferred → direct), yet the
        # support-death is new knowledge and must propagate.
        for i in range(4):
            state.record_answer(
                middle, f"m{i}", RuleStats(0.0, 0.0), RuleOrigin.SEED
            )
        middle_k = state.knowledge(middle)
        assert middle_k.decision is Decision.INSIGNIFICANT
        assert not middle_k.inferred
        specific_k = state.knowledge(specific)
        assert specific_k.decision is Decision.INSIGNIFICANT
        assert specific_k.inferred
        assert state.inferred_classifications == 2

    def test_propagation_happens_once_per_support_death(self):
        state = make_state()
        general = Rule(["a"], ["b"])
        specific = Rule(["a", "c"], ["b"])
        state.add_rule(specific, RuleOrigin.SEED)
        feed(state, general, [(0.0, 0.0)] * 4)
        assert state.inferred_classifications == 1
        # More confirming answers keep the rule support-dead but must
        # not re-propagate (nothing new to condemn, no double counting).
        for i in range(3):
            state.record_answer(
                general, f"x{i}", RuleStats(0.0, 0.0), RuleOrigin.SEED
            )
        assert state.knowledge(general).propagated
        assert state.inferred_classifications == 1


class TestPriorityView:
    """``best_candidate`` must match the scan it replaces, exactly."""

    @staticmethod
    def naive_best(state, member_id):
        eligible = [
            k for k in state.unresolved()
            if not k.samples.has_answer_from(member_id)
        ]
        if not eligible:
            return None
        return max(eligible, key=lambda k: (state.question_value(k), k.samples.n))

    def test_empty_state_has_no_candidate(self):
        assert make_state().best_candidate("u0") is None

    def test_skips_rules_the_member_answered(self):
        state = make_state()
        answered = Rule(["a"], ["b"])
        fresh = Rule(["c"], ["d"])
        state.record_answer(answered, "u0", RuleStats(0.5, 0.8), RuleOrigin.SEED)
        state.add_rule(fresh, RuleOrigin.SEED)
        assert state.best_candidate("u0").rule == fresh
        # A member who hasn't answered anything sees the higher-value rule.
        assert state.best_candidate("u9").rule == answered

    def test_resolved_rules_never_returned(self):
        state = make_state()
        rule = Rule(["a"], ["b"])
        feed(state, rule, [(0.5, 0.8)] * 5)
        assert state.knowledge(rule).is_resolved
        assert state.best_candidate("u9") is None

    def test_prior_promise_update_reorders(self):
        state = make_state()
        plain = Rule(["a"], ["b"])
        boosted = Rule(["c"], ["d"])
        state.add_rule(plain, RuleOrigin.SEED)
        state.add_rule(boosted, RuleOrigin.SEED)
        assert state.best_candidate("u0").rule == plain  # tie → discovery order
        state.set_prior_promise(boosted, 0.9)
        assert state.best_candidate("u0").rule == boosted

    def test_reopened_rule_becomes_selectable_again(self):
        state = make_state()
        rule = Rule(["a"], ["b"])
        feed(state, rule, [(0.5, 0.8)] * 4)
        assert state.best_candidate("u9") is None
        # Contradicting answers drag the rule back to undecided.
        for i in range(4):
            state.record_answer(rule, f"v{i}", RuleStats(0.15, 0.3), RuleOrigin.SEED)
        assert not state.knowledge(rule).is_resolved
        assert state.best_candidate("u9").rule == rule

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_naive_scan_on_random_sessions(self, seed):
        rng = np.random.default_rng(seed)
        state = make_state()
        items = [f"i{k}" for k in range(8)]
        members = [f"m{k}" for k in range(6)]
        rules = []
        for step in range(120):
            roll = rng.random()
            if roll < 0.3 or not rules:
                size = int(rng.integers(2, 5))
                body = [items[k] for k in rng.choice(8, size=size, replace=False)]
                cut = int(rng.integers(1, size))
                rule = Rule(body[:cut], body[cut:])
                rules.append(rule)
                state.add_rule(
                    rule, RuleOrigin.OPEN_ANSWER,
                    prior_promise=float(rng.uniform(0.3, 0.9)),
                )
            elif roll < 0.4:
                state.set_prior_promise(
                    rules[int(rng.integers(len(rules)))],
                    float(rng.uniform(0.3, 0.9)),
                )
            else:
                support = float(rng.uniform(0.0, 0.8))
                confidence = float(rng.uniform(support, 1.0))
                state.record_answer(
                    rules[int(rng.integers(len(rules)))],
                    members[int(rng.integers(len(members)))],
                    RuleStats(support, confidence),
                    RuleOrigin.SEED,
                )
            for member_id in members:
                expected = self.naive_best(state, member_id)
                got = state.best_candidate(member_id)
                if expected is None:
                    assert got is None
                else:
                    assert got is expected


def random_rules(count, n_items=40, seed=0):
    """``count`` distinct rules with 2-4 item bodies over ``n_items`` items."""
    rng = np.random.default_rng(seed)
    items = [f"i{k}" for k in range(n_items)]
    rules = set()
    while len(rules) < count:
        size = int(rng.integers(2, 5))
        chosen = [items[k] for k in rng.choice(n_items, size=size, replace=False)]
        cut = int(rng.integers(1, size))
        rules.add(Rule(chosen[:cut], chosen[cut:]))
    return sorted(rules, key=str)


class TestSeedingScans:
    """A new rule can only inherit a condemnation from an INSIGNIFICANT
    generalization, so while the KB holds none, adding a rule skips the
    lattice scan (counted, never timed)."""

    @pytest.fixture
    def scans(self, monkeypatch):
        calls = [0]
        scan = RuleIndex.generalization_candidates

        def counted(self, rule):
            calls[0] += 1
            return scan(self, rule)

        monkeypatch.setattr(RuleIndex, "generalization_candidates", counted)
        return calls

    def test_seeding_a_miner_scans_nothing(self, scans, folk_population, thresholds):
        from repro.crowd import SimulatedCrowd
        from repro.miner import CrowdMiner, CrowdMinerConfig

        crowd = SimulatedCrowd.from_population(folk_population, seed=1)
        rules = tuple(random_rules(2_000))
        miner = CrowdMiner(
            crowd, CrowdMinerConfig(thresholds=thresholds, seed_rules=rules, seed=2)
        )
        assert len(miner.state) == 2_000
        assert scans[0] == 0

    def test_rule_added_after_the_first_support_death_inherits_it(self, scans):
        state = make_state()
        for rule in random_rules(200):
            state.add_rule(rule, RuleOrigin.SEED)
        assert scans[0] == 0
        general = Rule(["a"], ["b"])
        feed(state, general, [(0.0, 0.0)] * 4)
        assert state.knowledge(general).decision is Decision.INSIGNIFICANT
        k = state.add_rule(Rule(["a", "c"], ["b"]), RuleOrigin.LATTICE)
        assert scans[0] == 1
        assert k.decision is Decision.INSIGNIFICANT and k.inferred

    def test_a_reopened_generalization_condemns_nothing_new(self, scans):
        state = make_state()
        general = Rule(["a"], ["b"])
        feed(state, general, [(0.0, 0.0)] * 4)
        # Strong direct evidence reopens the general rule: no
        # INSIGNIFICANT decision is left to inherit.
        for i in range(12):
            state.record_answer(general, f"v{i}", RuleStats(0.6, 0.9), RuleOrigin.SEED)
        assert state.knowledge(general).decision is not Decision.INSIGNIFICANT
        scans[0] = 0
        k = state.add_rule(Rule(["a", "c"], ["b"]), RuleOrigin.LATTICE)
        assert scans[0] == 0
        assert k.decision is Decision.UNDECIDED

    @pytest.mark.parametrize("seed", range(5))
    def test_count_follows_every_decision(self, seed):
        rng = np.random.default_rng(seed)
        state = make_state()
        rules = random_rules(30, n_items=8, seed=seed)
        for step in range(300):
            rule = rules[int(rng.integers(len(rules)))]
            support = float(rng.choice([0.0, 0.05, 0.3, 0.6]))
            confidence = min(1.0, support + float(rng.random()) * 0.5)
            state.record_answer(
                rule, f"u{step % 7}", RuleStats(support, confidence), RuleOrigin.SEED
            )
            insignificant = sum(
                k.decision is Decision.INSIGNIFICANT for k in state.rules()
            )
            assert state._insignificant == insignificant
