"""Tests for spammer screening: the latent-ability model with ``screen=True``."""

import pytest

from repro.core import Rule, RuleStats
from repro.estimation import LatentAbilityModel
from repro.estimation.latent import SCREEN_TOLERANCE


def screening(**kwargs) -> LatentAbilityModel:
    return LatentAbilityModel(screen=True, **kwargs)


class TestViolationScoring:
    def test_unknown_member_zero(self):
        model = screening()
        assert model.violation_score("nobody") == 0.0
        assert model.trust("nobody") == 1.0

    def test_consistent_answers_no_violation(self):
        model = screening()
        model.observe_answer("u", Rule(["a"], ["b"]), RuleStats(0.4, 0.6))
        model.observe_answer("u", Rule(["a", "c"], ["b"]), RuleStats(0.2, 0.5))
        assert model.violation_score("u") == 0.0
        assert model.trust("u") == 1.0

    def test_monotonicity_violation_detected(self):
        model = screening()
        model.observe_answer("u", Rule(["a"], ["b"]), RuleStats(0.1, 0.3))
        model.observe_answer("u", Rule(["a", "c"], ["b"]), RuleStats(0.9, 0.95))
        assert model.violation_score("u") == pytest.approx(0.8)
        assert model.trust("u") < 0.5

    def test_body_subset_comparability(self):
        # Different splits with subset-ordered bodies are comparable.
        model = screening()
        model.observe_answer("u", Rule(["a"], ["b"]), RuleStats(0.1, 0.3))
        model.observe_answer("u", Rule(["b"], ["a", "c"]), RuleStats(0.9, 0.95))
        assert model.violation_score("u") > 0.0

    def test_equal_bodies_must_report_equal_support(self):
        model = screening()
        model.observe_answer("u", Rule(["a"], ["b"]), RuleStats(0.2, 0.4))
        model.observe_answer("u", Rule(["b"], ["a"]), RuleStats(0.7, 0.9))
        assert model.violation_score("u") == pytest.approx(0.5)

    def test_incomparable_rules_ignored(self):
        model = screening()
        model.observe_answer("u", Rule(["a"], ["b"]), RuleStats(0.1, 0.3))
        model.observe_answer("u", Rule(["x"], ["y"]), RuleStats(0.9, 0.95))
        assert model.violation_score("u") == 0.0

    def test_revision_replaces_old_answer(self):
        model = screening()
        model.observe_answer("u", Rule(["a"], ["b"]), RuleStats(0.1, 0.3))
        model.observe_answer("u", Rule(["a"], ["b"]), RuleStats(0.5, 0.7))
        # One stored answer for the rule, and a rule is never compared
        # with its own earlier answer.
        assert len(model._answers["u"]) == 1
        assert model.violation_score("u") == 0.0


class TestTrustAndFlagging:
    def test_tolerance_forgives_small_violations(self):
        model = screening()
        model.observe_answer("u", Rule(["a"], ["b"]), RuleStats(0.2, 0.5))
        model.observe_answer(
            "u", Rule(["a", "c"], ["b"]), RuleStats(0.2 + SCREEN_TOLERANCE / 2, 0.6)
        )
        assert model.violation_score("u") > 0.0
        assert model.trust("u") == 1.0

    def test_flagged_lists_low_trust_members(self):
        model = screening()
        model.observe_answer("bad", Rule(["a"], ["b"]), RuleStats(0.0, 0.1))
        model.observe_answer("bad", Rule(["a", "c"], ["b"]), RuleStats(1.0, 1.0))
        model.observe_answer("good", Rule(["a"], ["b"]), RuleStats(0.5, 0.7))
        model.observe_answer("good", Rule(["a", "c"], ["b"]), RuleStats(0.3, 0.6))
        flagged = [m for m in ("bad", "good") if model.trust(m) < 0.5]
        assert flagged == ["bad"]

    def test_separates_spammers_from_honest(self, rng):
        # Statistical end-to-end check on random comparable pairs.
        model = screening()
        base = Rule(["a"], ["b"])
        specific = Rule(["a", "c"], ["b"])
        for k in range(30):
            general_s = rng.uniform(0.4, 0.6)
            specific_s = general_s * rng.uniform(0.3, 0.9)
            model.observe_answer(
                "honest", base, RuleStats(general_s, min(1.0, general_s + 0.2))
            )
            model.observe_answer(
                "honest", specific, RuleStats(specific_s, min(1.0, specific_s + 0.2))
            )
            a, b = sorted(rng.uniform(0, 1, 2))
            model.observe_answer("spammer", base, RuleStats(a, b))
            a, b = sorted(rng.uniform(0, 1, 2))
            model.observe_answer("spammer", specific, RuleStats(a, b))
        assert model.trust("honest") > model.trust("spammer")


class TestVersionToken:
    def test_version_counts_recorded_answers(self):
        model = screening()
        assert model.version == 0
        model.observe_answer("u", Rule(["a"], ["b"]), RuleStats(0.4, 0.6))
        assert model.version == 1
        model.observe_answer("u", Rule(["a", "c"], ["b"]), RuleStats(0.2, 0.5))
        assert model.version == 2

    def test_trust_reads_do_not_bump(self):
        model = screening()
        model.observe_answer("u", Rule(["a"], ["b"]), RuleStats(0.4, 0.6))
        model.trust("u")
        model.violation_score("u")
        assert model.version == 1


class TestScreeningBesideTheFit:
    def test_screening_never_quarantines(self):
        # Every member reports the specific rule 0.08 above its
        # generalization: inside the fit's margin, so the fit sees a
        # coherent crowd, but past screening's tolerance.
        model = screening(min_answers=2)
        general, specific = Rule(["a"], ["b"]), Rule(["a", "c"], ["b"])
        for member in ("u1", "u2", "u3"):
            model.observe_answer(member, general, RuleStats(0.30, 0.6))
            model.observe_answer(member, specific, RuleStats(0.38, 0.6))
        # One garbled reply in three lowers u1's fitted trust, but
        # leaves it above the floor.
        model.observe_malformed("u1")
        model.reestimate()
        fitted = model._trust["u1"]
        assert model.trust_floor <= fitted < 1.0
        assert model.trust("u1") < model.trust_floor
        assert not model.should_quarantine("u1")
        assert model.quarantine_candidates() == []

    def test_unscreened_model_ignores_raw_violations(self):
        model = LatentAbilityModel()
        model.observe_answer("u", Rule(["a"], ["b"]), RuleStats(0.1, 0.3))
        model.observe_answer("u", Rule(["a", "c"], ["b"]), RuleStats(0.9, 0.95))
        assert model.violation_score("u") == pytest.approx(0.8)
        assert model.trust("u") == 1.0
        assert model.version == 0
