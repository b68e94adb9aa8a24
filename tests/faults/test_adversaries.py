"""Adversarial answer models: coherence, collusion, drift, garble.

The property half of the robustness bar (ISSUE satellite): every
adversarial model — however hostile — must stay *representable*
(stats in [0, 1], confidence ≥ support) and compose cleanly with the
honest models, because the adversaries worth defending against are the
ones the type system cannot reject.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Rule, RuleStats
from repro.crowd import (
    ComposedAnswerModel,
    ExactAnswerModel,
    LikertAnswerModel,
    NoisyAnswerModel,
    SimulatedCrowd,
    garbage_text,
    standard_answer_model,
)
from repro.crowd.questions import DeferredClosedAnswer, MalformedAnswer
from repro.crowd.stream import parse_stats
from repro.dispatch import LognormalLatency
from repro.errors import ConfigurationError
from repro.faults import (
    ADVERSARY_ROLES,
    CollusionRing,
    DriftingAnswerModel,
    LazyExtremesModel,
    build_adversarial_crowd,
    parse_adversary_mix,
)


def stats_strategy():
    return st.tuples(
        st.floats(0.0, 1.0, allow_nan=False), st.floats(0.0, 1.0, allow_nan=False)
    ).map(lambda sc: RuleStats(min(sc), max(sc)))


#: Factories, not instances: DriftingAnswerModel is stateful, and each
#: hypothesis example must start from a fresh worker.
ADVERSARIAL_FACTORIES = [
    lambda: CollusionRing(seed=0).member_model(),
    lambda: DriftingAnswerModel(),
    lambda: DriftingAnswerModel(initial_sigma=0.5, drift=0.3, max_sigma=0.6),
    lambda: LazyExtremesModel(),
    lambda: LazyExtremesModel(split=0.2),
    lambda: ComposedAnswerModel([DriftingAnswerModel(), LikertAnswerModel()]),
    lambda: ComposedAnswerModel(
        [CollusionRing(seed=1).member_model(), NoisyAnswerModel(0.1)]
    ),
    lambda: ComposedAnswerModel([LazyExtremesModel(), DriftingAnswerModel()]),
]

RULE = Rule(["cough"], ["tea"])


class TestAdversarialCoherence:
    @settings(max_examples=40, deadline=None)
    @given(stats_strategy(), st.integers(0, 2**31 - 1))
    @pytest.mark.parametrize(
        "factory", ADVERSARIAL_FACTORIES, ids=lambda f: repr(f())
    )
    def test_reports_are_valid_stats(self, factory, stats, seed):
        model = factory()
        rng = np.random.default_rng(seed)
        for _ in range(5):  # stateful models must stay coherent over time
            reported = model.report(stats, rng)
            assert 0.0 <= reported.support <= reported.confidence <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(stats_strategy(), st.integers(0, 2**31 - 1))
    @pytest.mark.parametrize(
        "factory", ADVERSARIAL_FACTORIES, ids=lambda f: repr(f())
    )
    def test_report_rule_is_valid_stats(self, factory, stats, seed):
        # The rule-aware path (used by closed questions) obeys the same
        # invariant as the plain path.
        model = factory()
        rng = np.random.default_rng(seed)
        reported = model.report_rule(RULE, stats, rng)
        assert 0.0 <= reported.support <= reported.confidence <= 1.0

    def test_composition_with_honest_standard_model(self, rng):
        # Adversaries drop into ComposedAnswerModel exactly like the
        # honest models do — closure under composition.
        model = ComposedAnswerModel(
            [DriftingAnswerModel(), standard_answer_model()]
        )
        reported = model.report(RuleStats(0.4, 0.8), rng)
        assert 0.0 <= reported.support <= reported.confidence <= 1.0


class TestCollusionRing:
    def test_fabricated_stats_stable_per_rule(self):
        ring = CollusionRing(seed=3)
        first = ring.fabricated_stats(RULE)
        assert ring.fabricated_stats(RULE) == first

    def test_members_agree_up_to_jitter(self, rng):
        ring = CollusionRing(seed=3, jitter=0.02)
        truth = RuleStats(0.9, 0.95)  # ignored by design
        a = ring.member_model().report_rule(RULE, truth, rng)
        b = ring.member_model().report_rule(RULE, truth, rng)
        assert abs(a.support - b.support) < 0.2  # coordinated, not honest
        fabricated = ring.fabricated_stats(RULE)
        assert abs(a.support - fabricated.support) < 0.2

    def test_zero_jitter_is_byte_identical_collusion(self, rng):
        ring = CollusionRing(seed=3, jitter=0.0)
        truth = RuleStats(0.1, 0.2)
        a = ring.member_model().report_rule(RULE, truth, rng)
        b = ring.member_model().report_rule(RULE, truth, rng)
        assert a == b == ring.fabricated_stats(RULE)


class TestDrifting:
    def test_sigma_grows_then_caps(self, rng):
        model = DriftingAnswerModel(initial_sigma=0.0, drift=0.25, max_sigma=0.6)
        sigmas = []
        for _ in range(6):
            sigmas.append(model.current_sigma)
            model.report(RuleStats(0.5, 0.5), rng)
        assert sigmas == [0.0, 0.25, 0.5, 0.6, 0.6, 0.6]

    def test_starts_honest(self, rng):
        model = DriftingAnswerModel(initial_sigma=0.0, drift=0.1)
        s = RuleStats(0.3, 0.7)
        assert model.report(s, rng) == s  # first answer: zero noise


class TestLazyExtremes:
    def test_snaps_to_extremes(self, rng):
        model = LazyExtremesModel()
        reported = model.report(RuleStats(0.45, 0.55), rng)
        assert reported == RuleStats(0.0, 1.0)

    def test_custom_split(self, rng):
        model = LazyExtremesModel(split=0.2)
        assert model.report(RuleStats(0.25, 0.3), rng) == RuleStats(1.0, 1.0)


class TestGarbageText:
    def test_never_parses(self, rng):
        # The whole point of the pool: every line must defeat the real
        # protocol parser (including "1.5 2.0" and "NaN NaN", which
        # float() happily accepts).
        for _ in range(200):
            text = garbage_text(rng)
            with pytest.raises(ValueError):
                parse_stats(text)


class TestGarbledMember:
    def _crowd(self, folk_population, rate, answer_model=ExactAnswerModel):
        """A crowd whose first member is garbled at ``rate``."""
        return SimulatedCrowd(
            folk_population, answer_model=answer_model(), seed=5, garbled={0: rate}
        )

    def test_rate_one_always_malformed(self, folk_population):
        crowd = self._crowd(folk_population, 1.0)
        member = crowd.member_ids[0]
        for _ in range(5):
            answer = crowd.ask_closed(member, RULE)
            assert isinstance(answer, MalformedAnswer)
            assert answer.member_id == member

    def test_rate_zero_passes_through(self, folk_population):
        crowd = self._crowd(folk_population, 0.0)
        answer = crowd.ask_closed(crowd.member_ids[0], RULE)
        assert not isinstance(answer, MalformedAnswer)

    def test_garbled_open_answer_still_counts_as_volunteered(self, folk_population):
        # The member volunteered a rule before the reply was garbled, so
        # they do not volunteer it again: their open answers never repeat.
        crowd = self._crowd(folk_population, 0.5, standard_answer_model)
        honest = self._crowd(folk_population, 0.0, standard_answer_model)
        member = crowd.member_ids[0]
        said = [honest.ask_open(member).rule for _ in range(8)]
        for rule in said:
            answer = crowd.ask_open(member)
            if not isinstance(answer, MalformedAnswer):
                assert answer.rule == rule

    def test_dispatched_question_is_garbled_at_issue(self, folk_population):
        crowd = self._crowd(folk_population, 1.0, standard_answer_model)
        member = crowd.member_ids[0]
        latency, rng = LognormalLatency(60.0, 1.0), np.random.default_rng(1)
        answer = crowd.ask_closed_async(member, RULE, latency=latency, rng=rng).answer
        assert isinstance(answer, MalformedAnswer)
        # The honest answer behind it is still queued, in issue order.
        assert len(crowd._unread[0]) == 1
        assert crowd.stats.closed_questions == 1

    def test_shared_draws_are_simulated_at_issue(self, folk_population):
        crowd, roles = build_adversarial_crowd(
            folk_population, (("colluder", 0.5), ("spammer", 0.5)), seed=3
        )
        latency, rng = LognormalLatency(60.0, 1.0), np.random.default_rng(1)
        for member_id, role in roles.items():
            answer = crowd.ask_closed_async(member_id, RULE, latency=latency, rng=rng).answer
            assert isinstance(answer, DeferredClosedAnswer) == (role != "colluder")


class TestParseAdversaryMix:
    def test_round_trip(self):
        assert parse_adversary_mix("spammer:0.2, garbled:0.1") == (
            ("spammer", 0.2),
            ("garbled", 0.1),
        )

    def test_empty_spec_is_empty_mix(self):
        assert parse_adversary_mix("") == ()
        assert parse_adversary_mix("   ") == ()

    def test_zero_fraction_dropped(self):
        assert parse_adversary_mix("spammer:0.0,lazy:0.5") == (("lazy", 0.5),)

    @pytest.mark.parametrize(
        "spec",
        [
            "troll:0.2",  # unknown role
            "spammer:0.2,spammer:0.1",  # duplicate
            "spammer:lots",  # unparseable fraction
            "spammer:1.5",  # out of range
            "spammer:0.7,garbled:0.7",  # sums past 1
            "spammer",  # missing fraction
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            parse_adversary_mix(spec)


class TestBuildAdversarialCrowd:
    def test_roles_cover_requested_fractions(self, folk_population):
        crowd, roles = build_adversarial_crowd(
            folk_population,
            (("spammer", 0.2), ("garbled", 0.2)),
            seed=11,
        )
        counts = {role: 0 for role in (*ADVERSARY_ROLES, "honest")}
        for role in roles.values():
            counts[role] += 1
        n = len(roles)
        assert counts["spammer"] == round(0.2 * n)
        assert counts["garbled"] == round(0.2 * n)
        assert counts["honest"] == n - counts["spammer"] - counts["garbled"]

    def test_same_seed_same_roles(self, folk_population):
        mix = (("colluder", 0.3),)
        _, roles_a = build_adversarial_crowd(folk_population, mix, seed=11)
        _, roles_b = build_adversarial_crowd(folk_population, mix, seed=11)
        assert roles_a == roles_b

    def test_empty_mix_matches_from_population_byte_for_byte(
        self, folk_population
    ):
        # With no adversaries the builder must draw exactly the same
        # random stream as the standard construction — the guarantee
        # that lets the eval runner route everything through it.
        plain = SimulatedCrowd.from_population(
            folk_population, answer_model=standard_answer_model(), seed=5
        )
        built, roles = build_adversarial_crowd(
            folk_population, (), answer_model=standard_answer_model(), seed=5
        )
        assert set(roles.values()) == {"honest"}
        for member_id in plain.available_members():
            a = plain.ask_closed(member_id, RULE)
            b = built.ask_closed(member_id, RULE)
            assert a.stats == b.stats

    def test_garbled_members_emit_malformed(self, folk_population):
        crowd, roles = build_adversarial_crowd(
            folk_population, (("garbled", 0.2),), seed=11
        )
        garbled = [mid for mid, role in roles.items() if role == "garbled"]
        assert garbled
        answer = crowd.ask_closed(garbled[0], RULE)
        assert isinstance(answer, MalformedAnswer)
