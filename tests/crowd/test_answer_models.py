"""Tests for the answer models, including coherence invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RuleStats
from repro.crowd import (
    LIKERT5,
    ComposedAnswerModel,
    ExactAnswerModel,
    ForgetfulAnswerModel,
    LikertAnswerModel,
    NoisyAnswerModel,
    SpammerAnswerModel,
    standard_answer_model,
)


def stats_strategy():
    return st.tuples(
        st.floats(0.0, 1.0, allow_nan=False), st.floats(0.0, 1.0, allow_nan=False)
    ).map(lambda sc: RuleStats(min(sc), max(sc)))


ALL_MODELS = [
    ExactAnswerModel(),
    NoisyAnswerModel(0.1),
    LikertAnswerModel(),
    ForgetfulAnswerModel(0.8),
    ComposedAnswerModel([NoisyAnswerModel(0.05), LikertAnswerModel()]),
    SpammerAnswerModel(),
]


class TestCoherence:
    @settings(max_examples=40, deadline=None)
    @given(stats_strategy(), st.integers(0, 2**31 - 1))
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_reports_are_valid_stats(self, model, stats, seed):
        rng = np.random.default_rng(seed)
        reported = model.report(stats, rng)
        assert 0.0 <= reported.support <= reported.confidence <= 1.0


class TestExact:
    def test_identity(self, rng):
        s = RuleStats(0.2, 0.6)
        assert ExactAnswerModel().report(s, rng) == s


class TestNoisy:
    def test_zero_sigma_identity(self, rng):
        s = RuleStats(0.2, 0.6)
        assert NoisyAnswerModel(0.0).report(s, rng) == s

    def test_noise_is_centred(self, rng):
        model = NoisyAnswerModel(0.1)
        truth = RuleStats(0.5, 0.7)
        supports = [model.report(truth, rng).support for _ in range(500)]
        assert np.mean(supports) == pytest.approx(0.5, abs=0.03)

    def test_negative_sigma_rejected(self):
        with pytest.raises(Exception):
            NoisyAnswerModel(-0.1)


class TestLikert:
    def test_snaps_to_grid(self, rng):
        model = LikertAnswerModel()
        reported = model.report(RuleStats(0.23, 0.61), rng)
        assert reported.support in LIKERT5
        assert reported.confidence in LIKERT5

    def test_exact_grid_values_unchanged(self, rng):
        model = LikertAnswerModel()
        s = RuleStats(0.25, 0.75)
        assert model.report(s, rng) == s

    def test_custom_grid(self, rng):
        model = LikertAnswerModel(grid=(0.0, 0.5, 1.0))
        assert model.report(RuleStats(0.3, 0.3), rng).support == 0.5

    def test_tiny_grid_rejected(self):
        with pytest.raises(ValueError):
            LikertAnswerModel(grid=(0.5,))

    @pytest.mark.parametrize(
        "grid", [LIKERT5, (0.0, 0.5, 1.0), (0.1, 0.3), (0.9, 0.0, 1 / 3, 2 / 3)]
    )
    def test_snap_matches_numpy_argmin(self, grid):
        model = LikertAnswerModel(grid=grid)
        levels = model.grid
        rng = np.random.default_rng(11)
        midpoints = (levels[:-1] + levels[1:]) / 2
        values = np.concatenate(
            [
                rng.random(5_000),
                rng.uniform(-2.0, 3.0, 1_000),
                midpoints,
                np.nextafter(midpoints, -np.inf),
                np.nextafter(midpoints, np.inf),
                levels,
                [-0.0, -1e-300, 1.0 + 1e-12],
            ]
        )
        for value in values.tolist():
            expected = float(levels[np.argmin(np.abs(levels - value))])
            snapped = model._snap(value)
            assert type(snapped) is float
            assert snapped == expected, (grid, value)


class TestForgetful:
    def test_underreports_support_on_average(self, rng):
        model = ForgetfulAnswerModel(recall=0.7)
        truth = RuleStats(0.5, 0.8)
        supports = [model.report(truth, rng).support for _ in range(500)]
        assert np.mean(supports) == pytest.approx(0.35, abs=0.05)

    def test_perfect_recall_identity(self, rng):
        s = RuleStats(0.4, 0.6)
        assert ForgetfulAnswerModel(recall=1.0).report(s, rng) == s

    def test_invalid_recall_rejected(self):
        with pytest.raises(ValueError):
            ForgetfulAnswerModel(recall=0.0)


class TestSpammer:
    def test_ignores_truth(self, rng):
        model = SpammerAnswerModel()
        answers = {
            model.report(RuleStats(0.9, 0.9), rng).support for _ in range(50)
        }
        assert len(answers) > 10  # essentially random


class TestComposed:
    def test_applies_in_order(self, rng):
        # Forget (scales support), then Likert (snaps): result on grid.
        model = ComposedAnswerModel(
            [ForgetfulAnswerModel(0.5, concentration=10_000), LikertAnswerModel()]
        )
        reported = model.report(RuleStats(0.5, 1.0), rng)
        assert reported.support == 0.25

    def test_empty_composition_rejected(self):
        with pytest.raises(ValueError):
            ComposedAnswerModel([])


class TestStandard:
    def test_default_is_noise_plus_likert(self):
        model = standard_answer_model()
        assert isinstance(model, ComposedAnswerModel)

    def test_likert_disabled(self):
        model = standard_answer_model(likert=False)
        assert isinstance(model, NoisyAnswerModel)
