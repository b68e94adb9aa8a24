"""Tests for internal utilities (repro._util)."""

import numpy as np
import pytest

from repro._util import (
    as_rng,
    check_fraction,
    check_nonnegative,
    check_positive,
    clamp01,
    stable_unique,
    weighted_choice,
)
from repro.errors import InvalidThresholdError


class TestAsRng:
    def test_int_seed_deterministic(self):
        assert as_rng(7).random() == as_rng(7).random()

    def test_generator_passthrough(self):
        rng = np.random.default_rng(1)
        assert as_rng(rng) is rng

    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)


class TestChecks:
    def test_fraction_accepts_bounds(self):
        assert check_fraction(0.0, "x") == 0.0
        assert check_fraction(1.0, "x") == 1.0

    def test_fraction_rejects_outside(self):
        with pytest.raises(InvalidThresholdError, match="x"):
            check_fraction(1.5, "x")
        with pytest.raises(InvalidThresholdError):
            check_fraction(-0.1, "x")
        with pytest.raises(InvalidThresholdError):
            check_fraction(float("nan"), "x")

    def test_positive(self):
        assert check_positive(3, "n") == 3
        with pytest.raises(InvalidThresholdError):
            check_positive(0, "n")
        with pytest.raises(InvalidThresholdError):
            check_positive(2.5, "n")

    def test_nonnegative(self):
        assert check_nonnegative(0.0, "v") == 0.0
        with pytest.raises(InvalidThresholdError):
            check_nonnegative(-1.0, "v")
        with pytest.raises(InvalidThresholdError):
            check_nonnegative(float("inf"), "v")

    def test_clamp(self):
        assert clamp01(-0.5) == 0.0
        assert clamp01(1.5) == 1.0
        assert clamp01(0.3) == 0.3


class TestStableUnique:
    def test_preserves_first_seen_order(self):
        assert stable_unique([3, 1, 3, 2, 1]) == [3, 1, 2]

    def test_empty(self):
        assert stable_unique([]) == []


class TestWeightedChoice:
    def test_degenerate_weights_fall_back_to_uniform(self, rng):
        seen = {weighted_choice(rng, ["a", "b"], [0.0, 0.0]) for _ in range(50)}
        assert seen == {"a", "b"}

    def test_respects_weights(self, rng):
        counts = {"a": 0, "b": 0}
        for _ in range(500):
            counts[weighted_choice(rng, ["a", "b"], [9.0, 1.0])] += 1
        assert counts["a"] > counts["b"] * 3

    def test_mismatched_lengths(self, rng):
        with pytest.raises(ValueError, match="equal length"):
            weighted_choice(rng, ["a"], [1.0, 2.0])

    def test_empty_options(self, rng):
        with pytest.raises(ValueError, match="empty"):
            weighted_choice(rng, [], [])

    def test_negative_weights_rejected(self, rng):
        with pytest.raises(ValueError, match="non-negative"):
            weighted_choice(rng, ["a"], [-1.0])

    def test_zero_weight_is_never_drawn(self):
        class Lowest:
            """A generator whose uniform draw is 0.0, the lowest it can be."""

            def random(self):
                return 0.0

        assert weighted_choice(Lowest(), ["never", "a"], [0.0, 1.0]) == "a"

    @pytest.mark.parametrize("seed", range(4))
    def test_draws_like_numpy_choice(self, seed):
        # The inverse-CDF step must pick the index Generator.choice(p=...)
        # picks and leave the generator in the same state: zero weights
        # anywhere, a single option, up to 299 options.
        source = np.random.default_rng(seed)
        cases = [[1.0], [0.0, 2.0], [3.0, 0.0], [0.0, 0.0, 5.0, 0.0], [1e-300, 1.0]]
        for _ in range(250):
            n = int(source.integers(1, 300))
            weights = source.random(n) * 10.0
            weights[source.random(n) < 0.3] = 0.0
            if not weights.any():
                weights[-1] = 1.0
            cases.append(weights)
        ours = np.random.default_rng(seed)
        numpy_ = np.random.default_rng(seed)
        for weights in cases:
            weights = np.asarray(weights, dtype=float)
            index = weighted_choice(ours, range(len(weights)), weights)
            assert index == int(numpy_.choice(len(weights), p=weights / weights.sum()))
            assert ours.bit_generator.state == numpy_.bit_generator.state
