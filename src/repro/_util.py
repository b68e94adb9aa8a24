"""Small internal utilities shared across the library.

Nothing here is part of the public API; import from the concrete
subpackages instead.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TypeVar

import numpy as np

from repro.errors import InvalidThresholdError

T = TypeVar("T")


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts an existing generator (returned unchanged), an integer seed,
    or ``None`` for OS entropy. Centralizing this lets every stochastic
    component take a uniform ``seed=`` argument while remaining
    composable: components that spawn sub-components pass their own
    generator down so a single top-level seed makes a whole experiment
    deterministic.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def check_fraction(value: float, name: str) -> float:
    """Validate that ``value`` lies in ``[0, 1]`` and return it as ``float``.

    Raises :class:`~repro.errors.InvalidThresholdError` otherwise; used
    for supports, confidences, probabilities and mixing ratios.
    """
    value = float(value)
    if not 0.0 <= value <= 1.0:  # also false for NaN
        raise InvalidThresholdError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_positive(value: int, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it."""
    if int(value) != value or value <= 0:
        raise InvalidThresholdError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def check_nonnegative(value: float, name: str) -> float:
    """Validate that ``value`` is a finite non-negative number."""
    value = float(value)
    if value < 0 or not np.isfinite(value):
        raise InvalidThresholdError(f"{name} must be non-negative, got {value!r}")
    return value


def clamp01(value: float) -> float:
    """Clamp ``value`` into the closed unit interval."""
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return float(value)


def stable_unique(items: Iterable[T]) -> list[T]:
    """Deduplicate ``items`` preserving first-seen order."""
    seen: set[T] = set()
    out: list[T] = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out


def weighted_choice(
    rng: np.random.Generator, options: Sequence[T], weights: Sequence[float]
) -> T:
    """Pick one of ``options`` with probability proportional to ``weights``.

    Falls back to a uniform choice when all weights are zero (or the
    weight vector is degenerate), which is the behaviour the sampling
    call-sites want: "no preference" rather than an error.

    The draw is numpy's own inverse-CDF step of
    ``rng.choice(len(options), p=weights / total)`` — one uniform, the
    same index — without ``choice``'s re-validation of ``p``.
    """
    if len(options) != len(weights):
        raise ValueError("options and weights must have equal length")
    if not options:
        raise ValueError("cannot choose from an empty sequence")
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and non-negative")
    return options[weighted_index(rng, w)]


def weighted_index(rng: np.random.Generator, weights: np.ndarray) -> int:
    """The inverse-CDF step of :func:`weighted_choice`, unchecked.

    ``weights`` must be a non-empty float array, finite and
    non-negative; a zero total draws a uniform index.
    """
    total = weights.sum()
    if total <= 0:
        return int(rng.integers(len(weights)))
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))
