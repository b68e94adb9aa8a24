"""Streaming mean/covariance estimation (2-D Welford).

The miner updates per-rule estimates after every single answer, and the
question-selection step reads every rule's estimate; both need to be
cheap. Welford's online algorithm maintains the sample mean and the
sample covariance of the 2-vector ``(support, confidence)`` in O(1) per
update, with the usual numerical-stability advantages over naive
sum-of-squares accumulation.
"""

from __future__ import annotations

import numpy as np


def _pair(observation: tuple[float, float] | np.ndarray) -> tuple[float, float]:
    """The observation as two floats; anything but a 2-vector is refused."""
    if type(observation) is tuple and len(observation) == 2:
        x0, x1 = observation
        if type(x0) is float and type(x1) is float:
            return observation
    x = np.asarray(observation, dtype=float)
    if x.shape != (2,):
        raise ValueError(f"observation must be a 2-vector, got shape {x.shape}")
    return float(x[0]), float(x[1])


def _clamp(value: float) -> float:
    """``np.maximum(value, 0.0)``: −0.0 and tiny negatives become 0.0."""
    return value if value > 0.0 or value != value else 0.0


class StreamingMeanCov:
    """Online sample mean and covariance of 2-D observations.

    Implements the Welford/Chan update: after ``add((s, c))`` calls,
    :attr:`mean` is the sample mean and :attr:`cov` the *unbiased*
    (ddof = 1) sample covariance. With fewer than two observations the
    covariance is reported as the zero matrix (callers apply their own
    priors/floors; see :mod:`repro.estimation.significance`).

    The state is seven Python floats — the count, the mean and the
    full 2×2 co-moment matrix ``M2`` (whose off-diagonal entries round
    differently, so both are kept) — updated in the operation order of
    the elementwise numpy formulation, so every result is bit-identical
    to it. Sessions checkpoint one estimator per known rule, and floats
    pickle far cheaper than arrays.

    >>> est = StreamingMeanCov()
    >>> for x in [(0.2, 0.5), (0.4, 0.7)]:
    ...     est.add(x)
    >>> est.n
    2
    >>> bool(abs(est.mean[0] - 0.3) < 1e-12)
    True
    """

    __slots__ = ("_n", "_mean0", "_mean1", "_m00", "_m01", "_m10", "_m11")

    def __init__(self) -> None:
        self._n = 0
        self._mean0 = self._mean1 = 0.0
        self._m00 = self._m01 = self._m10 = self._m11 = 0.0

    def __reduce__(self) -> tuple:
        return _restore, (
            self._n, self._mean0, self._mean1,
            self._m00, self._m01, self._m10, self._m11,
        )

    def add(self, observation: tuple[float, float] | np.ndarray) -> None:
        """Incorporate one ``(support, confidence)`` observation."""
        x0, x1 = _pair(observation)
        n = self._n = self._n + 1
        delta0 = x0 - self._mean0
        delta1 = x1 - self._mean1
        mean0 = self._mean0 = self._mean0 + delta0 / n
        mean1 = self._mean1 = self._mean1 + delta1 / n
        after0 = x0 - mean0
        after1 = x1 - mean1
        self._m00 = self._m00 + delta0 * after0
        self._m01 = self._m01 + delta0 * after1
        self._m10 = self._m10 + delta1 * after0
        self._m11 = self._m11 + delta1 * after1

    def remove(self, observation: tuple[float, float] | np.ndarray) -> None:
        """Remove a previously-added observation (reverse Welford).

        Supports the replace-a-member's-answer flow: when a member
        revises an answer, the old sample is removed and the new one
        added, keeping estimates exact without replaying history.
        """
        x0, x1 = _pair(observation)
        n = self._n
        if n == 0:
            raise ValueError("cannot remove from an empty estimator")
        if n == 1:
            self.__init__()  # back to the empty state
            return
        previous0 = (n * self._mean0 - x0) / (n - 1)
        previous1 = (n * self._mean1 - x1) / (n - 1)
        delta0 = x0 - previous0
        delta1 = x1 - previous1
        after0 = x0 - self._mean0
        after1 = x1 - self._mean1
        # Guard against tiny negative diagonals from cancellation.
        self._m00 = _clamp(self._m00 - delta0 * after0)
        self._m01 = self._m01 - delta0 * after1
        self._m10 = self._m10 - delta1 * after0
        self._m11 = _clamp(self._m11 - delta1 * after1)
        self._mean0 = previous0
        self._mean1 = previous1
        self._n = n - 1

    @property
    def n(self) -> int:
        """Number of observations."""
        return self._n

    @property
    def mean(self) -> np.ndarray:
        """Sample mean (2-vector). Zeros when empty."""
        return np.array((self._mean0, self._mean1))

    @property
    def cov(self) -> np.ndarray:
        """Unbiased sample covariance (2×2). Zeros when ``n < 2``."""
        if self._n < 2:
            return np.zeros((2, 2))
        k = self._n - 1
        return np.array(
            ((self._m00 / k, self._m01 / k), (self._m10 / k, self._m11 / k))
        )

    @property
    def sem_cov(self) -> np.ndarray:
        """Covariance of the *sample mean*: ``cov / n`` (zeros when n<2)."""
        n = self._n
        if n < 2:
            return np.zeros((2, 2))
        k = n - 1
        return np.array(
            (
                (self._m00 / k / n, self._m01 / k / n),
                (self._m10 / k / n, self._m11 / k / n),
            )
        )

    def copy(self) -> "StreamingMeanCov":
        """An independent copy of the estimator state."""
        restore, state = self.__reduce__()
        return restore(*state)

    def __repr__(self) -> str:
        return f"StreamingMeanCov(n={self._n}, mean={self.mean.round(4).tolist()})"


def _restore(
    n: int, mean0: float, mean1: float, m00: float, m01: float, m10: float, m11: float
) -> StreamingMeanCov:
    """Rebuild an estimator from its positional pickle."""
    est = StreamingMeanCov.__new__(StreamingMeanCov)
    est._n, est._mean0, est._mean1 = n, mean0, mean1
    est._m00, est._m01, est._m10, est._m11 = m00, m01, m10, m11
    return est
