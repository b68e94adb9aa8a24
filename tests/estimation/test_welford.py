"""Property tests for the streaming mean/covariance estimator."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.estimation import StreamingMeanCov

observations = st.lists(
    st.tuples(
        st.floats(0.0, 1.0, allow_nan=False), st.floats(0.0, 1.0, allow_nan=False)
    ),
    min_size=1,
    max_size=40,
)


class TestAgainstNumpy:
    @settings(max_examples=80, deadline=None)
    @given(observations)
    def test_mean_matches(self, data):
        est = StreamingMeanCov()
        for x in data:
            est.add(x)
        assert np.allclose(est.mean, np.mean(data, axis=0), atol=1e-10)

    @settings(max_examples=80, deadline=None)
    @given(observations)
    def test_cov_matches(self, data):
        est = StreamingMeanCov()
        for x in data:
            est.add(x)
        if len(data) < 2:
            assert np.allclose(est.cov, 0.0)
        else:
            expected = np.cov(np.array(data), rowvar=False, ddof=1)
            assert np.allclose(est.cov, expected, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(observations, st.integers(0, 39))
    def test_remove_inverts_add(self, data, index):
        index = index % len(data)
        est = StreamingMeanCov()
        for x in data:
            est.add(x)
        est.remove(data[index])
        remaining = data[:index] + data[index + 1 :]
        if not remaining:
            assert est.n == 0
        else:
            assert np.allclose(est.mean, np.mean(remaining, axis=0), atol=1e-9)
            if len(remaining) >= 2:
                expected = np.cov(np.array(remaining), rowvar=False, ddof=1)
                assert np.allclose(est.cov, expected, atol=1e-8)


class TestBasics:
    def test_empty_state(self):
        est = StreamingMeanCov()
        assert est.n == 0
        assert np.allclose(est.mean, 0.0)
        assert np.allclose(est.cov, 0.0)
        assert np.allclose(est.sem_cov, 0.0)

    def test_sem_cov_is_cov_over_n(self):
        est = StreamingMeanCov()
        for x in [(0.1, 0.2), (0.3, 0.6), (0.2, 0.9)]:
            est.add(x)
        assert np.allclose(est.sem_cov, est.cov / 3)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="2-vector"):
            StreamingMeanCov().add((1.0, 2.0, 3.0))  # type: ignore[arg-type]

    def test_remove_from_empty_rejected(self):
        with pytest.raises(ValueError):
            StreamingMeanCov().remove((0.1, 0.1))

    def test_copy_is_independent(self):
        est = StreamingMeanCov()
        est.add((0.5, 0.5))
        clone = est.copy()
        clone.add((0.1, 0.9))
        assert est.n == 1
        assert clone.n == 2

    def test_variance_never_negative_after_removals(self):
        est = StreamingMeanCov()
        data = [(0.1, 0.1), (0.1, 0.1), (0.1, 0.1)]
        for x in data:
            est.add(x)
        est.remove((0.1, 0.1))
        assert est.cov[0, 0] >= 0.0
        assert est.cov[1, 1] >= 0.0


class NumpyStreamingMeanCov:
    """The numpy formulation the float estimator must match bit for bit.

    A frozen copy of the array-state estimator: mean and co-moment
    matrix as numpy arrays, updated with elementwise array operations.
    """

    def __init__(self) -> None:
        self._n = 0
        self._mean = np.zeros(2)
        self._m2 = np.zeros((2, 2))

    def add(self, observation) -> None:
        x = np.asarray(observation, dtype=float)
        if x.shape != (2,):
            raise ValueError(f"observation must be a 2-vector, got shape {x.shape}")
        self._n += 1
        delta = x - self._mean
        self._mean = self._mean + delta / self._n
        delta2 = x - self._mean
        self._m2 = self._m2 + np.outer(delta, delta2)

    def remove(self, observation) -> None:
        x = np.asarray(observation, dtype=float)
        if self._n == 0:
            raise ValueError("cannot remove from an empty estimator")
        if self._n == 1:
            self.__init__()
            return
        mean_prev = (self._n * self._mean - x) / (self._n - 1)
        delta = x - mean_prev
        delta2 = x - self._mean
        self._m2 = self._m2 - np.outer(delta, delta2)
        self._mean = mean_prev
        self._n -= 1
        np.fill_diagonal(self._m2, np.maximum(np.diag(self._m2), 0.0))

    @property
    def mean(self):
        return self._mean.copy()

    @property
    def cov(self):
        if self._n < 2:
            return np.zeros((2, 2))
        return self._m2 / (self._n - 1)

    @property
    def sem_cov(self):
        if self._n < 2:
            return np.zeros((2, 2))
        return self.cov / self._n

    def state(self) -> tuple:
        return (self._n, *self._mean.tolist(), *self._m2.ravel().tolist())


def _state(est: StreamingMeanCov) -> tuple:
    """The float estimator's positional pickle state."""
    _restore, state = est.__reduce__()
    return state


def _reference(state: tuple) -> NumpyStreamingMeanCov:
    """The numpy formulation in the float estimator's pickled state."""
    ref = NumpyStreamingMeanCov()
    ref._n = state[0]
    ref._mean = np.array(state[1:3])
    ref._m2 = np.array(state[3:]).reshape(2, 2)
    return ref


def _bits(values) -> bytes:
    """Exact bit patterns (tells -0.0 from 0.0)."""
    return np.asarray(values, dtype=float).tobytes()


def assert_same(est: StreamingMeanCov, ref: NumpyStreamingMeanCov) -> None:
    assert est.n == ref._n
    mine, theirs = _state(est), ref.state()
    assert mine[0] == theirs[0]
    assert _bits(mine[1:]) == _bits(theirs[1:])
    for name in ("mean", "cov", "sem_cov"):
        value = getattr(est, name)
        assert isinstance(value, np.ndarray)
        assert _bits(value) == _bits(getattr(ref, name)), name


unit = st.floats(0.0, 1.0, allow_nan=False)
#: Operations: add an observation, remove one added earlier (by index
#: into the adds so far), or revise (remove an earlier one, add anew).
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.tuples(unit, unit)),
        st.tuples(st.just("remove"), st.integers(0, 50)),
        st.tuples(st.just("revise"), st.tuples(st.integers(0, 50), st.tuples(unit, unit))),
    ),
    max_size=60,
)


class TestBitIdenticalToNumpyFormulation:
    @settings(max_examples=200, deadline=None)
    @given(operations)
    def test_add_remove_revise_sequences(self, ops):
        est, ref = StreamingMeanCov(), NumpyStreamingMeanCov()
        live: list[tuple[float, float]] = []
        for op, arg in ops:
            if op == "add":
                est.add(arg)
                ref.add(arg)
                live.append(arg)
            elif not live:
                with pytest.raises(ValueError):
                    est.remove((0.5, 0.5))
                with pytest.raises(ValueError):
                    ref.remove((0.5, 0.5))
            elif op == "remove":
                x = live.pop(arg % len(live))
                est.remove(x)
                ref.remove(x)
            else:
                index, new = arg
                old = live.pop(index % len(live))
                est.remove(old)
                ref.remove(old)
                est.add(new)
                ref.add(new)
                live.append(new)
            assert_same(est, ref)
            assert_same(est.copy(), ref)
            assert_same(pickle.loads(pickle.dumps(est)), ref)

    def test_removing_the_last_observation_resets(self):
        est, ref = StreamingMeanCov(), NumpyStreamingMeanCov()
        for x in [(0.3, 0.7), (0.1, 0.2)]:
            est.add(x)
            ref.add(x)
        for x in [(0.1, 0.2), (0.3, 0.7)]:
            est.remove(x)
            ref.remove(x)
            assert_same(est, ref)
        assert est.n == 0
        # Back to the empty state: the next add starts from zero.
        est.add((0.4, 0.4))
        ref.add((0.4, 0.4))
        assert_same(est, ref)

    @pytest.mark.parametrize(
        "diagonal, removed",
        [
            (-0.0, (0.5, 0.5)),  # -0.0 - 0.0 stays -0.0 before the clamp
            (1e-18, (0.5 + 1e-9, 0.5 + 1e-9)),  # cancels to a tiny negative
            (0.0, (0.5 + 1e-9, 0.5 + 1e-9)),
            (5e-324, (0.5, 0.5)),  # the smallest subnormal survives
        ],
    )
    def test_diagonal_clamp_matches_numpy_maximum(self, diagonal, removed):
        n, mean = 3, (0.5, 0.5)
        ref = NumpyStreamingMeanCov()
        ref._n, ref._mean = n, np.array(mean)
        ref._m2 = np.array([[diagonal, 0.25], [-0.25, diagonal]])
        restore, _ = StreamingMeanCov().__reduce__()
        est = restore(n, *mean, diagonal, 0.25, -0.25, diagonal)
        assert_same(est, ref)
        est.remove(removed)
        ref.remove(removed)
        assert_same(est, ref)
        assert_same(pickle.loads(pickle.dumps(est)), ref)

    def test_pickle_is_positional_floats(self):
        est = StreamingMeanCov()
        est.add((0.2, 0.6))
        est.add((0.4, 0.9))
        _restore, state = est.__reduce__()
        assert state[0] == 2
        assert all(type(value) is float for value in state[1:])
        assert_same(pickle.loads(pickle.dumps(est)), _reference(state))
