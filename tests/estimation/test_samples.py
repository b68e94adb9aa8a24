"""Tests for per-rule sample stores."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Rule, RuleStats
from repro.estimation import RuleSamples
from tests.estimation.test_welford import NumpyStreamingMeanCov


@pytest.fixture
def store():
    return RuleSamples(Rule(["a"], ["b"]))


class TestAccumulation:
    def test_counts_distinct_members(self, store):
        store.add("u1", RuleStats(0.2, 0.5))
        store.add("u2", RuleStats(0.4, 0.6))
        assert store.n == 2
        assert store.member_ids == {"u1", "u2"}

    def test_same_member_revises_not_appends(self, store):
        store.add("u1", RuleStats(0.2, 0.5))
        store.add("u1", RuleStats(0.8, 0.9))
        assert store.n == 1
        assert store.observation_of("u1") == RuleStats(0.8, 0.9)
        summary = store.summary()
        assert np.allclose(summary.mean, [0.8, 0.9])

    def test_revision_keeps_estimator_exact(self, store):
        store.add("u1", RuleStats(0.2, 0.5))
        store.add("u2", RuleStats(0.4, 0.6))
        store.add("u1", RuleStats(0.6, 0.7))
        summary = store.summary()
        data = np.array([[0.6, 0.7], [0.4, 0.6]])
        assert np.allclose(summary.mean, data.mean(axis=0))
        expected_cov = np.cov(data, rowvar=False, ddof=1) / 2
        assert np.allclose(summary.mean_cov, expected_cov, atol=1e-9)

    def test_has_answer_from(self, store):
        store.add("u1", RuleStats(0.2, 0.5))
        assert store.has_answer_from("u1")
        assert not store.has_answer_from("u2")

    def test_observation_of_missing_is_none(self, store):
        assert store.observation_of("nobody") is None


class TestSummaries:
    def test_empty_summary(self, store):
        summary = store.summary()
        assert summary.n == 0
        assert np.allclose(summary.mean, 0.0)

    def test_single_sample_no_cov(self, store):
        store.add("u1", RuleStats(0.3, 0.6))
        summary = store.summary()
        assert summary.n == 1
        assert np.allclose(summary.mean, [0.3, 0.6])
        assert np.allclose(summary.mean_cov, 0.0)

    def test_as_array_shape(self, store):
        assert store.as_array().shape == (0, 2)
        store.add("u1", RuleStats(0.3, 0.6))
        assert store.as_array().shape == (1, 2)


class TestVersion:
    def test_starts_at_zero(self, store):
        assert store.version == 0

    def test_bumps_on_every_add(self, store):
        store.add("u1", RuleStats(0.2, 0.5))
        assert store.version == 1
        # A revision is a change too — cached aggregates must expire.
        store.add("u1", RuleStats(0.4, 0.6))
        assert store.version == 2

    def test_reads_do_not_bump(self, store):
        store.add("u1", RuleStats(0.2, 0.5))
        store.summary()
        store.as_array()
        assert store.version == 1


class ReferenceRuleSamples:
    """The store the pair-keeping one must match: one RuleStats per member
    over the numpy-formulation estimator."""

    def __init__(self) -> None:
        self._by_member: dict[str, RuleStats] = {}
        self._estimator = NumpyStreamingMeanCov()

    def add(self, member_id, stats) -> None:
        previous = self._by_member.get(member_id)
        if previous is not None:
            self._estimator.remove(previous.as_tuple())
        self._by_member[member_id] = stats
        self._estimator.add(stats.as_tuple())

    def remove(self, member_id) -> bool:
        previous = self._by_member.pop(member_id, None)
        if previous is None:
            return False
        self._estimator.remove(previous.as_tuple())
        return True

    def observation_of(self, member_id):
        return self._by_member.get(member_id)

    def observations(self):
        return list(self._by_member.items())

    def as_array(self):
        if not self._by_member:
            return np.zeros((0, 2))
        return np.array([s.as_tuple() for s in self._by_member.values()])


MEMBERS = [f"u{i}" for i in range(6)]
stats_values = st.tuples(
    st.floats(0.0, 1.0, allow_nan=False), st.floats(0.0, 1.0, allow_nan=False)
).map(lambda pair: RuleStats(min(pair), max(pair)))
store_operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(MEMBERS), stats_values),
        st.tuples(st.just("remove"), st.sampled_from(MEMBERS), st.none()),
    ),
    max_size=50,
)


class TestSameValuesAsRuleStatsStore:
    @settings(max_examples=150, deadline=None)
    @given(store_operations)
    def test_reads_match_bit_for_bit(self, ops):
        store = RuleSamples(Rule(["a"], ["b"]))
        reference = ReferenceRuleSamples()
        for op, member_id, stats in ops:
            if op == "add":
                store.add(member_id, stats)
                reference.add(member_id, stats)
            else:
                assert store.remove(member_id) == reference.remove(member_id)
            for copy in (store, pickle.loads(pickle.dumps(store))):
                assert copy.observations() == reference.observations()
                for member in MEMBERS:
                    assert copy.observation_of(member) == reference.observation_of(
                        member
                    )
                assert copy.as_array().tobytes() == reference.as_array().tobytes()
                summary = copy.summary()
                assert summary.n == reference._estimator._n
                assert summary.mean.tobytes() == reference._estimator.mean.tobytes()
                assert (
                    summary.mean_cov.tobytes()
                    == reference._estimator.sem_cov.tobytes()
                )
