"""ArrayPopulation: columnar state, lazy facades, bounded pickles.

The contract under test (``docs/scaling.md``):

- array queries and object facades are two views of the same data —
  ``rule_stats_at`` divides the same integer counts as the facade's
  ``TransactionDB``, bit for bit, and the item matrix holds exactly the
  occasion draws the stream layout specifies (checked against a
  test-local, one-element-at-a-time splitmix64 reference);
- member state is a pure function of the root entropy: access order,
  cache eviction and fresh instances never change a member;
- pickles carry the recipe, not the state — size stays flat however
  large the crowd, and a restored population regenerates identically.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Rule
from repro.errors import ConfigurationError
from repro.synth import (
    ArrayPopulation,
    folk_remedies_model,
    random_domain,
    random_habit_model,
)


@pytest.fixture(scope="module")
def model():
    return folk_remedies_model(seed=1)


@pytest.fixture(scope="module")
def population(model):
    return ArrayPopulation(model, n_members=60, transactions_per_member=80, seed=7)


def random_rules(model, count, seed):
    rng = np.random.default_rng(seed)
    items = tuple(model.domain.items)
    rules = set()
    while len(rules) < count:
        size = int(rng.integers(2, 5))
        chosen = [items[k] for k in rng.choice(len(items), size=size, replace=False)]
        cut = int(rng.integers(1, size))
        rules.add(Rule(chosen[:cut], chosen[cut:]))
    return sorted(rules, key=str)


_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(h):
    h ^= h >> 30
    h = (h * 0xBF58476D1CE4E5B9) & _MASK
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & _MASK
    return h ^ (h >> 31)


def _absorb(h, value):
    return _mix((h + value + _GAMMA) & _MASK)


def reference_matrix(population, k):
    """Member ``k``'s item matrix, one splitmix64 draw at a time.

    The stream layout of the module docstring, written out directly:
    background draws ``(entropy, 2, member, item)``; a held habit's
    antecedent draws ``(entropy, 1, member, 2·pattern)`` place its
    antecedent items, and those AND its conditional draws
    ``(…, 2·pattern+1)`` place its consequent (an itemset habit draws
    its body once, at the product rate).
    """
    t = population.transactions_per_member
    items = list(population.domain.items)
    patterns = population.model.patterns

    def draws(kind, stream, rate):
        key = _absorb(_absorb(_absorb(population.entropy & _MASK, kind), k), stream)
        threshold = int(rate * (1 << 53))
        return np.array(
            [(_mix((key + i * _GAMMA) & _MASK) >> 11) < threshold for i in range(1, t + 1)]
        )

    matrix = np.zeros((t, len(items)), dtype=bool)
    if population.model.background_rate > 0.0:
        for j in range(len(items)):
            matrix[:, j] |= draws(2, j, population.model.background_rate)
    for habit in population.profile_at(k).habits:
        p = patterns.index(habit.pattern)
        rule = habit.pattern.rule
        if rule.is_itemset_rule:
            body = draws(1, 2 * p, habit.antecedent_rate * habit.conditional_rate)
        else:
            ant = draws(1, 2 * p, habit.antecedent_rate)
            body = ant & draws(1, 2 * p + 1, habit.conditional_rate)
            for item in rule.antecedent:
                matrix[:, items.index(item)] |= ant
        for item in rule.consequent:
            matrix[:, items.index(item)] |= body
    return matrix


def _overlapping_model(background_rate):
    # Itemset habits, habits sharing items, and rates clipped to exactly
    # 0 and 1 (a wide rate_std): every branch of the occasion plan.
    return random_habit_model(
        random_domain(14, seed=3),
        n_patterns=9,
        seed=4,
        antecedent_size=(0, 2),
        consequent_size=(1, 2),
        conditional_rate_range=(0.6, 1.0),
        rate_std=0.4,
        background_rate=background_rate,
        allow_overlap=True,
    )


#: Populations the kernel property draws from: the folk domain, and an
#: overlapping itemset-heavy model with and without background noise.
KERNEL_POPULATIONS = (
    ArrayPopulation(folk_remedies_model(seed=1), n_members=60, transactions_per_member=80, seed=7),
    ArrayPopulation(_overlapping_model(0.0), n_members=50, transactions_per_member=45, seed=8),
    ArrayPopulation(_overlapping_model(0.05), n_members=50, transactions_per_member=64, seed=9),
)


@st.composite
def member_and_rule(draw):
    """A population, one of its members, and a rule over its items
    (itemset rules and items outside the domain included)."""
    population = draw(st.sampled_from(KERNEL_POPULATIONS))
    index = draw(st.integers(0, len(population) - 1))
    items = list(population.domain.items) + ["not an item", "nor this"]
    body = draw(st.lists(st.sampled_from(items), min_size=1, max_size=5, unique=True))
    cut = draw(st.integers(0, len(body) - 1))
    return population, index, Rule(body[:cut], body[cut:])


class TestFacadeEquality:
    @settings(max_examples=120, deadline=None)
    @given(member_and_rule())
    def test_kernel_matches_reference_draws(self, case):
        population, index, rule = case
        assert population.rule_stats_at(index, rule) == population.db_at(
            index
        ).rule_stats(rule)
        assert np.array_equal(
            population.item_matrix(index), reference_matrix(population, index)
        )

    def test_rule_stats_match_facade_db_bit_for_bit(self, model, population):
        for rule in random_rules(model, 25, seed=11):
            for index in (0, 7, 31, 59):
                array_stats = population.rule_stats_at(index, rule)
                db_stats = population.db_at(index).rule_stats(rule)
                assert array_stats == db_stats, (rule, index)

    def test_facade_db_matches_item_matrix(self, population):
        index = 13
        matrix = population.item_matrix(index)
        db = population.db_at(index)
        items = tuple(population.domain.items)
        for t, transaction in enumerate(db):
            assert transaction == frozenset(
                items[j] for j in np.flatnonzero(matrix[t])
            )

    def test_profile_habits_subset_of_model_patterns(self, model, population):
        patterns = {p.rule for p in model.patterns}
        profile = population.profile_at(21)
        assert {habit.pattern.rule for habit in profile.habits} <= patterns


class TestDeterminism:
    def test_same_entropy_same_members(self, model, population):
        twin = ArrayPopulation(
            model, n_members=60, transactions_per_member=80, seed=7
        )
        for index in (0, 29, 59):
            assert np.array_equal(
                population.item_matrix(index), twin.item_matrix(index)
            )
            assert population.trust_prior_at(index) == twin.trust_prior_at(index)

    def test_access_order_does_not_matter(self, model):
        forward = ArrayPopulation(
            model, n_members=40, transactions_per_member=60, seed=3
        )
        backward = ArrayPopulation(
            model, n_members=40, transactions_per_member=60, seed=3
        )
        first = [forward.item_matrix(k).copy() for k in range(40)]
        second = [backward.item_matrix(k) for k in reversed(range(40))][::-1]
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_facade_cache_eviction_is_invisible(self, model):
        population = ArrayPopulation(
            model, n_members=10, transactions_per_member=50, seed=5
        )
        before = population.db_at(3)
        population._facades.clear()
        population._matrices.clear()
        after = population.db_at(3)
        assert list(before) == list(after)


class TestIdentity:
    def test_id_index_roundtrip(self, population):
        for index in (0, 5, 59):
            assert population.index_of(population.member_id_at(index)) == index

    def test_unknown_ids_raise(self, population):
        # "u00001", "u+001", "u0_01" and full-width digits all parse
        # with int(); only the canonical form is an id.
        for bad in (
            "u9999", "x0001", "", "u-1", "u01",
            "u00001", "u+001", "u0_01", "u\uff10\uff10\uff10\uff11",
        ):
            with pytest.raises(KeyError):
                population.index_of(bad)

    def test_len_and_iteration_agree(self, model):
        population = ArrayPopulation(
            model, n_members=12, transactions_per_member=30, seed=9
        )
        members = list(population)
        assert len(population) == len(members) == 12
        assert [m.member_id for m in members] == [
            population.member_id_at(k) for k in range(12)
        ]


class TestMaterialize:
    def test_materialized_members_share_columns(self, population):
        materialized = population.materialize()
        assert len(materialized.members) == len(population)
        for index in (0, 17, 59):
            assert list(materialized.members[index].db) == list(
                population.db_at(index)
            )

    def test_refuses_to_materialize_huge_crowds(self, model):
        huge = ArrayPopulation(
            model, n_members=200_000, transactions_per_member=50, seed=9
        )
        with pytest.raises(ConfigurationError):
            huge.materialize()


class TestPickling:
    def test_pickle_size_flat_in_member_count(self, model):
        small = ArrayPopulation(model, n_members=100, transactions_per_member=50, seed=4)
        large = ArrayPopulation(
            model, n_members=1_000_000, transactions_per_member=50, seed=4
        )
        # Touch state so lazy caches exist, then check they are excluded.
        small.db_at(3)
        large.db_at(3)
        small_pickle = pickle.dumps(small)
        large_pickle = pickle.dumps(large)
        assert len(large_pickle) <= len(small_pickle) + 64

    def test_restored_population_regenerates_identically(self, model):
        population = ArrayPopulation(
            model, n_members=30, transactions_per_member=40, seed=8
        )
        expected = population.item_matrix(11).copy()
        restored = pickle.loads(pickle.dumps(population))
        assert np.array_equal(restored.item_matrix(11), expected)
        assert restored.member_id_at(11) == population.member_id_at(11)
