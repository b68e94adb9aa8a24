"""Tests for open-answer behaviour."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.crowd.crowd as crowd_module
from repro._util import weighted_choice
from repro.classic.rulegen import mine_rules
from repro.core import Itemset, Rule, TransactionDB
from repro.crowd import HabitPool, OpenAnswerPolicy, SimulatedCrowd
from tests.crowd.populations import population_of


@pytest.fixture
def db():
    # "cough→tea" dominates; "headache→coffee" is a weaker habit.
    return TransactionDB(
        [["cough", "tea"]] * 8 + [["headache", "coffee"]] * 2
    )


def pool_rules(db, policy):
    return dict(HabitPool(db, policy).rules())


class TestPersonalRules:
    def test_pool_respects_thresholds(self, db):
        policy = OpenAnswerPolicy(
            personal_min_support=0.5, personal_min_confidence=0.5
        )
        pool = pool_rules(db, policy)
        assert Rule(["cough"], ["tea"]) in pool
        assert Rule(["headache"], ["coffee"]) not in pool  # support 0.2

    def test_pool_caps_body_size(self):
        db = TransactionDB([["a", "b", "c", "d", "e"]] * 5)
        policy = OpenAnswerPolicy(max_body_size=2)
        pool = pool_rules(db, policy)
        assert pool
        assert all(len(rule) <= 2 for rule in pool)

    def test_empty_db_empty_pool(self, rng):
        pool = HabitPool(TransactionDB([]), OpenAnswerPolicy())
        assert len(pool) == 0
        assert pool.choose(Itemset.empty(), (), rng) is None

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            OpenAnswerPolicy(max_body_size=0)

    @pytest.mark.parametrize("size", [2.5, 0.5, -1])
    def test_body_size_must_be_a_positive_integer(self, size):
        # A cap of 2.5 used to be accepted and to yield 3-item habits.
        with pytest.raises(ValueError, match="max_body_size"):
            OpenAnswerPolicy(max_body_size=size)


class TestChoose:
    def test_prominence_prefers_strong_rules(self, db, rng):
        policy = OpenAnswerPolicy(
            personal_min_support=0.1, personal_min_confidence=0.3, sharpness=2.0
        )
        pool = HabitPool(db, policy)
        counts = {True: 0, False: 0}
        for _ in range(100):
            rule, _ = pool.choose(Itemset.empty(), (), rng)
            counts[rule.body == Itemset(["cough", "tea"])] += 1
        assert counts[True] > counts[False]

    def test_exclusion(self, db, rng):
        pool = HabitPool(db, OpenAnswerPolicy(personal_min_support=0.1))
        everything = [rule for rule, _ in pool.rules()]
        assert pool.choose(Itemset.empty(), everything, rng) is None
        # Excluding all but one habit leaves exactly that one.
        rule, stats = pool.choose(Itemset.empty(), everything[1:], rng)
        assert rule == everything[0]
        assert stats == db.rule_stats(rule)

    def test_context_filters_antecedent(self, db, rng):
        policy = OpenAnswerPolicy(
            personal_min_support=0.1, personal_min_confidence=0.3
        )
        pool = HabitPool(db, policy)
        for _ in range(20):
            choice = pool.choose(Itemset(["headache"]), (), rng)
            assert choice is not None
            rule, _ = choice
            assert "headache" in rule.antecedent
        # An item the member never saw leaves nothing to say.
        assert pool.choose(Itemset(["yoga"]), (), rng) is None

    def test_zero_sharpness_is_uniform(self, db, rng):
        policy = OpenAnswerPolicy(
            personal_min_support=0.1, personal_min_confidence=0.3, sharpness=0.0
        )
        pool = HabitPool(db, policy)
        seen = set()
        for _ in range(300):
            rule, _ = pool.choose(Itemset.empty(), (), rng)
            seen.add(rule)
        assert seen == set(pool_rules(db, policy))


@pytest.fixture
def pool_builds(monkeypatch):
    """Every habit pool the crowd builds, recorded as it is built."""
    builds = []

    class CountingPool(HabitPool):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(crowd_module, "HabitPool", CountingPool)
    return builds


def crowd_over(*dbs, seed=1):
    return SimulatedCrowd(
        population_of(*dbs, ids=[f"u{k + 1}" for k in range(len(dbs))]),
        open_policy=OpenAnswerPolicy(personal_min_support=0.1),
        seed=seed,
    )


class TestCache:
    def test_pool_computed_once(self, db, pool_builds):
        crowd = crowd_over(db)
        assert pool_builds == []  # lazy: nothing mined before an open question
        for _ in range(3):
            crowd.ask_open("u1")
        assert len(pool_builds) == 1

    def test_distinct_dbs_distinct_pools(self, db):
        # Members sharing one policy still volunteer from their own habits.
        other = TransactionDB([["x", "y"]] * 5)
        crowd = crowd_over(db, other)
        assert crowd.ask_open("u1").rule.body.isdisjoint(["x", "y"])
        assert crowd.ask_open("u2").rule.body == Itemset(["x", "y"])

    def test_pickled_member_rebuilds_its_pool(self, db, pool_builds):
        # The pool never travels in a pickle (this one could not: its
        # class is local to the fixture); the restored crowd rebuilds
        # it and its member answers exactly like the original.
        crowd = crowd_over(db, seed=3)
        crowd.ask_open("u1")
        restored = pickle.loads(pickle.dumps(crowd))
        for _ in range(4):
            ours = crowd.ask_open("u1")
            theirs = restored.ask_open("u1")
            assert (theirs.rule, theirs.stats) == (ours.rule, ours.stats)
        assert len(pool_builds) == 2


# -- equivalence with mining every rule as an object ---------------------------

ITEMS = "abcdefg"

databases = st.lists(
    st.sets(st.sampled_from(ITEMS), max_size=5), min_size=0, max_size=30
).map(TransactionDB)

policies = st.builds(
    OpenAnswerPolicy,
    personal_min_support=st.sampled_from([0.05, 0.1, 0.2, 0.4]),
    personal_min_confidence=st.sampled_from([0.0, 0.3, 0.6, 1.0]),
    max_body_size=st.integers(1, 5),
    # 1e4 underflows every weight below s·c = 1 to exactly 0.
    sharpness=st.sampled_from([0.0, 0.5, 2.0, 1e4]),
)


def reference_pool(db, policy):
    """Every habit as a ``Rule`` → ``RuleStats`` dict, the classic way."""
    if len(db) == 0:
        return {}
    return mine_rules(
        db,
        min_support=policy.personal_min_support,
        min_confidence=policy.personal_min_confidence,
        max_size=policy.max_body_size,
    )


def reference_choose(pool, policy, context, exclude, rng):
    """A full scan of the object pool, then one weighted draw."""
    candidates = [
        (rule, stats)
        for rule, stats in pool.items()
        if rule not in exclude and context.issubset(rule.antecedent)
    ]
    if context:
        candidates = [
            (rule, stats)
            for rule, stats in candidates
            if not rule.consequent.issubset(context)
        ]
    if not candidates:
        return None
    weights = [
        (stats.support * stats.confidence) ** policy.sharpness
        if policy.sharpness
        else 1.0
        for _, stats in candidates
    ]
    return weighted_choice(rng, candidates, weights)


class TestPoolEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(databases, policies)
    def test_pool_lists_the_mined_rules_in_order(self, db, policy):
        expected = list(reference_pool(db, policy).items())
        assert list(HabitPool(db, policy).rules()) == expected

    @settings(max_examples=150, deadline=None)
    @given(
        databases,
        policies,
        st.data(),
        st.sets(st.sampled_from(ITEMS + "xy"), max_size=2),
        st.integers(0, 2**32 - 1),
    )
    def test_choose_matches_a_full_scan(self, db, policy, data, context, seed):
        reference = reference_pool(db, policy)
        rules = list(reference)
        exclude = set(
            data.draw(st.lists(st.sampled_from(rules), unique=True)) if rules else ()
        )
        # Rules the member does not hold are excluded harmlessly.
        exclude.add(Rule(["x"], ["y"]))
        context = Itemset(context)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        pool = HabitPool(db, policy)
        for _ in range(3):
            got = pool.choose(context, exclude, ours)
            want = reference_choose(reference, policy, context, exclude, theirs)
            assert got == want
            assert ours.bit_generator.state == theirs.bit_generator.state
            if got is None:
                break
            exclude.add(got[0])

    @settings(max_examples=150, deadline=None)
    @given(databases, policies, st.data(), st.integers(0, 2**32 - 1))
    def test_exclusions_never_carry_between_calls(self, db, policy, data, seed):
        # One pool asked again and again answers every call exactly like
        # a pool built for that call alone: the positions it remembers
        # from earlier exclusions exclude nothing by themselves.
        rules = list(reference_pool(db, policy))
        # Rules an asker may name: the member's habits, the same bodies
        # split the other way (habits or not), the bodies as itemset
        # rules, and a rule on items the member never saw.
        universe = sorted(
            {
                *rules,
                *(Rule(rule.consequent, rule.antecedent) for rule in rules),
                *(Rule.itemset_rule(rule.body) for rule in rules),
                Rule(["x"], ["y"]),
            },
            key=Rule.sort_key,
        )
        pool = HabitPool(db, policy)
        avoid, drawn = set(), None
        for call in range(6):
            kind = data.draw(st.sampled_from(["shrinking", "disjoint", "any"]))
            if kind == "shrinking":
                pick_from = sorted(avoid, key=Rule.sort_key)
            elif kind == "disjoint":
                pick_from = [rule for rule in universe if rule not in avoid]
            else:
                pick_from = universe
            avoid = set(
                data.draw(st.lists(st.sampled_from(pick_from), unique=True))
                if pick_from
                else ()
            )
            if drawn is not None and data.draw(st.booleans()):
                avoid.add(drawn)
            ours = np.random.default_rng([seed, call])
            theirs = np.random.default_rng([seed, call])
            got = pool.choose(Itemset.empty(), avoid, ours)
            assert got == HabitPool(db, policy).choose(Itemset.empty(), avoid, theirs)
            assert ours.bit_generator.state == theirs.bit_generator.state
            drawn = None if got is None else got[0]
        # The memo holds only rules of the pool, one entry each.
        assert set(pool._positions) <= set(rules)

    def test_fully_excluded_pool_draws_nothing(self, db):
        policy = OpenAnswerPolicy(personal_min_support=0.1)
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        assert HabitPool(db, policy).choose(
            Itemset.empty(), set(reference_pool(db, policy)), rng
        ) is None
        assert rng.bit_generator.state == before

    def test_weights_that_underflow_fall_back_to_uniform(self, db):
        policy = OpenAnswerPolicy(personal_min_support=0.1, sharpness=1e4)
        reference = reference_pool(db, policy)
        assert all(
            (s.support * s.confidence) ** policy.sharpness == 0.0
            for s in reference.values()
        )
        ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
        got = HabitPool(db, policy).choose(Itemset.empty(), (), ours)
        assert got == reference_choose(reference, policy, Itemset.empty(), set(), theirs)
        assert ours.bit_generator.state == theirs.bit_generator.state
