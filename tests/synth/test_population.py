"""Tests for population builders."""

import pickle

import numpy as np
import pytest

from repro.core import Itemset, Rule, TransactionDB
from repro.errors import ConfigurationError, EmptyDatabaseError
from repro.synth import (
    Member,
    Population,
    QuestConfig,
    QuestGenerator,
    build_population,
    partition_global_db,
)


class TestPopulation:
    def test_requires_members(self, folk_model):
        with pytest.raises(ConfigurationError):
            Population(domain=folk_model.domain, members=())

    def test_unique_ids_required(self, folk_model):
        db = TransactionDB([["honey"]])
        members = (
            Member("u1", db),
            Member("u1", db),
        )
        with pytest.raises(ConfigurationError, match="unique"):
            Population(domain=folk_model.domain, members=members)

    def test_member_lookup(self, folk_population):
        member = folk_population.member("u0003")
        assert member.member_id == "u0003"
        with pytest.raises(KeyError):
            folk_population.member("nobody")

    def test_len_and_iter(self, folk_population):
        assert len(folk_population) == 25
        assert len(list(folk_population)) == 25

    def test_pickle_keeps_ids_and_databases_only(self, folk_population):
        restored = pickle.loads(pickle.dumps(folk_population))
        assert [m.member_id for m in restored] == [m.member_id for m in folk_population]
        assert [list(m.db) for m in restored] == [list(m.db) for m in folk_population]
        assert restored.member("u0003").member_id == "u0003"
        assert all(m.profile is None for m in restored)


class TestBuildPopulation:
    def test_sizes(self, folk_model):
        pop = build_population(folk_model, 5, transactions_per_member=30, seed=1)
        assert len(pop) == 5
        assert all(len(m.db) == 30 for m in pop)
        assert pop.equal_sized

    def test_profiles_attached(self, folk_model):
        pop = build_population(folk_model, 3, 20, seed=1)
        assert all(m.profile is not None for m in pop)

    def test_deterministic(self, folk_model):
        a = build_population(folk_model, 3, 20, seed=9)
        b = build_population(folk_model, 3, 20, seed=9)
        assert [list(m.db) for m in a] == [list(m.db) for m in b]

    def test_mean_stats_match_union_support(self, folk_population):
        # Equal-sized DBs ⇒ crowd-mean itemset support == union support.
        itemset = Itemset(["sore throat", "ginger tea"])
        union = folk_population.union_db()
        assert folk_population.mean_itemset_support(itemset) == pytest.approx(
            union.support(itemset)
        )

    def test_mean_rule_stats_sane(self, folk_population):
        support, confidence = folk_population.mean_rule_stats(
            Rule(["sore throat"], ["ginger tea"])
        )
        assert 0.0 < support < 1.0
        assert support <= confidence <= 1.0


class TestPartitionGlobalDB:
    @pytest.fixture(scope="class")
    def quest(self):
        gen = QuestGenerator(QuestConfig(n_items=40, n_transactions=800), seed=3)
        return gen, gen.generate()

    def test_default_sizes(self, quest):
        gen, db = quest
        pop = partition_global_db(db, gen.domain, 8, seed=4)
        assert len(pop) == 8
        assert all(len(m.db) == 100 for m in pop)

    def test_explicit_size(self, quest):
        gen, db = quest
        pop = partition_global_db(db, gen.domain, 4, transactions_per_member=25, seed=4)
        assert all(len(m.db) == 25 for m in pop)

    def test_no_profiles(self, quest):
        gen, db = quest
        pop = partition_global_db(db, gen.domain, 3, seed=4)
        assert all(m.profile is None for m in pop)

    def test_transactions_come_from_global(self, quest):
        gen, db = quest
        global_rows = set(db)
        pop = partition_global_db(db, gen.domain, 3, seed=4)
        for member in pop:
            for row in member.db:
                assert row in global_rows

    def test_zero_heterogeneity_unbiased(self, quest):
        gen, db = quest
        pop = partition_global_db(db, gen.domain, 6, heterogeneity=0.0, seed=5)
        assert len(pop) == 6

    def test_heterogeneity_skews_members(self, quest):
        gen, db = quest
        uniform = partition_global_db(
            db, gen.domain, 12, heterogeneity=0.0, seed=6,
            transactions_per_member=150,
        )
        skewed = partition_global_db(
            db, gen.domain, 12, heterogeneity=5.0, seed=6,
            transactions_per_member=150,
        )

        def member_spread(pop):
            # Across-member std of each item's support, averaged.
            items = pop.domain.items
            per_item = []
            for item in items:
                supports = [m.db.support(Itemset([item])) for m in pop]
                per_item.append(np.std(supports))
            return float(np.mean(per_item))

        assert member_spread(skewed) > member_spread(uniform)

    def test_empty_global_rejected(self, quest):
        gen, _ = quest
        with pytest.raises(EmptyDatabaseError):
            partition_global_db(TransactionDB([]), gen.domain, 3)
