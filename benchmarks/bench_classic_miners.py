"""Substrate microbenchmark: the itemset miner on Quest data.

Not a paper figure — an engineering benchmark of the classic substrate
the reproduction stands on. pytest-benchmark records how long the
bitset miner takes on a Quest market-basket database. That its result
equals FP-Growth's, order included, is pinned by
``tests/classic/test_fpgrowth.py``.
"""

import pytest

from repro.classic import frequent_itemsets
from repro.synth import QuestConfig, QuestGenerator

SETTINGS = {
    "full": QuestConfig(n_items=120, n_transactions=6_000, n_patterns=30),
    "smoke": QuestConfig(n_items=60, n_transactions=1_000, n_patterns=12),
}
MIN_SUPPORT = 0.05
MAX_SIZE = 4


@pytest.fixture(scope="module")
def quest_db(scale):
    return QuestGenerator(SETTINGS[scale], seed=99).generate()


def test_classic_miner_speed(benchmark, quest_db):
    result = benchmark.pedantic(
        lambda: frequent_itemsets(quest_db, MIN_SUPPORT, max_size=MAX_SIZE),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    assert result  # found something
