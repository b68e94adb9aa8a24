"""Classic association-rule mining on a synthetic market-basket DB.

The library's classic substrate is a complete miner in its own right.
This example generates a Quest-style retail database, mines its
frequent itemsets with the library's bitset miner, derives confident
rules — then partitions the same database into personal databases to
build a "crowd from real data" (the E6 setup).

Run:  python examples/classic_mining.py
"""

from repro import SimulatedCrowd, Thresholds, mine_crowd, partition_global_db, standard_answer_model
from repro.classic import frequent_itemsets, rules_from_itemsets
from repro.miner import compute_ground_truth
from repro.synth import QuestConfig, QuestGenerator

MIN_SUPPORT = 0.05
MIN_CONFIDENCE = 0.6


def main() -> None:
    generator = QuestGenerator(
        QuestConfig(n_items=100, n_transactions=4_000, n_patterns=25), seed=41
    )
    db = generator.generate()
    print(f"generated {len(db)} transactions over {len(db.items)} active items")

    supports = frequent_itemsets(db, MIN_SUPPORT, max_size=4)
    print(f"frequent itemsets @ support {MIN_SUPPORT}: {len(supports)}")

    rules = rules_from_itemsets(supports, MIN_CONFIDENCE)
    print(f"confident rules @ confidence {MIN_CONFIDENCE}: {len(rules)}")
    top = sorted(rules.items(), key=lambda kv: -kv[1].support)[:5]
    for rule, stats in top:
        print(f"  {rule}  {stats}")

    # Crowd-from-real-data: split the global DB into personal DBs and
    # mine it back through the crowd interface. Quest baskets are far
    # denser than habit data, so the interesting query uses high
    # thresholds ("what does almost everyone do almost always?") —
    # lower ones make thousands of rules significant.
    population = partition_global_db(
        db, generator.domain, n_members=40, transactions_per_member=100,
        heterogeneity=1.0, seed=42,
    )
    thresholds = Thresholds(0.25, 0.75)
    truth = compute_ground_truth(population, thresholds, max_body_size=3)
    crowd = SimulatedCrowd.from_population(
        population, answer_model=standard_answer_model(), seed=43
    )
    result = mine_crowd(crowd, thresholds, budget=1_500, seed=44)
    mined = set(result.significant)
    tp = len(mined & truth.significant)
    print(f"\ncrowd-from-real-data: truth={len(truth.significant)} "
          f"mined={len(mined)} (precision {tp / max(1, len(mined)):.2f}, "
          f"recall {tp / max(1, len(truth.significant)):.2f})")


if __name__ == "__main__":
    main()
