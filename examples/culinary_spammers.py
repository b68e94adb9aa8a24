"""Culinary crowd with spammers: robust aggregation in action.

A fifth of this crowd answers uniformly at random (classic crowdsourcing
spam). The example contrasts three defences from the estimation layer:

1. plain mean aggregation (no defence),
2. trimmed-mean aggregation (statistical robustness),
3. spammer screening (``screen_spammers=True``) — exploiting the
   crowd-mining-specific fact that reported support must be antitone
   along the rule lattice, which honest members respect and spammers
   cannot. The session's latent-ability model weights each member by
   how often their own answers break it.

Run:  python examples/culinary_spammers.py
"""

from repro import (
    SimulatedCrowd,
    Thresholds,
    build_population,
    compute_ground_truth,
    culinary_model,
    mine_crowd,
    standard_answer_model,
)
from repro.crowd import SpammerAnswerModel
from repro.estimation import TrimmedMeanAggregator
from repro.miner import CrowdMiner, CrowdMinerConfig

SPAMMER_EVERY = 5  # members 0, 5, 10, ... are spammers


def make_crowd(population, seed):
    """A crowd where every fifth member ignores the questions.

    The honest model is shared; each spammer is a per-member answer
    model of the one simulated crowd.
    """
    spammer = SpammerAnswerModel()
    return SimulatedCrowd(
        population,
        answer_model=standard_answer_model(),
        seed=seed,
        member_models={k: spammer for k in range(0, len(population), SPAMMER_EVERY)},
    )


def score(result, truth):
    mined = set(result.significant)
    tp = len(mined & truth.significant)
    precision = tp / len(mined) if mined else 1.0
    recall = tp / len(truth.significant) if truth.significant else 1.0
    return precision, recall


def main() -> None:
    model = culinary_model(seed=21)
    population = build_population(
        model, n_members=50, transactions_per_member=150, seed=22
    )
    thresholds = Thresholds(support=0.08, confidence=0.45)
    truth = compute_ground_truth(population, thresholds)
    print(f"ground truth: {len(truth.significant)} significant rules; "
          f"{len(population) // SPAMMER_EVERY} of {len(population)} members are spammers")

    print("\n=== plain mean aggregation ===")
    crowd = make_crowd(population, seed=23)
    plain = mine_crowd(crowd, thresholds, budget=1_500, seed=24)
    p, r = score(plain, truth)
    print(f"precision={p:.2f} recall={r:.2f} "
          f"({len(plain.significant)} rules reported)")

    print("\n=== trimmed-mean aggregation (trim 20%) ===")
    crowd = make_crowd(population, seed=23)
    trimmed = mine_crowd(
        crowd,
        thresholds,
        budget=1_500,
        seed=24,
        aggregator=TrimmedMeanAggregator(trim=0.2),
    )
    p, r = score(trimmed, truth)
    print(f"precision={p:.2f} recall={r:.2f} "
          f"({len(trimmed.significant)} rules reported)")

    print("\n=== spammer screening (who are the spammers?) ===")
    miner = CrowdMiner(
        make_crowd(population, seed=23),
        CrowdMinerConfig(
            thresholds=thresholds, budget=1_500, seed=24, screen_spammers=True
        ),
    )
    screened = miner.run()
    p, r = score(screened, truth)
    print(f"precision={p:.2f} recall={r:.2f} "
          f"({len(screened.significant)} rules reported)")
    trust = {m.member_id: miner.latent.trust(m.member_id) for m in population}
    flagged = sorted(member_id for member_id, t in trust.items() if t < 0.8)
    actual = {m.member_id for i, m in enumerate(population) if i % SPAMMER_EVERY == 0}
    caught = len(set(flagged) & actual)
    print(f"flagged {len(flagged)} members; {caught}/{len(actual)} are actual spammers")
    for member_id in flagged[:6]:
        mark = "SPAMMER" if member_id in actual else "honest"
        print(f"  {member_id}: trust={trust[member_id]:.2f} ({mark})")


if __name__ == "__main__":
    main()
