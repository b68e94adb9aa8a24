"""repro — crowd mining from a simulated crowd.

A production-quality reproduction of **"Crowd Mining"** (Amsterdamer,
Grossman, Milo, Senellart — SIGMOD 2013): mining significant
association rules about people's habits when the underlying data lives
only in crowd members' heads and can be reached solely by asking
questions.

The top-level namespace re-exports the objects a typical user needs;
the subpackages hold the full API:

- :mod:`repro.core` — items, itemsets, rules, measures, transaction DBs;
- :mod:`repro.classic` — the bitset itemset miner and rule generation
  over materialized databases;
- :mod:`repro.synth` — latent habit models, synthetic generators and
  crowd populations;
- :mod:`repro.crowd` — the simulated crowd (questions, answer models,
  members);
- :mod:`repro.estimation` — streaming estimates, the significance test
  and aggregation;
- :mod:`repro.miner` — the CrowdMiner algorithm and ground-truth oracle;
- :mod:`repro.dispatch` — the asynchronous question dispatcher:
  simulated-time event clock, latency models, in-flight batching with
  timeout/retry;
- :mod:`repro.obs` — session instrumentation: hot-path counters,
  wall-clock timers and trace events;
- :mod:`repro.eval` — the experiment harness reproducing the paper's
  evaluation.

Quickstart::

    from repro import (
        Thresholds, SimulatedCrowd, mine_crowd,
        folk_remedies_model, build_population, standard_answer_model,
    )

    model = folk_remedies_model(seed=1)
    population = build_population(model, n_members=40, seed=2)
    crowd = SimulatedCrowd.from_population(
        population, answer_model=standard_answer_model(), seed=3)
    result = mine_crowd(crowd, Thresholds(0.10, 0.5), budget=800, seed=4)
    print(result.summary())
"""

from repro.classic import mine_rules
from repro.core import ItemDomain, Itemset, Rule, RuleStats, TransactionDB
from repro.crowd import (
    OpenAnswerPolicy,
    SimulatedCrowd,
    standard_answer_model,
)
from repro.errors import ReproError
from repro.estimation import Decision, SignificanceTest, Thresholds
from repro.miner import (
    CrowdMiner,
    CrowdMinerConfig,
    GroundTruth,
    MiningResult,
    compute_ground_truth,
    mine_crowd,
)

# The dispatch package builds on the miner, so it must import after it.
from repro.dispatch import (
    DispatchConfig,
    Dispatcher,
    DispatchStats,
    EventClock,
    LatencyProfile,
    heavy_tail_latency,
    parse_latency,
)
from repro.obs import Instrumentation, ObsSnapshot
from repro.synth import (
    LatentHabitModel,
    Population,
    build_population,
    culinary_model,
    folk_remedies_model,
    partition_global_db,
    travel_model,
)

__version__ = "1.0.0"

__all__ = [
    "CrowdMiner",
    "CrowdMinerConfig",
    "Decision",
    "DispatchConfig",
    "DispatchStats",
    "Dispatcher",
    "EventClock",
    "GroundTruth",
    "Instrumentation",
    "ItemDomain",
    "Itemset",
    "LatencyProfile",
    "LatentHabitModel",
    "MiningResult",
    "ObsSnapshot",
    "OpenAnswerPolicy",
    "Population",
    "ReproError",
    "Rule",
    "RuleStats",
    "SignificanceTest",
    "SimulatedCrowd",
    "Thresholds",
    "TransactionDB",
    "__version__",
    "build_population",
    "compute_ground_truth",
    "culinary_model",
    "folk_remedies_model",
    "heavy_tail_latency",
    "mine_crowd",
    "parse_latency",
    "mine_rules",
    "partition_global_db",
    "standard_answer_model",
    "travel_model",
]
