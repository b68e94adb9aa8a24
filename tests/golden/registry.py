"""Golden fingerprints: sessions whose results must not move.

The equivalence suites compare execution modes with each other inside
one commit; this registry pins absolute :meth:`MiningResult.fingerprint`
values, so a change that moves every mode alike (a numerics change, a
reordered draw, a habit pool that volunteers a different rule) fails
too.

The sessions that ask open questions, so each one exercises the
members' habit pools:

- ``sync_open/<world>/s<seed>``: the ``sync_open`` benchmark recipe
  (four object-crowd worlds, 250 questions, seeds 1-3), driven by
  ``miner.run()``;
- ``array/s1``: a synchronous session on the crowd over a columnar
  population, whose open answers build the same habit pools;
- ``dispatch_w8/s1``: a session dispatched eight questions at a time
  under lognormal latency;
- ``resume/s1``: a ``sync_open`` session captured mid-session,
  restored from the checkpoint bytes and run to the end; its members
  rebuild their habit pools after the restore.

The sessions that schedule over crowd partitions or a serving roster,
each recorded with its books (``DispatchStats`` or the serve
counters) beside its fingerprint:

- ``sharded_closed/<world>/s1``: the ``sharded_closed`` benchmark
  recipe (a 100,000-member columnar crowd, 2,000 seeded rules, closed
  questions only, four shards of eight in flight), both worlds;
- ``sharded_patience/s1``: four shards over a 2,000-member columnar
  crowd with patience 1, so every answer is a departure that every
  lane applies;
- ``sharded_simulated/s1``: four shards over a crowd on an explicit
  population whose patience runs out before the budget does;
- ``sharded_resume/s1``: a patience-1 four-shard session captured at
  an event boundary with questions in flight, restored from the
  checkpoint bytes and run to the end;
- ``sharded_seeded_object/s1``: a seeded, closed-only session over
  four shards of eight in flight, on the crowd over a 30-member
  columnar population's ``materialize()``, so members are asked more
  than once;
- ``sharded_seeded_array/s1``: the same session over the columnar
  population itself; its record equals its explicit twin's;
- ``served/s1``: one ``served_durable`` scenario driven in-process
  through a ``ServeSession`` over its ``WorkerRoster``, checkpointed
  every 25 questions to a memory store.

The sessions over an adversary mix with quarantine on (a 20-member
differential ``Scenario``, crowd built by ``build_adversarial_crowd``),
each recorded with the sorted ids of the members it quarantined, and
each asserting that it quarantined at least one:

- ``quarantine/<mix>/s1``: synchronous sessions over the
  ``colluder:0.3``, ``garbled:0.2`` and ``spammer:0.2,garbled:0.1``
  mixes;
- ``quarantine_sharded/colluder/s1``: the colluder mix dispatched over
  two shards, with its ``DispatchStats``;
- ``quarantine_resume/colluder/s1``: the colluder session captured
  right after its first quarantine, restored from the checkpoint bytes
  and run to the end;
- ``quarantine_served/colluder/s1``: the colluder mix served in-process
  over its ``WorkerRoster``, with the serve books;
- ``quarantine_dispatched/<mix>/s1``: each mix dispatched over one
  shard, eight in flight, under lognormal latency with a 240 s
  timeout, with its ``DispatchStats``; late answers are never read,
  and the garbled mixes drop malformed answers at the miner's gate.

The sessions over a mix of drifting and lazy members
(``drifter:0.2,lazy:0.2``) with quarantine off, on the same 20-member
scenario shape:

- ``drift_lazy/s1``: synchronous, its fingerprint alone;
- ``drift_lazy_dispatched/s1``: dispatched like
  ``quarantine_dispatched``, with its ``DispatchStats``.

The sessions with spammer screening on, over a 20-member ``sync_open``
world where a quarter of the crowd are spammers. They ask closed
questions only, about the rules a classic miner finds in the pooled
population, so each member answers comparable rules that screening
can score:

- ``screened/spammer/s1``: screening alone;
- ``screened_quarantine/spammer/s1``: screening and quarantine
  together, with the sorted quarantined ids.

The registry file records the Python, numpy and scipy versions it was
made with. numpy does not promise ``Generator`` streams across
versions, so a mismatch report prints both version sets: a stream
change can then be told apart from a code change.

Check the running code against every session (about 7 s) with::

    PYTHONPATH=src python -m tests.golden.registry

and regenerate the registry with ``--write``. The tier-1 suite checks
the ``TIER1`` subset (``pytest tests/golden``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import sys
from collections.abc import Callable
from pathlib import Path

import numpy as np
import scipy

from repro.classic import mine_rules
from repro.core import Rule
from repro.crowd import SimulatedCrowd, standard_answer_model
from repro.dispatch import DispatchConfig, Dispatcher, LognormalLatency
from repro.estimation import Thresholds
from repro.eval.runner import ExperimentConfig, build_world
from repro.faults import build_adversarial_crowd
from repro.miner import CrowdMiner, CrowdMinerConfig, FixedRatioPolicy
from repro.serve.differential import Scenario, drive_inprocess, run_session_inprocess
from repro.storage import open_backend
from repro.storage.checkpoint import capture_session, restore_session
from repro.synth import ArrayPopulation, folk_remedies_model

REGISTRY = Path(__file__).with_name("registry.json")

THRESHOLDS = Thresholds(0.10, 0.5)
BUDGET = 250
#: The ``sync_open`` benchmark's world shape and catalogue.
SYNC_WORLD = dict(n_items=60, n_patterns=8, n_members=10, transactions_per_member=100)
SYNC_WORLD_SEEDS = (101, 102, 103, 104)
SEEDS = (1, 2, 3)
#: Questions answered before the resumed session is captured.
RESUME_AFTER = 120

#: The ``sharded_closed`` benchmark's world shape, catalogue and recipe.
SHARDED_WORLD = dict(
    n_items=80,
    n_patterns=10,
    n_members=100_000,
    transactions_per_member=100,
    population_backend="array",
)
SHARDED_WORLD_SEEDS = (201, 202)
SHARDED_SEED_RULES = 2_000
SHARDED_BUDGET = 3_000
SHARDS = 4
WINDOW = 8
#: The smaller sharded sessions: columnar crowd size, and the
#: simulated time at which the resumed one is captured.
SHARDED_MEMBERS = 2_000
SHARDED_CAPTURE_AT = 240.0
#: The seeded sharded session: a population small enough that
#: members are asked again, its seed rules and its budget.
SEEDED_POPULATION = dict(n_members=30, transactions_per_member=60, seed=2)
SEEDED_RULES = 120
SEEDED_BUDGET = 240

#: The first ``served_durable`` session slot.
SERVE_WORLD_SEED = 301
SERVE_SCENARIO = dict(n_members=8, transactions_per_member=40, budget=400)
SERVE_CHECKPOINT_EVERY = 25

#: The adversary mixes, by session name, and their scenario shape.
QUARANTINE_MIXES = {
    "colluder": (("colluder", 0.3),),
    "garbled": (("garbled", 0.2),),
    "spammer_garbled": (("spammer", 0.2), ("garbled", 0.1)),
}
QUARANTINE_SCENARIO = dict(n_members=20, budget=300, quarantine=True)
QUARANTINE_SHARDS = 2
#: The one-shard dispatched sessions' answer timeout, in simulated seconds.
QUARANTINE_TIMEOUT = 240.0
#: Drifting and lazy members, mined with quarantine off.
DRIFT_LAZY_MIX = (("drifter", 0.2), ("lazy", 0.2))

#: The screened sessions' adversary mix, crowd size, budget and the
#: pooled support of their seed rules.
SCREEN_MIX = (("spammer", 0.25),)
SCREEN_MEMBERS = 20
SCREEN_BUDGET = 300
SCREEN_SEED_SUPPORT = 0.05


def session_seeds(seed: int, index: int, n: int = 3) -> list[int]:
    """``n`` independent 63-bit seeds for session ``index`` of a run."""
    state = np.random.SeedSequence([seed, index]).generate_state(n, dtype=np.uint64)
    return [int(value >> np.uint64(1)) for value in state]


def _world(world_seed: int, budget: int = BUDGET, shape=SYNC_WORLD, **overrides):
    config = ExperimentConfig(
        name="golden",
        budget=budget,
        checkpoints=(budget,),
        repetitions=1,
        **{**shape, **overrides},
    )
    model, population, _ = build_world(config, seed=world_seed, ground_truth=False)
    return model, population


def _sync_miner(world_seed: int, seeds: list[int]) -> CrowdMiner:
    _model, population = _world(world_seed)
    crowd = SimulatedCrowd.from_population(
        population, answer_model=standard_answer_model(), seed=seeds[0]
    )
    return CrowdMiner(
        crowd, CrowdMinerConfig(thresholds=THRESHOLDS, budget=BUDGET, seed=seeds[1])
    )


def sync_open(world: int, seed: int) -> str:
    index = SYNC_WORLD_SEEDS.index(world)
    return _sync_miner(world, session_seeds(seed, index)).run().fingerprint()


def array_session(seed: int) -> str:
    seeds = session_seeds(seed, 0)
    _model, population = _world(
        SYNC_WORLD_SEEDS[0], n_members=200, population_backend="array"
    )
    crowd = SimulatedCrowd(population, answer_model=standard_answer_model(), seed=seeds[0])
    miner = CrowdMiner(
        crowd, CrowdMinerConfig(thresholds=THRESHOLDS, budget=BUDGET, seed=seeds[1])
    )
    return miner.run().fingerprint()


def dispatched_session(seed: int) -> str:
    seeds = session_seeds(seed, 0)
    miner = _sync_miner(SYNC_WORLD_SEEDS[1], seeds)
    config = DispatchConfig(
        window=8, latency=LognormalLatency(median=60.0, sigma=1.0), seed=seeds[2]
    )
    return Dispatcher(miner, config).run().fingerprint()


def resumed_session(seed: int) -> str:
    miner = _sync_miner(SYNC_WORLD_SEEDS[2], session_seeds(seed, 2))
    miner.run(max_questions=RESUME_AFTER)
    restored, _ = restore_session(capture_session(miner))
    return restored.run().fingerprint()


def _dispatched(dispatcher: Dispatcher, **extra) -> dict:
    """Run a dispatched session: its fingerprint and its books."""
    result = dispatcher.run()
    return {
        "fingerprint": result.fingerprint(),
        "dispatch": dataclasses.asdict(result.dispatch),
        **extra,
    }


def _seed_rules(items, count: int, rng: np.random.Generator) -> tuple[Rule, ...]:
    """``count`` distinct random candidate rules (2–4 item bodies)."""
    rules: set[Rule] = set()
    while len(rules) < count:
        size = int(rng.integers(2, 5))
        chosen = [items[k] for k in rng.choice(len(items), size=size, replace=False)]
        cut = int(rng.integers(1, size))
        rules.add(Rule(chosen[:cut], chosen[cut:]))
    return tuple(sorted(rules, key=str))


def sharded_closed(world: int, seed: int) -> dict:
    seeds = session_seeds(seed, SHARDED_WORLD_SEEDS.index(world))
    model, population = _world(world, budget=SHARDED_BUDGET, shape=SHARDED_WORLD)
    rules = _seed_rules(
        model.domain.items, SHARDED_SEED_RULES, np.random.default_rng(seeds[0])
    )
    crowd = SimulatedCrowd(population, answer_model=standard_answer_model(), seed=seeds[1])
    miner = CrowdMiner(
        crowd,
        CrowdMinerConfig(
            thresholds=THRESHOLDS,
            budget=SHARDED_BUDGET,
            seed_rules=rules,
            open_policy=FixedRatioPolicy(0.0, fallback_to_open=False),
            expand_generalizations=False,
            expand_splits=False,
            seed=seeds[2],
        ),
    )
    config = DispatchConfig(
        window=WINDOW, latency=LognormalLatency(median=60.0, sigma=1.0), seed=seeds[2] + 1
    )
    return _dispatched(Dispatcher(miner, config, shards=SHARDS))


def _sharded_array(world_seed: int, seeds: list[int], **dispatch) -> Dispatcher:
    """Four shards over a patience-1 columnar crowd: every answer departs."""
    _model, population = _world(
        world_seed, n_members=SHARDED_MEMBERS, population_backend="array"
    )
    crowd = SimulatedCrowd(
        population, answer_model=standard_answer_model(), patience=1, seed=seeds[0]
    )
    miner = CrowdMiner(
        crowd, CrowdMinerConfig(thresholds=THRESHOLDS, budget=BUDGET, seed=seeds[1])
    )
    config = DispatchConfig(
        window=WINDOW,
        latency=LognormalLatency(median=60.0, sigma=1.0),
        seed=seeds[2],
        **dispatch,
    )
    return Dispatcher(miner, config, shards=SHARDS)


def sharded_patience(seed: int) -> dict:
    return _dispatched(_sharded_array(SYNC_WORLD_SEEDS[0], session_seeds(seed, 0)))


def sharded_simulated(seed: int) -> dict:
    seeds = session_seeds(seed, 1)
    _model, population = _world(SYNC_WORLD_SEEDS[1], n_members=40)
    # 40 members x patience 5 < the budget: every lane runs dry.
    crowd = SimulatedCrowd.from_population(
        population, answer_model=standard_answer_model(), patience=5, seed=seeds[0]
    )
    miner = CrowdMiner(
        crowd, CrowdMinerConfig(thresholds=THRESHOLDS, budget=BUDGET, seed=seeds[1])
    )
    config = DispatchConfig(
        window=WINDOW, latency=LognormalLatency(median=60.0, sigma=1.0), seed=seeds[2]
    )
    return _dispatched(Dispatcher(miner, config, shards=SHARDS))


def sharded_resume(seed: int) -> dict:
    # A finite timeout: retries walk a restored lane's available members.
    dispatcher = _sharded_array(SYNC_WORLD_SEEDS[2], session_seeds(seed, 2), timeout=240.0)
    dispatcher.advance_to(SHARDED_CAPTURE_AT)
    in_flight = dispatcher.in_flight_count
    _miner, restored = restore_session(capture_session(dispatcher.miner, dispatcher))
    return _dispatched(restored, in_flight_at_capture=in_flight)


def sharded_seeded(seed: int, crowd_backend: str) -> dict:
    """Seeded closed questions over four shards; the crowd is the object
    crowd over the population's ``materialize()``, or the columnar one."""
    seeds = session_seeds(seed, 0)
    population = ArrayPopulation(folk_remedies_model(seed=1), **SEEDED_POPULATION)
    rules = _seed_rules(
        population.domain.items, SEEDED_RULES, np.random.default_rng(seeds[0])
    )
    if crowd_backend == "object":
        crowd = SimulatedCrowd.from_population(
            population.materialize(), answer_model=standard_answer_model(), seed=seeds[1]
        )
    else:
        crowd = SimulatedCrowd(population, answer_model=standard_answer_model(), seed=seeds[1])
    miner = CrowdMiner(
        crowd,
        CrowdMinerConfig(
            thresholds=THRESHOLDS,
            budget=SEEDED_BUDGET,
            seed_rules=rules,
            open_policy=FixedRatioPolicy(0.0, fallback_to_open=False),
            expand_generalizations=False,
            expand_splits=False,
            seed=seeds[2],
        ),
    )
    config = DispatchConfig(
        window=WINDOW,
        timeout=240.0,
        latency=LognormalLatency(median=60.0, sigma=1.0),
        seed=seeds[2] + 1,
    )
    return _dispatched(Dispatcher(miner, config, shards=SHARDS))


def served_session(seed: int) -> dict:
    crowd_seed, miner_seed = session_seeds(seed, 0, 2)
    scenario = Scenario(
        model_seed=SERVE_WORLD_SEED,
        crowd_seed=crowd_seed % 2**31,
        miner_seed=miner_seed % 2**31,
        **SERVE_SCENARIO,
    )
    session, pool = run_session_inprocess(
        scenario,
        storage=open_backend(None, "memory"),
        checkpoint_every=SERVE_CHECKPOINT_EVERY,
    )
    result = drive_inprocess(session, pool)
    return {"fingerprint": result.fingerprint(), "serve": session.stats()}


def _quarantine_scenario(mix: str, seed: int) -> Scenario:
    crowd_seed, miner_seed = session_seeds(seed, list(QUARANTINE_MIXES).index(mix), 2)
    return Scenario(
        crowd_seed=crowd_seed % 2**31,
        miner_seed=miner_seed % 2**31,
        adversary_mix=QUARANTINE_MIXES[mix],
        **QUARANTINE_SCENARIO,
    )


def _quarantined(crowd) -> list[str]:
    """The sorted ids ``crowd`` quarantined; a session must quarantine someone."""
    quarantined = sorted(crowd.quarantined_members)
    assert quarantined, "the adversary session quarantined nobody"
    return quarantined


def quarantine_session(mix: str, seed: int) -> dict:
    scenario = _quarantine_scenario(mix, seed)
    crowd = scenario.build_crowd()
    result = CrowdMiner(crowd, scenario.miner_config()).run()
    return {"fingerprint": result.fingerprint(), "quarantined": _quarantined(crowd)}


def quarantine_sharded(seed: int) -> dict:
    scenario = _quarantine_scenario("colluder", seed)
    crowd = scenario.build_crowd()
    miner = CrowdMiner(crowd, scenario.miner_config())
    config = DispatchConfig(
        window=WINDOW,
        latency=LognormalLatency(median=60.0, sigma=1.0),
        seed=scenario.miner_seed + 1,
    )
    books = _dispatched(Dispatcher(miner, config, shards=QUARANTINE_SHARDS))
    return {**books, "quarantined": _quarantined(crowd)}


def _one_shard(scenario: Scenario, crowd) -> Dispatcher:
    """One shard, eight in flight, lognormal latency and a finite timeout."""
    config = DispatchConfig(
        window=WINDOW,
        timeout=QUARANTINE_TIMEOUT,
        latency=LognormalLatency(median=60.0, sigma=1.0),
        seed=scenario.miner_seed + 1,
    )
    return Dispatcher(CrowdMiner(crowd, scenario.miner_config()), config)


def quarantine_dispatched(mix: str, seed: int) -> dict:
    scenario = _quarantine_scenario(mix, seed)
    crowd = scenario.build_crowd()
    books = _dispatched(_one_shard(scenario, crowd))
    return {**books, "quarantined": _quarantined(crowd)}


def _drift_lazy_scenario(seed: int) -> Scenario:
    crowd_seed, miner_seed = session_seeds(seed, len(QUARANTINE_MIXES), 2)
    return Scenario(
        crowd_seed=crowd_seed % 2**31,
        miner_seed=miner_seed % 2**31,
        adversary_mix=DRIFT_LAZY_MIX,
        **{**QUARANTINE_SCENARIO, "quarantine": False},
    )


def drift_lazy(seed: int, dispatched: bool) -> str | dict:
    scenario = _drift_lazy_scenario(seed)
    crowd = scenario.build_crowd()
    if dispatched:
        return _dispatched(_one_shard(scenario, crowd))
    return CrowdMiner(crowd, scenario.miner_config()).run().fingerprint()


def quarantine_resume(seed: int) -> dict:
    scenario = _quarantine_scenario("colluder", seed)
    miner = CrowdMiner(scenario.build_crowd(), scenario.miner_config())
    while not miner.crowd.quarantined_members:
        miner.step()
    captured_at = miner.questions_asked
    restored, _ = restore_session(capture_session(miner))
    result = restored.run()
    return {
        "fingerprint": result.fingerprint(),
        "quarantined": _quarantined(restored.crowd),
        "captured_at": captured_at,
    }


def quarantine_served(seed: int) -> dict:
    session, pool = run_session_inprocess(
        _quarantine_scenario("colluder", seed),
        storage=open_backend(None, "memory"),
        checkpoint_every=SERVE_CHECKPOINT_EVERY,
    )
    result = drive_inprocess(session, pool)
    return {
        "fingerprint": result.fingerprint(),
        "serve": session.stats(),
        "quarantined": _quarantined(session.miner.crowd),
    }


def screened_session(seed: int, quarantine: bool) -> str | dict:
    """Closed questions with spammer screening on, and quarantine too
    when ``quarantine`` is set."""
    seeds = session_seeds(seed, 0)
    _model, population = _world(SYNC_WORLD_SEEDS[0], n_members=SCREEN_MEMBERS)
    rules = mine_rules(population.union_db(), SCREEN_SEED_SUPPORT, 0.0, max_size=3)
    crowd, _roles = build_adversarial_crowd(
        population, SCREEN_MIX, answer_model=standard_answer_model(), seed=seeds[0]
    )
    miner = CrowdMiner(
        crowd,
        CrowdMinerConfig(
            thresholds=THRESHOLDS,
            budget=SCREEN_BUDGET,
            seed_rules=tuple(sorted(rules, key=Rule.sort_key)),
            open_policy=FixedRatioPolicy(0.0, fallback_to_open=False),
            screen_spammers=True,
            quarantine=quarantine,
            seed=seeds[1],
        ),
    )
    fingerprint = miner.run().fingerprint()
    if not quarantine:
        return fingerprint
    return {"fingerprint": fingerprint, "quarantined": _quarantined(crowd)}


#: Every registered session: name -> a function computing its fingerprint,
#: or its fingerprint and books.
SESSIONS: dict[str, Callable[[], str | dict]] = {
    **{
        f"sync_open/{world}/s{seed}": (lambda w=world, s=seed: sync_open(w, s))
        for seed in SEEDS
        for world in SYNC_WORLD_SEEDS
    },
    "array/s1": lambda: array_session(1),
    "dispatch_w8/s1": lambda: dispatched_session(1),
    "resume/s1": lambda: resumed_session(1),
    **{
        f"sharded_closed/{world}/s1": (lambda w=world: sharded_closed(w, 1))
        for world in SHARDED_WORLD_SEEDS
    },
    "sharded_patience/s1": lambda: sharded_patience(1),
    "sharded_simulated/s1": lambda: sharded_simulated(1),
    "sharded_resume/s1": lambda: sharded_resume(1),
    "sharded_seeded_object/s1": lambda: sharded_seeded(1, "object"),
    "sharded_seeded_array/s1": lambda: sharded_seeded(1, "array"),
    "served/s1": lambda: served_session(1),
    **{
        f"quarantine/{mix}/s1": (lambda m=mix: quarantine_session(m, 1))
        for mix in QUARANTINE_MIXES
    },
    "quarantine_sharded/colluder/s1": lambda: quarantine_sharded(1),
    "quarantine_resume/colluder/s1": lambda: quarantine_resume(1),
    "quarantine_served/colluder/s1": lambda: quarantine_served(1),
    **{
        f"quarantine_dispatched/{mix}/s1": (lambda m=mix: quarantine_dispatched(m, 1))
        for mix in QUARANTINE_MIXES
    },
    "drift_lazy/s1": lambda: drift_lazy(1, dispatched=False),
    "drift_lazy_dispatched/s1": lambda: drift_lazy(1, dispatched=True),
    "screened/spammer/s1": lambda: screened_session(1, quarantine=False),
    "screened_quarantine/spammer/s1": lambda: screened_session(1, quarantine=True),
}

#: The subset tier-1 checks: one session per execution mode and per
#: resume kind, every ``sync_open`` world at seed 1, a small sharded
#: session with departures, a sharded columnar session that fills
#: whole windows with closed questions, a session resumed with
#: members under quarantine, the session running screening and
#: quarantine together, and a dispatched session whose garbled members'
#: malformed answers the miner drops.
TIER1 = (
    *(f"sync_open/{world}/s1" for world in SYNC_WORLD_SEEDS),
    "array/s1",
    "dispatch_w8/s1",
    "resume/s1",
    "sharded_patience/s1",
    "sharded_seeded_array/s1",
    "quarantine_resume/colluder/s1",
    "screened_quarantine/spammer/s1",
    "quarantine_dispatched/garbled/s1",
)


def versions() -> dict[str, str]:
    """The versions a fingerprint can depend on beyond this package."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def load() -> dict:
    """The committed registry document."""
    return json.loads(REGISTRY.read_text(encoding="utf-8"))


def mismatches(names) -> list[str]:
    """One report line per session of ``names`` whose fingerprint moved.

    The lines end with the recorded and the running version sets when
    any session moved.
    """
    doc = load()
    recorded = doc["sessions"]
    problems = []
    for name in names:
        got = SESSIONS[name]()
        if got != recorded.get(name):
            problems.append(f"{name}: recorded {recorded.get(name)}, got {got}")
    if problems:
        problems.append(f"recorded with {doc['versions']}")
        problems.append(f"running with  {versions()}")
    return problems


def write() -> None:
    """Recompute every session and write them, with this interpreter's versions."""
    sessions = {name: SESSIONS[name]() for name in sorted(SESSIONS)}
    doc = {"versions": versions(), "sessions": sessions}
    REGISTRY.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--write",
        action="store_true",
        help="recompute every session and overwrite the registry instead of checking",
    )
    args = parser.parse_args(argv)
    print(f"golden registry: running with {versions()}")
    if args.write:
        write()
        print(f"wrote {len(SESSIONS)} sessions to {REGISTRY}")
        return 0
    print(f"checking {len(SESSIONS)} sessions")
    problems = mismatches(SESSIONS)
    for line in problems:
        print(line)
    print("golden registry: " + ("MISMATCH" if problems else "all fingerprints match"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
