"""Golden fingerprints: sessions whose results must not move.

The equivalence suites compare execution modes with each other inside
one commit; this registry pins absolute :meth:`MiningResult.fingerprint`
values, so a change that moves every mode alike (a numerics change, a
reordered draw, a habit pool that volunteers a different rule) fails
too. Every session here asks open questions, so each one exercises the
members' habit pools.

The sessions:

- ``sync_open/<world>/s<seed>``: the ``sync_open`` benchmark recipe
  (four object-crowd worlds, 250 questions, seeds 1-3), driven by
  ``miner.run()``;
- ``array/s1``: a synchronous session on the columnar crowd
  (``ArrayCrowd``), whose open answers build the same habit pools;
- ``dispatch_w8/s1``: a session dispatched eight questions at a time
  under lognormal latency;
- ``resume/s1``: a ``sync_open`` session captured mid-session,
  restored from the checkpoint bytes and run to the end; its members
  rebuild their habit pools after the restore.

The registry file records the Python, numpy and scipy versions it was
made with. numpy does not promise ``Generator`` streams across
versions, so a mismatch report prints both version sets: a stream
change can then be told apart from a code change.

Check the running code against every session (about 3 s) with::

    PYTHONPATH=src python -m tests.golden.registry

and regenerate the registry with ``--write``. The tier-1 suite checks
the ``TIER1`` subset (``pytest tests/golden``).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from collections.abc import Callable
from pathlib import Path

import numpy as np
import scipy

from repro.crowd import ArrayCrowd, SimulatedCrowd, standard_answer_model
from repro.dispatch import DispatchConfig, Dispatcher, LognormalLatency
from repro.estimation import Thresholds
from repro.eval.runner import ExperimentConfig, build_world
from repro.miner import CrowdMiner, CrowdMinerConfig
from repro.storage.checkpoint import capture_session, restore_session

REGISTRY = Path(__file__).with_name("registry.json")

THRESHOLDS = Thresholds(0.10, 0.5)
BUDGET = 250
#: The ``sync_open`` benchmark's world shape and catalogue.
SYNC_WORLD = dict(n_items=60, n_patterns=8, n_members=10, transactions_per_member=100)
SYNC_WORLD_SEEDS = (101, 102, 103, 104)
SEEDS = (1, 2, 3)
#: Questions answered before the resumed session is captured.
RESUME_AFTER = 120


def session_seeds(seed: int, index: int, n: int = 3) -> list[int]:
    """``n`` independent 63-bit seeds for session ``index`` of a run."""
    state = np.random.SeedSequence([seed, index]).generate_state(n, dtype=np.uint64)
    return [int(value >> np.uint64(1)) for value in state]


def _world(world_seed: int, **overrides):
    config = ExperimentConfig(
        name="golden",
        budget=BUDGET,
        checkpoints=(BUDGET,),
        repetitions=1,
        **{**SYNC_WORLD, **overrides},
    )
    _model, population, _ = build_world(config, seed=world_seed, ground_truth=False)
    return population


def _sync_miner(world_seed: int, seeds: list[int]) -> CrowdMiner:
    crowd = SimulatedCrowd.from_population(
        _world(world_seed), answer_model=standard_answer_model(), seed=seeds[0]
    )
    return CrowdMiner(
        crowd, CrowdMinerConfig(thresholds=THRESHOLDS, budget=BUDGET, seed=seeds[1])
    )


def sync_open(world: int, seed: int) -> str:
    index = SYNC_WORLD_SEEDS.index(world)
    return _sync_miner(world, session_seeds(seed, index)).run().fingerprint()


def array_session(seed: int) -> str:
    seeds = session_seeds(seed, 0)
    population = _world(SYNC_WORLD_SEEDS[0], n_members=200, population_backend="array")
    crowd = ArrayCrowd(population, answer_model=standard_answer_model(), seed=seeds[0])
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


#: Every registered session: name -> a function computing its fingerprint.
SESSIONS: dict[str, Callable[[], str]] = {
    **{
        f"sync_open/{world}/s{seed}": (lambda w=world, s=seed: sync_open(w, s))
        for seed in SEEDS
        for world in SYNC_WORLD_SEEDS
    },
    "array/s1": lambda: array_session(1),
    "dispatch_w8/s1": lambda: dispatched_session(1),
    "resume/s1": lambda: resumed_session(1),
}

#: The subset tier-1 checks: one session per execution mode and per
#: resume kind, plus every ``sync_open`` world at seed 1.
TIER1 = tuple(name for name in SESSIONS if name.endswith("/s1"))


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
