"""The benchmark's workloads: three ways of driving a mining session.

Each workload is a function ``(seed, seconds, tracer, ...) ->
Measurement`` that repeatedly sets up a session (timed as set-up),
drives it (timed as busy time, one wall-clock latency sample per
question), and checks its outputs outside the timed regions.

Inputs. Every workload mines a small fixed catalogue of synthetic
worlds — the habit model and the crowd's personal databases, like a
benchmark's fixed dataset — and ``--seed`` draws everything else: the
crowd's answer noise and scheduling, the miner's tie-breaks, the seeded
candidate rules and the simulated latencies. Session ``i`` of a run
takes world ``i mod len(catalogue)`` and seeds derived from
``(seed, i)``; a run always finishes the round it started, so every
world weighs the same in every run. (Habit models differ wildly in how
many rules their members can volunteer, so a seed-drawn world per
session makes throughput a property of the draw rather than of the
code.)

- ``sync_open`` — the paper's loop as ``miner.run()`` would drive it:
  one ``step()`` at a time over an object crowd, the adaptive open/
  closed policy, rule expansion on. Open questions make simulated
  members mine their personal rules (FP-growth over their own
  transactions), so the crowd layer is exercised hardest here.
- ``sharded_closed`` — the scale path: a 100k-member columnar crowd,
  thousands of seeded candidate rules, closed questions only, four
  shards with eight questions in flight each under lognormal simulated
  latency. Open-answer simulation is bypassed entirely; the knowledge
  base, significance test, dispatcher and batched answering dominate.
- ``served_durable`` — the live service: one asyncio HTTP server with
  eight concurrent sessions, each persisted to its own WAL-mode SQLite
  store and checkpointed every 25 questions, driven by eight closed-loop
  clients (no think time) over real localhost sockets. The clients
  replay the answers each session's synchronous reference run recorded
  before timing started, so simulating members stays off the clock and
  the serving stack is what is measured.

Correctness: every session's evidence count must equal its ingested
closed answers, dispatcher and serve books must balance, the first
session of a run must replay to the same fingerprint, and every served
session must reproduce its synchronous reference fingerprint both over
the wire and when reloaded from its store after the drain.
"""

from __future__ import annotations

import asyncio
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import Rule
from repro.crowd import ArrayCrowd, SimulatedCrowd, standard_answer_model
from repro.dispatch import DispatchConfig, LognormalLatency, ShardedDispatcher
from repro.estimation import Thresholds
from repro.eval.runner import ExperimentConfig, build_world
from repro.miner import CrowdMiner, CrowdMinerConfig, FixedRatioPolicy
from repro.miner.result import QuestionKind
from repro.serve import JsonClient, MinerServer, Scenario, SessionManager
from repro.serve.wire import answer_to_doc
from repro.storage import load_session, open_backend, rule_key

from tracing import LayerTracer, attribution

THRESHOLDS = Thresholds(0.10, 0.5)

#: sync_open: one object-crowd world per entry, mined at this budget.
SYNC_WORLD = dict(n_items=60, n_patterns=8, n_members=10, transactions_per_member=100)
SYNC_WORLD_SEEDS = (101, 102, 103, 104)
SYNC_BUDGET = 250

#: sharded_closed: columnar crowd, seeded candidates, closed questions.
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

#: served_durable: one world per concurrent session slot.
SERVE_WORLD_SEEDS = (301, 302, 303, 304, 305, 306, 307, 308)
SERVE_SCENARIO = dict(n_members=8, transactions_per_member=40, budget=400)
SERVE_CHECKPOINT_EVERY = 25


@dataclass
class Round:
    """One pass over a workload's world catalogue."""

    questions: int = 0
    seconds: float = 0.0
    latencies: list[float] = field(default_factory=list)


@dataclass
class Measurement:
    """Everything one run measured, before it becomes metrics."""

    questions: int = 0
    failed: int = 0
    busy_seconds: float = 0.0
    #: One :class:`Round` per pass over the world catalogue.
    rounds: list[Round] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    layer_seconds: dict[str, float] = field(default_factory=dict)

    def count(self, obs_snapshot) -> None:
        """Fold one session's instrumentation counters in."""
        for name, value in obs_snapshot.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value

    def attribute(self, tracer: LayerTracer | None, before) -> None:
        """Fold the layer time accrued since ``before`` in."""
        if tracer is None:
            return
        for layer, value in attribution(before, tracer.totals()).items():
            self.layer_seconds[layer] = self.layer_seconds.get(layer, 0.0) + value

    def add_round(self, round_: Round) -> None:
        self.rounds.append(round_)
        self.questions += round_.questions
        self.busy_seconds += round_.seconds

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


def session_seeds(seed: int, index: int, n: int = 3) -> list[int]:
    """``n`` independent 63-bit seeds for session ``index`` of a run."""
    state = np.random.SeedSequence([seed, index]).generate_state(n, dtype=np.uint64)
    return [int(value >> np.uint64(1)) for value in state]


def _totals(tracer: LayerTracer | None):
    return None if tracer is None else tracer.totals()


def _evidence_matches_log(miner: CrowdMiner) -> bool:
    """Σ samples over the KB equals the closed answers ingested."""
    samples = sum(knowledge.samples.n for knowledge in miner.state.rules())
    closed = sum(1 for event in miner.log if event.kind is QuestionKind.CLOSED)
    return samples == closed


# -- sync_open -------------------------------------------------------------------


def _sync_miner(world_seed: int, seeds: list[int]) -> CrowdMiner:
    config = ExperimentConfig(
        name="perfbench-sync",
        budget=SYNC_BUDGET,
        checkpoints=(SYNC_BUDGET,),
        repetitions=1,
        **SYNC_WORLD,
    )
    _model, population, _ = build_world(config, seed=world_seed, ground_truth=False)
    crowd = SimulatedCrowd.from_population(
        population, answer_model=standard_answer_model(), seed=seeds[0]
    )
    return CrowdMiner(
        crowd, CrowdMinerConfig(thresholds=THRESHOLDS, budget=SYNC_BUDGET, seed=seeds[1])
    )


def _drive_steps(miner: CrowdMiner, latencies: list[float]) -> int:
    clock = time.perf_counter
    asked = 0
    while not miner.is_done:
        started = clock()
        event = miner.step()
        if event is None:
            break
        latencies.append(clock() - started)
        asked += 1
    return asked


def sync_open(seed: int, seconds: float, tracer: LayerTracer | None) -> Measurement:
    out = Measurement()
    clock = time.perf_counter
    first_fingerprint = None
    index = 0
    while out.busy_seconds < seconds:
        round_ = Round()
        for world_seed in SYNC_WORLD_SEEDS:
            seeds = session_seeds(seed, index)
            started = clock()
            miner = _sync_miner(world_seed, seeds)
            out.setups.append(clock() - started)
            before = _totals(tracer)
            started = clock()
            asked = _drive_steps(miner, round_.latencies)
            round_.seconds += clock() - started
            out.attribute(tracer, before)
            round_.questions += asked
            out.count(miner.obs.snapshot())
            out.check(asked == miner.questions_asked, f"session {index}: step count drifted")
            out.check(_evidence_matches_log(miner), f"session {index}: evidence != answers")
            if index == 0:
                first_fingerprint = miner.result().fingerprint()
            index += 1
        out.add_round(round_)
    replay = _sync_miner(SYNC_WORLD_SEEDS[0], session_seeds(seed, 0))
    replay.run()
    out.check(
        replay.result().fingerprint() == first_fingerprint,
        "session 0 did not replay to the same fingerprint",
    )
    return out


# -- sharded_closed --------------------------------------------------------------


def _seed_rules(items, count: int, rng: np.random.Generator) -> tuple[Rule, ...]:
    """``count`` distinct random candidate rules (2–4 item bodies)."""
    rules: set[Rule] = set()
    while len(rules) < count:
        size = int(rng.integers(2, 5))
        chosen = [items[k] for k in rng.choice(len(items), size=size, replace=False)]
        cut = int(rng.integers(1, size))
        rules.add(Rule(chosen[:cut], chosen[cut:]))
    return tuple(sorted(rules, key=str))


def _sharded_session(world_seed: int, seeds: list[int]) -> ShardedDispatcher:
    config = ExperimentConfig(
        name="perfbench-sharded",
        budget=SHARDED_BUDGET,
        checkpoints=(SHARDED_BUDGET,),
        repetitions=1,
        **SHARDED_WORLD,
    )
    model, population, _ = build_world(config, seed=world_seed, ground_truth=False)
    rules = _seed_rules(
        model.domain.items, SHARDED_SEED_RULES, np.random.default_rng(seeds[0])
    )
    crowd = ArrayCrowd(population, answer_model=standard_answer_model(), seed=seeds[1])
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
    return ShardedDispatcher(
        miner,
        DispatchConfig(
            window=WINDOW,
            latency=LognormalLatency(median=60.0, sigma=1.0),
            seed=seeds[2] + 1,
        ),
        shards=SHARDS,
    )


def _books_balance(stats) -> bool:
    fates = (
        stats.completed
        + stats.stale_discarded
        + stats.malformed
        + stats.rejected
        + stats.timeouts
        + stats.crashed
    )
    return (
        stats.issued == fates
        and stats.timeouts + stats.crashed == stats.retries + stats.dropped
    )


def sharded_closed(seed: int, seconds: float, tracer: LayerTracer | None) -> Measurement:
    out = Measurement()
    clock = time.perf_counter
    first_fingerprint = None
    index = 0
    while out.busy_seconds < seconds:
        round_ = Round()
        for world_seed in SHARDED_WORLD_SEEDS:
            seeds = session_seeds(seed, index)
            started = clock()
            dispatcher = _sharded_session(world_seed, seeds)
            out.setups.append(clock() - started)
            miner = dispatcher.miner
            # Wall-clock stamp per answer delivered to the miner: the gaps
            # between them are the per-question latency of the merge loop.
            stamps: list[float] = []
            ingest = miner.ingest_answer

            def stamped(proposal, answer, _ingest=ingest, _stamps=stamps):
                event = _ingest(proposal, answer)
                _stamps.append(clock())
                return event

            miner.ingest_answer = stamped
            before = _totals(tracer)
            started = clock()
            result = dispatcher.run()
            round_.seconds += clock() - started
            out.attribute(tracer, before)
            del miner.ingest_answer
            previous = started
            for stamp in stamps:
                round_.latencies.append(stamp - previous)
                previous = stamp
            round_.questions += result.questions_asked
            out.count(miner.obs.snapshot())
            out.check(_books_balance(result.dispatch), f"session {index}: books unbalanced")
            out.check(_evidence_matches_log(miner), f"session {index}: evidence != answers")
            out.check(result.questions_asked > 0, f"session {index}: asked nothing")
            if index == 0:
                first_fingerprint = result.fingerprint()
            index += 1
        out.add_round(round_)
    replay = _sharded_session(SHARDED_WORLD_SEEDS[0], session_seeds(seed, 0))
    out.check(
        replay.run().fingerprint() == first_fingerprint,
        "session 0 did not replay to the same fingerprint",
    )
    return out


# -- served_durable --------------------------------------------------------------


def _serve_scenarios(seed: int) -> list[Scenario]:
    scenarios = []
    for slot, world_seed in enumerate(SERVE_WORLD_SEEDS):
        crowd_seed, miner_seed = session_seeds(seed, slot, 2)
        scenarios.append(
            Scenario(
                model_seed=world_seed,
                crowd_seed=crowd_seed % 2**31,
                miner_seed=miner_seed % 2**31,
                **SERVE_SCENARIO,
            )
        )
    return scenarios


@dataclass
class Transcript:
    """A synchronous reference run: its fingerprint and every answer given.

    ``answers[i]`` is ``(member, kind, rule key or None, answer doc)``
    for the ``i``-th question asked — the wire document the simulated
    member would post for the served session's question ``q{i+1}``.
    """

    member_ids: list[str]
    fingerprint: str
    answers: list[tuple]


def _reference(scenario: Scenario) -> Transcript:
    """Mine ``scenario`` synchronously (as ``run_sync`` does), recording answers."""
    crowd = scenario.build_crowd()
    answers: list[tuple] = []

    def recording(ask, kind):
        def asked(member_id, *args, **kwargs):
            answer = ask(member_id, *args, **kwargs)
            doc = answer_to_doc(answer)
            if not crowd.is_member_available(member_id):
                doc["leaving"] = True
            rule = rule_key(args[0]) if kind == "closed" else None
            answers.append((member_id, kind, rule, doc))
            return answer

        return asked

    crowd.ask_closed = recording(crowd.ask_closed, "closed")
    crowd.ask_open = recording(crowd.ask_open, "open")
    result = CrowdMiner(crowd, scenario.miner_config()).run()
    return Transcript(crowd.member_ids, result.fingerprint(), answers)


class ReplayPool:
    """The served session's crowd: answers replayed from its sync transcript.

    Simulating members' answers (open answers mine each member's
    personal rules) would otherwise dominate the served workload's
    wall time; replaying them leaves the serving stack on the clock.
    A question that differs from the one the reference asked at the
    same position is counted in :attr:`diverged`.
    """

    def __init__(self, transcript: Transcript) -> None:
        self.answers = transcript.answers
        self.diverged = 0

    def answer(self, question: dict) -> dict:
        index = int(question["question_id"][1:]) - 1
        if not 0 <= index < len(self.answers):
            self.diverged += 1
            return {"gone": True}
        member, kind, rule, doc = self.answers[index]
        asked = (question["member"], question["kind"], question.get("rule"))
        if asked != (member, kind, rule):
            self.diverged += 1
        return doc


async def _drive_client(client, session_id, pool, latencies, failures) -> None:
    """One closed-loop client: fetch, answer, repeat until done."""
    clock = time.perf_counter
    path = f"/v1/sessions/{session_id}"
    while True:
        started = clock()
        status, doc = await client.request("POST", f"{path}/question")
        if status != 200:
            failures.append(f"{session_id}: fetch returned {status}")
            return
        if doc["status"] == "done":
            return
        if doc["status"] != "ok":
            await asyncio.sleep(0.001)
            continue
        question = doc["question"]
        status, _ = await client.request(
            "POST",
            f"{path}/answer",
            {"question_id": question["question_id"], "answer": pool.answer(question)},
        )
        if status != 200:
            failures.append(f"{session_id}: answer returned {status}")
            return
        latencies.append(clock() - started)


async def _serve_round(
    scenarios, transcripts, data_dir: Path, out: Measurement, round_: Round, tracer
) -> list[dict]:
    """Set up, drive and drain one server round; returns the result docs."""
    clock = time.perf_counter
    started = clock()
    manager = SessionManager(data_dir=data_dir)
    server = MinerServer(manager, "127.0.0.1", 0)
    await server.start()
    run_task = asyncio.create_task(server.run(install_signals=False))
    clients = [JsonClient("127.0.0.1", server.port) for _ in scenarios]
    pools = [ReplayPool(transcript) for transcript in transcripts]
    ids = [f"s{slot}" for slot in range(len(scenarios))]
    failures: list[str] = []
    try:
        for client, session_id, scenario, transcript in zip(
            clients, ids, scenarios, transcripts
        ):
            spec = scenario.session_spec(
                transcript.member_ids,
                id=session_id,
                checkpoint_every=SERVE_CHECKPOINT_EVERY,
            )
            status, created = await client.request("POST", "/v1/sessions", spec)
            if status != 201:
                raise RuntimeError(f"session create failed: {created!r}")
        out.setups.append(clock() - started)
        before = _totals(tracer)
        started = clock()
        await asyncio.gather(
            *(
                _drive_client(client, session_id, pool, round_.latencies, failures)
                for client, session_id, pool in zip(clients, ids, pools)
            )
        )
        round_.seconds = clock() - started
        out.attribute(tracer, before)
        results = []
        for client, session_id in zip(clients, ids):
            _status, doc = await client.request("GET", f"/v1/sessions/{session_id}/result")
            results.append(doc)
        for session in manager.sessions.values():
            out.count(session.miner.obs.snapshot())
    finally:
        server.request_shutdown()
        for client in clients:
            await client.aclose()
        await run_task
    for session_id, pool in zip(ids, pools):
        if pool.diverged:
            failures.append(f"{session_id}: {pool.diverged} questions differ from sync run")
    out.failed += len(failures)
    out.problems.extend(failures)
    return results


def _serve_books_balance(books: dict) -> bool:
    fates = (
        books["answered"]
        + books["stale"]
        + books["malformed"]
        + books["rejected"]
        + books["gone"]
        + books["timeouts"]
        + books["outstanding"]
    )
    return books["issued"] == fates


def _run_loop(coroutine, tracer: LayerTracer | None):
    """Run ``coroutine`` on a fresh loop (wait-timed when tracing)."""
    if tracer is None:
        return asyncio.run(coroutine)
    loop = asyncio.SelectorEventLoop(tracer.selector())
    try:
        return loop.run_until_complete(coroutine)
    finally:
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.close()


def served_durable(
    seed: int, seconds: float, tracer: LayerTracer | None, scratch: Path
) -> Measurement:
    """Serve the same eight sessions round after round on fresh servers.

    The sync references are computed once per run, before any timing;
    each round then sets up a fresh server and data directory, drives
    all sessions concurrently, drains, and checks every session over
    the wire and as reloaded from its store.
    """
    out = Measurement()
    scenarios = _serve_scenarios(seed)
    transcripts = [_reference(scenario) for scenario in scenarios]
    round_index = 0
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        while out.busy_seconds < seconds:
            data_dir = scratch / f"round{round_index}"
            round_ = Round()
            results = _run_loop(
                _serve_round(scenarios, transcripts, data_dir, out, round_, tracer),
                tracer,
            )
            for slot, (transcript, doc) in enumerate(zip(transcripts, results)):
                label = f"round {round_index} session s{slot}"
                round_.questions += doc["questions_asked"]
                out.check(_serve_books_balance(doc["serve"]), f"{label}: books unbalanced")
                out.check(
                    doc["fingerprint"] == transcript.fingerprint,
                    f"{label}: differs from sync run",
                )
                storage = open_backend(data_dir / f"s{slot}.db", "sqlite", readonly=True)
                try:
                    miner, _snapshot, _info = load_session(storage, rollback=False)
                finally:
                    storage.close()
                out.check(
                    miner.result().fingerprint() == transcript.fingerprint,
                    f"{label}: stored checkpoint differs from sync run",
                )
            out.add_round(round_)
            shutil.rmtree(data_dir)
            round_index += 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return out
