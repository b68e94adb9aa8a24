"""The sim-vs-real differential harness.

One seeded :class:`Scenario` describes a complete world — domain
model, crowd composition, miner configuration — and the harness drives
that *same* world through the repo's execution modes:

- :func:`run_sync` — ``miner.run()``, the reference transcript;
- :func:`run_dispatch` — the simulated-clock :class:`Dispatcher`
  (window/shards/latency configurable), the PR 2/PR 7 rung;
- :func:`run_serve` — the live asyncio service: an in-process
  :class:`~repro.serve.app.MinerServer` on an ephemeral port, a
  :class:`SimulatedWorkerPool` answering over real HTTP exactly as the
  in-process crowd would, and the session's result fetched back over
  the wire.

Same seeds ⇒ byte-identical
:meth:`~repro.miner.result.MiningResult.fingerprint` across all three
— the serving surface's equivalence-ladder rung, extending the
``window=1 ≡ sync`` discipline of ``docs/scaling.md`` across a real
network boundary and a wall clock. The worker pool is the client-side
half of the determinism argument: it owns a crowd built from the very
same seeds, answers each question by *asking its own simulated member*
(consuming the member's RNG exactly once per question id — re-fetches
and post-resume re-offers replay the memoized answer), and reports
departures (``gone``/``leaving``) so the server's roster tracks the
same availability set the sync scheduler sees.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any

from repro.core.itemset import Itemset
from repro.crowd import standard_answer_model
from repro.crowd.crowd import SimulatedCrowd
from repro.errors import CrowdExhaustedError
from repro.estimation import Thresholds
from repro.faults import build_adversarial_crowd
from repro.miner.crowdminer import CrowdMiner, CrowdMinerConfig
from repro.miner.result import MiningResult
from repro.serve.app import MinerServer
from repro.serve.http import JsonClient
from repro.serve.session import ServeConfig, ServeSession, SessionManager
from repro.serve.wire import answer_to_doc
from repro.storage.records import rule_from_key
from repro.synth import NAMED_MODELS, build_population


@dataclass(frozen=True, slots=True)
class Scenario:
    """One fully-seeded world to replay across execution modes."""

    domain: str = "folk_remedies"
    n_members: int = 12
    transactions_per_member: int = 80
    budget: int = 120
    support: float = 0.10
    confidence: float = 0.50
    model_seed: int = 11
    crowd_seed: int = 12
    miner_seed: int = 13
    patience: int | None = None
    adversary_mix: tuple[tuple[str, float], ...] = ()
    quarantine: bool = False
    reestimate_every: int = 10
    contextual_open_fraction: float = 0.0

    def build_crowd(self) -> SimulatedCrowd:
        """A fresh crowd for this world — deterministic from the seeds."""
        model = NAMED_MODELS[self.domain](seed=self.model_seed)
        population = build_population(
            model,
            n_members=self.n_members,
            transactions_per_member=self.transactions_per_member,
            seed=self.model_seed + 1,
        )
        crowd, _roles = build_adversarial_crowd(
            population,
            self.adversary_mix,
            answer_model=standard_answer_model(),
            patience=self.patience,
            seed=self.crowd_seed,
        )
        return crowd

    def miner_config(self, checkpoint_every: int = 0) -> CrowdMinerConfig:
        return CrowdMinerConfig(
            thresholds=Thresholds(self.support, self.confidence),
            budget=self.budget,
            quarantine=self.quarantine,
            reestimate_every=self.reestimate_every,
            contextual_open_fraction=self.contextual_open_fraction,
            checkpoint_every=checkpoint_every,
            seed=self.miner_seed,
        )

    def session_spec(self, member_ids: list[str], **overrides: Any) -> dict:
        """The POST /v1/sessions document for this world."""
        doc: dict[str, Any] = {
            "members": member_ids,
            "support": self.support,
            "confidence": self.confidence,
            "budget": self.budget,
            "seed": self.miner_seed,
            "quarantine": self.quarantine,
            "reestimate_every": self.reestimate_every,
            "contextual_open_fraction": self.contextual_open_fraction,
        }
        doc.update(overrides)
        return doc


# -- reference runs ------------------------------------------------------------


def run_sync(scenario: Scenario) -> MiningResult:
    """The synchronous reference transcript."""
    crowd = scenario.build_crowd()
    miner = CrowdMiner(crowd, scenario.miner_config())
    return miner.run()


def run_dispatch(
    scenario: Scenario,
    *,
    window: int = 1,
    shards: int = 1,
    latency: str = "0",
) -> MiningResult:
    """The simulated-clock dispatched transcript (stats attached)."""
    from repro.dispatch import DispatchConfig, Dispatcher
    from repro.dispatch.latency import parse_latency

    crowd = scenario.build_crowd()
    miner = CrowdMiner(crowd, scenario.miner_config())
    config = DispatchConfig(
        window=window,
        latency=parse_latency(latency),
        seed=scenario.miner_seed + 1000,
    )
    return Dispatcher(miner, config, shards=shards).run()


# -- the live client -----------------------------------------------------------


@dataclass
class SimulatedWorkerPool:
    """The client-side crowd oracle behind the differential drive.

    Holds the same :class:`SimulatedCrowd` the sync run owns and
    answers wire questions by asking it. Answers are memoized by
    question id: every member RNG draw happens exactly once per
    question, however many times the question is (re-)offered across
    connection retries or a server restart.
    """

    crowd: SimulatedCrowd
    memo: dict[str, dict[str, Any]] = field(default_factory=dict)
    answered: int = 0

    def answer(self, question: dict[str, Any]) -> dict[str, Any]:
        qid = question["question_id"]
        cached = self.memo.get(qid)
        if cached is not None:
            return cached
        member_id = question["member"]
        try:
            if question["kind"] == "closed":
                answer = self.crowd.ask_closed(
                    member_id, rule_from_key(question["rule"])
                )
            else:
                context = question.get("context")
                answer = self.crowd.ask_open(
                    member_id,
                    exclude={rule_from_key(key) for key in question["exclude"]},
                    context=None if context is None else Itemset(context),
                )
            doc = answer_to_doc(answer)
            if not self.crowd.is_member_available(member_id):
                # Patience ran out on this very answer: tell the server
                # so its roster mirrors the simulated availability flip.
                doc["leaving"] = True
            self.answered += 1
        except CrowdExhaustedError:
            doc = {"gone": True}
        self.memo[qid] = doc
        return doc


async def drive_session(
    client: JsonClient,
    session_id: str,
    pool: SimulatedWorkerPool,
    *,
    poll_delay: float = 0.02,
    max_polls: int = 500,
    key_prefix: str | None = None,
    stop_after: int | None = None,
) -> dict[str, Any]:
    """Fetch/answer until the session reports done; returns final status.

    ``stop_after`` stops driving once the pool has computed that many
    fresh answers (``{"status": "crashed"}`` is returned) — the chaos
    harness's crash schedules are expressed in client progress.

    ``key_prefix`` arms exactly-once idempotency keys on every fetch
    and answer post (fetch keys ``{prefix}f{n}``, answer keys
    ``a-{question_id}``) — the client half of the dedup contract in
    ``docs/serving.md``. It must be unique per drive *phase*: a resumed
    drive reusing pre-crash fetch keys would replay stale hand-outs
    out of the rolled-back dedup table. Answer keys are derived from
    the question id, safe across phases because a re-offered question
    carries the same id and the same memoized answer.
    """
    polls = 0
    fetches = 0
    while True:
        fetch_doc = None
        if key_prefix is not None:
            fetch_doc = {"idempotency_key": f"{key_prefix}f{fetches}"}
            fetches += 1
        status, doc = await client.request(
            "POST", f"/v1/sessions/{session_id}/question", fetch_doc
        )
        if status in (429, 503):
            # Backpressure from a plain (non-retrying) client's view:
            # honor the hint and poll again with a fresh key.
            polls += 1
            if polls > max_polls:
                raise TimeoutError(f"session {session_id} shedding load: {doc!r}")
            try:
                hinted = float(client.last_headers.get("retry-after", "0"))
            except (AttributeError, ValueError):
                hinted = 0.0
            await asyncio.sleep(max(hinted, poll_delay))
            continue
        state = doc["status"]
        if state == "done":
            return doc.get("state", doc)
        if state in ("wait", "draining"):
            polls += 1
            if polls > max_polls:
                raise TimeoutError(
                    f"session {session_id} stuck waiting: {doc!r}"
                )
            await asyncio.sleep(poll_delay)
            continue
        polls = 0
        question = doc["question"]
        answer_doc = {
            "question_id": question["question_id"],
            "answer": pool.answer(question),
        }
        if key_prefix is not None:
            answer_doc["idempotency_key"] = f"a-{question['question_id']}"
        await client.request(
            "POST", f"/v1/sessions/{session_id}/answer", answer_doc
        )
        if stop_after is not None and pool.answered >= stop_after:
            return {"status": "crashed"}


async def _serve_once(
    scenario: Scenario, data_dir, session_overrides: dict[str, Any]
) -> dict[str, Any]:
    crowd = scenario.build_crowd()
    pool = SimulatedWorkerPool(crowd)
    manager = SessionManager(data_dir=data_dir)
    server = MinerServer(manager, "127.0.0.1", 0)
    await server.start()
    run_task = asyncio.create_task(server.run(install_signals=False))
    client = JsonClient("127.0.0.1", server.port)
    try:
        spec = scenario.session_spec(crowd.member_ids, **session_overrides)
        status, created = await client.request("POST", "/v1/sessions", spec)
        if status != 201:
            raise RuntimeError(f"session create failed: {created!r}")
        session_id = created["session"]
        await drive_session(client, session_id, pool)
        _status, result = await client.request(
            "GET", f"/v1/sessions/{session_id}/result"
        )
        return result
    finally:
        server.request_shutdown()
        await client.aclose()
        await run_task


def run_serve(
    scenario: Scenario,
    *,
    data_dir=None,
    **session_overrides: Any,
) -> dict[str, Any]:
    """The live-service transcript, over real HTTP on an ephemeral port.

    Returns the wire result document (``fingerprint``,
    ``questions_asked``, the serve counters). ``data_dir`` makes the
    session durable; extra keywords override the session spec (e.g.
    ``checkpoint_every=5``).
    """
    return asyncio.run(_serve_once(scenario, data_dir, session_overrides))


def run_session_inprocess(
    scenario: Scenario,
    *,
    storage=None,
    config: ServeConfig | None = None,
    checkpoint_every: int = 0,
) -> tuple[ServeSession, SimulatedWorkerPool]:
    """A serve session driven without HTTP (unit-test convenience).

    Builds the roster-backed miner and the client-side pool; the caller
    drives ``next_question``/``post_answer`` directly (no event loop
    needed while ``config.timeout`` is ``None``).
    """
    from repro.serve.clock import RealTimeClock
    from repro.serve.roster import WorkerRoster

    crowd = scenario.build_crowd()
    pool = SimulatedWorkerPool(crowd)
    roster = WorkerRoster(crowd.member_ids)
    miner = CrowdMiner(
        roster, scenario.miner_config(checkpoint_every), storage=storage
    )
    session = ServeSession("local", miner, RealTimeClock(), config=config)
    return session, pool


def drive_inprocess(
    session: ServeSession, pool: SimulatedWorkerPool, *, max_steps: int = 100_000
) -> MiningResult:
    """Drive an in-process session to completion; returns its result."""
    for _ in range(max_steps):
        doc = session.next_question()
        if doc["status"] == "done":
            return session.result()
        if doc["status"] != "ok":
            raise RuntimeError(f"unexpected fetch outcome: {doc!r}")
        question = doc["question"]
        session.post_answer(question["question_id"], pool.answer(question))
    raise RuntimeError("session did not terminate")
