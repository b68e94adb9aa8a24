"""The equivalence ladder's serving rung: sim ≡ dispatch ≡ live HTTP.

One seeded :class:`~repro.serve.Scenario` is replayed through
``miner.run()``, the simulated-clock dispatcher, and a real asyncio
server on an ephemeral port with answers crossing actual HTTP — and
the final knowledge-base fingerprints must be **byte-identical**. This
extends ``tests/dispatch/test_equivalence.py``'s ``window=1 ≡ sync``
discipline across a network boundary and a wall clock.
"""

import asyncio
import gc
import weakref

import pytest

from repro.serve import (
    JsonClient,
    MinerServer,
    Scenario,
    SessionManager,
    SimulatedWorkerPool,
    drive_inprocess,
    drive_session,
    run_dispatch,
    run_serve,
    run_session_inprocess,
    run_sync,
)

BASE = Scenario(n_members=8, transactions_per_member=50, budget=80)


class TestThreeRouteIdentity:
    def test_inprocess_session_matches_sync(self):
        """The cheapest rung first: the session mechanics alone (no
        HTTP, no event loop) already reproduce the sync transcript."""
        sync = run_sync(BASE)
        session, pool = run_session_inprocess(BASE)
        served = drive_inprocess(session, pool)
        assert served.fingerprint() == sync.fingerprint()
        assert served.questions_asked == sync.questions_asked

    def test_live_service_matches_sync_and_dispatch(self):
        sync = run_sync(BASE)
        dispatched = run_dispatch(BASE, window=1)
        served = run_serve(BASE)
        assert dispatched.fingerprint() == sync.fingerprint()
        assert served["fingerprint"] == sync.fingerprint()
        assert served["questions_asked"] == sync.questions_asked

    def test_patience_departures_stay_identical(self):
        scenario = Scenario(
            n_members=8, transactions_per_member=50, budget=80, patience=6
        )
        sync = run_sync(scenario)
        served = run_serve(scenario)
        assert served["fingerprint"] == sync.fingerprint()

    def test_adversaries_and_quarantine_stay_identical(self):
        scenario = Scenario(
            n_members=10,
            transactions_per_member=50,
            budget=80,
            adversary_mix=(("spammer", 0.3),),
            quarantine=True,
        )
        sync = run_sync(scenario)
        served = run_serve(scenario)
        assert served["fingerprint"] == sync.fingerprint()

    def test_malformed_floods_cost_no_budget_on_either_side(self):
        scenario = Scenario(
            n_members=10,
            transactions_per_member=50,
            budget=80,
            adversary_mix=(("garbled", 0.3),),
        )
        sync = run_sync(scenario)
        served = run_serve(scenario)
        assert served["fingerprint"] == sync.fingerprint()
        # Garbled answers consume issues but no budget: the serve books
        # show more hand-outs than the budget, never more spend.
        assert served["serve"]["issued"] >= served["questions_asked"]
        assert served["questions_asked"] == sync.questions_asked


class TestServiceSurface:
    def test_concurrent_sessions_are_isolated(self):
        """Two interleaved sessions on one server still match their
        respective solo sync transcripts."""
        a = Scenario(n_members=6, transactions_per_member=40, budget=40, miner_seed=21)
        b = Scenario(n_members=6, transactions_per_member=40, budget=40, miner_seed=22)
        sync_a = run_sync(a).fingerprint()
        sync_b = run_sync(b).fingerprint()

        async def scenario():
            manager = SessionManager()
            server = MinerServer(manager, "127.0.0.1", 0)
            await server.start()
            run_task = asyncio.create_task(server.run(install_signals=False))
            client = JsonClient("127.0.0.1", server.port)
            pools = {}
            for name, sc in (("a", a), ("b", b)):
                crowd = sc.build_crowd()
                pools[name] = SimulatedWorkerPool(crowd)
                status, _ = await client.request(
                    "POST", "/v1/sessions", sc.session_spec(crowd.member_ids, id=name)
                )
                assert status == 201
            # Strict interleave: one exchange for a, one for b, ...
            done = {"a": False, "b": False}
            while not all(done.values()):
                for name in ("a", "b"):
                    if done[name]:
                        continue
                    _, doc = await client.request(
                        "POST", f"/v1/sessions/{name}/question"
                    )
                    if doc["status"] == "done":
                        done[name] = True
                        continue
                    assert doc["status"] == "ok"
                    question = doc["question"]
                    await client.request(
                        "POST",
                        f"/v1/sessions/{name}/answer",
                        {
                            "question_id": question["question_id"],
                            "answer": pools[name].answer(question),
                        },
                    )
            results = {}
            for name in ("a", "b"):
                _, results[name] = await client.request(
                    "GET", f"/v1/sessions/{name}/result"
                )
            server.request_shutdown()
            await client.aclose()
            await run_task
            return results

        results = asyncio.run(scenario())
        assert results["a"]["fingerprint"] == sync_a
        assert results["b"]["fingerprint"] == sync_b

    def test_kb_endpoint_reports_significant_rules(self):
        async def scenario():
            manager = SessionManager()
            server = MinerServer(manager, "127.0.0.1", 0)
            await server.start()
            run_task = asyncio.create_task(server.run(install_signals=False))
            client = JsonClient("127.0.0.1", server.port)
            crowd = BASE.build_crowd()
            pool = SimulatedWorkerPool(crowd)
            await client.request(
                "POST", "/v1/sessions", BASE.session_spec(crowd.member_ids, id="kb")
            )
            await drive_session(client, "kb", pool)
            _, kb = await client.request("GET", "/v1/sessions/kb/kb?top=5")
            _, health = await client.request("GET", "/healthz")
            server.request_shutdown()
            await client.aclose()
            await run_task
            return kb, health

        kb, health = asyncio.run(scenario())
        assert health["status"] == "ok" and health["sessions"] == 1
        assert kb["session"] == "kb"
        assert len(kb["significant"]) <= 5
        for entry in kb["significant"]:
            assert 0.0 <= entry["support"] <= entry["confidence"] <= 1.0
            assert isinstance(entry["rule"], str) and entry["display"]

    def test_http_errors_do_not_kill_the_server(self):
        async def scenario():
            manager = SessionManager()
            server = MinerServer(manager, "127.0.0.1", 0)
            await server.start()
            run_task = asyncio.create_task(server.run(install_signals=False))
            client = JsonClient("127.0.0.1", server.port)
            outcomes = []
            outcomes.append(await client.request("GET", "/no/such/route"))
            outcomes.append(await client.request("POST", "/v1/sessions", "not an object"))
            outcomes.append(await client.request("GET", "/v1/sessions/ghost"))
            outcomes.append(
                await client.request("POST", "/v1/sessions/ghost/answer", {"x": 1})
            )
            outcomes.append(await client.request("GET", "/healthz"))
            server.request_shutdown()
            await client.aclose()
            await run_task
            return outcomes

        outcomes = asyncio.run(scenario())
        statuses = [status for status, _ in outcomes]
        assert statuses[:4] == [404, 400, 404, 404]
        assert statuses[4] == 200  # still alive after all of that

    @pytest.mark.parametrize("kind", ["delete", "shutdown"])
    def test_lifecycle_endpoints(self, kind):
        async def scenario():
            manager = SessionManager()
            server = MinerServer(manager, "127.0.0.1", 0)
            await server.start()
            run_task = asyncio.create_task(server.run(install_signals=False))
            client = JsonClient("127.0.0.1", server.port)
            crowd = BASE.build_crowd()
            await client.request(
                "POST", "/v1/sessions", BASE.session_spec(crowd.member_ids, id="x")
            )
            if kind == "delete":
                status, doc = await client.request("DELETE", "/v1/sessions/x")
                assert status == 200 and doc["status"] == "deleted"
                status, _ = await client.request("GET", "/v1/sessions/x")
                assert status == 404
                server.request_shutdown()
            else:
                status, doc = await client.request("POST", "/v1/shutdown")
                assert status == 200 and doc["status"] == "draining"
            await client.aclose()
            return await run_task

        drained = asyncio.run(scenario())
        assert drained == (0 if kind == "delete" else 1)


class TestLifetime:
    def test_server_round_frees_its_sessions_without_the_cyclic_gc(self, tmp_path):
        # A session's miner holds its seat weakly, and the server lets go
        # of its listener (whose protocol factory is a bound method of the
        # server) once closed: after shutdown, reference counting alone
        # frees the server, every session and every miner.
        scenarios = [
            Scenario(n_members=6, transactions_per_member=40, budget=40, miner_seed=seed)
            for seed in (21, 22)
        ]
        alive: list[weakref.ref] = []

        async def scenario():
            manager = SessionManager(data_dir=tmp_path)
            server = MinerServer(manager, "127.0.0.1", 0)
            await server.start()
            port = server.port
            run_task = asyncio.create_task(server.run(install_signals=False))
            client = JsonClient("127.0.0.1", port)
            for index, sc in enumerate(scenarios):
                crowd = sc.build_crowd()
                status, _ = await client.request(
                    "POST",
                    "/v1/sessions",
                    sc.session_spec(crowd.member_ids, id=f"s{index}", checkpoint_every=10),
                )
                assert status == 201
                await drive_session(client, f"s{index}", SimulatedWorkerPool(crowd))
            for session in manager.sessions.values():
                alive.extend([weakref.ref(session), weakref.ref(session.miner)])
            alive.append(weakref.ref(server))
            server.request_shutdown()
            await client.aclose()
            assert await run_task == len(scenarios)
            assert server.port == port

        gc.collect()
        gc.disable()
        try:
            asyncio.run(scenario())
            assert len(alive) == 2 * len(scenarios) + 1
            assert [ref() for ref in alive] == [None] * len(alive)
        finally:
            gc.enable()
