"""Cross-process SIGKILL at named kill-points, then real resume.

The in-process ``abort()`` the matrix uses claims to leave exactly the
on-disk state a real ``kill -9`` would. These tests collect on that
claim: a real ``repro serve`` child process SIGKILLs *itself* (via
``--chaos-kill PHASE:N``) at each storage/request kill-point — after a
WAL append, between the answer batch and its COMMIT, mid-checkpoint,
mid-request — and a second process resumes the directory with
``--resume --repair``. The finished fingerprint must equal the
uninterrupted sync run's, byte for byte, at every kill-point.
"""

import asyncio
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.serve import (
    JsonClient,
    RetryingClient,
    Scenario,
    SimulatedWorkerPool,
    drive_session,
    run_sync,
)

SRC = Path(__file__).resolve().parents[2] / "src"

SCENARIO = Scenario(n_members=6, transactions_per_member=40, budget=40)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _spawn_server(tmp_path, *extra):
    proc = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro", "serve",
            "--port", "0", "--data-dir", str(tmp_path), *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_env(),
    )
    line = proc.stdout.readline().strip()
    assert line.startswith("serving on http://"), (line, proc.stderr.read())
    port = int(line.rsplit(":", 1)[1])
    return proc, port


async def _drive_until_death(port, pool, crowd, *, create):
    """Feed the doomed server answers until the SIGKILL cuts us off."""
    client = JsonClient("127.0.0.1", port)
    fetches = 0
    try:
        if create:
            status, doc = await client.request(
                "POST",
                "/v1/sessions",
                SCENARIO.session_spec(
                    crowd.member_ids, id="kp", checkpoint_every=4
                ),
            )
            assert status == 201, doc
        while True:
            _, doc = await client.request(
                "POST",
                "/v1/sessions/kp/question",
                {"idempotency_key": f"pre-f{fetches}"},
            )
            fetches += 1
            if doc.get("status") != "ok":
                return False  # finished before the kill-point fired
            question = doc["question"]
            await client.request(
                "POST",
                "/v1/sessions/kp/answer",
                {
                    "question_id": question["question_id"],
                    "answer": pool.answer(question),
                    "idempotency_key": f"a-{question['question_id']}",
                },
            )
    except (ConnectionError, asyncio.IncompleteReadError, OSError):
        return True
    finally:
        await client.aclose()


async def _finish(port, pool):
    client = RetryingClient(JsonClient("127.0.0.1", port), seed=1)
    try:
        await drive_session(client, "kp", pool, key_prefix="post-")
        _, result = await client.request("GET", "/v1/sessions/kp/result")
        await client.request("POST", "/v1/shutdown")
        return result
    finally:
        await client.aclose()


@pytest.mark.slow
class TestKillPoints:
    @pytest.mark.parametrize(
        "kill_spec",
        ["append:9", "commit:2", "checkpoint:2", "request:11"],
        ids=lambda spec: spec.split(":")[0],
    )
    def test_sigkill_then_repair_resume_converges(self, kill_spec, tmp_path):
        sync_fp = run_sync(SCENARIO).fingerprint()
        crowd = SCENARIO.build_crowd()
        pool = SimulatedWorkerPool(crowd)

        proc, port = _spawn_server(tmp_path, "--chaos-kill", kill_spec)
        died = asyncio.run(_drive_until_death(port, pool, crowd, create=True))
        assert died, "server finished before the kill-point fired"
        # Reads and closes both pipes, so neither leaks past the test.
        proc.communicate(timeout=30)
        # SIGKILL, self-inflicted: no drain, no exit handler, no zero.
        assert proc.returncode == -9

        proc2, port2 = _spawn_server(tmp_path, "--resume", "--repair")
        result = asyncio.run(_finish(port2, pool))
        out, err = proc2.communicate(timeout=30)
        assert proc2.returncode == 0, (out, err)
        assert result["fingerprint"] == sync_fp
        assert result["serve"]["outstanding"] == 0
