"""Cross-process crash recovery: SIGKILL the CLI mid-session, resume.

The in-process suite (``test_checkpoint_resume.py``) proves resume
determinism when the "crash" is simulated; this one proves it for the
real failure mode — a separate interpreter killed with ``SIGKILL``
(no atexit, no flushing, no goodbye) partway through a checkpointed
``repro mine`` run. The resumed run's printed fingerprint must equal
an uninterrupted run's. This is the test the CI kill-and-resume smoke
job executes.
"""

import os
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

MINE = [
    sys.executable, "-u", "-m", "repro", "mine",
    "--budget", "400", "--members", "25", "--checkpoint-every", "25",
]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _fingerprint(output):
    for line in output.splitlines():
        if line.startswith("fingerprint: "):
            return line.split(": ", 1)[1]
    raise AssertionError(f"no fingerprint in output:\n{output}")


def _checkpoint_count(path):
    try:
        with sqlite3.connect(path) as conn:
            return conn.execute("SELECT COUNT(*) FROM checkpoints").fetchone()[0]
    except sqlite3.Error:
        return 0


@pytest.mark.slow
def test_sigkilled_run_resumes_byte_identically(tmp_path):
    baseline = subprocess.run(
        MINE + ["--checkpoint", str(tmp_path / "baseline.db")],
        env=_env(), capture_output=True, text=True, timeout=300,
    )
    assert baseline.returncode == 0, baseline.stderr
    expected = _fingerprint(baseline.stdout)

    victim_db = tmp_path / "victim.db"
    victim = subprocess.Popen(
        MINE + ["--checkpoint", str(victim_db)],
        env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        # Kill only once at least one checkpoint is durably on disk —
        # otherwise there is nothing to resume and the test is vacuous.
        deadline = time.monotonic() + 120
        while _checkpoint_count(victim_db) < 1:
            if victim.poll() is not None:
                break  # finished before we got to it; resume still must match
            if time.monotonic() > deadline:
                pytest.fail("victim never wrote a checkpoint")
            time.sleep(0.05)
        os.kill(victim.pid, signal.SIGKILL)
    finally:
        victim.wait(timeout=60)

    resumed = subprocess.run(
        [sys.executable, "-m", "repro", "mine", "--resume",
         "--checkpoint", str(victim_db)],
        env=_env(), capture_output=True, text=True, timeout=300,
    )
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout.startswith("resumed ")
    assert _fingerprint(resumed.stdout) == expected


SHARDED_MINE = [
    sys.executable, "-u", "-m", "repro", "mine",
    "--population-backend", "array", "--members", "2000", "--shards", "4",
    "--in-flight", "8", "--latency", "lognormal:60:1.0",
    "--budget", "400", "--seed", "4", "--checkpoint-every", "25",
]


@pytest.mark.slow
def test_sigkilled_sharded_run_resumes_byte_identically(tmp_path):
    # The sharded dispatcher rides in the checkpoint pickle with its
    # lane clocks and partitions; a fresh interpreter must resume it
    # with every in-flight question intact.
    baseline = subprocess.run(
        SHARDED_MINE + ["--checkpoint", str(tmp_path / "baseline.db")],
        env=_env(), capture_output=True, text=True, timeout=300,
    )
    assert baseline.returncode == 0, baseline.stderr
    expected = _fingerprint(baseline.stdout)

    victim_db = tmp_path / "sharded.db"
    victim = subprocess.Popen(
        SHARDED_MINE + ["--checkpoint", str(victim_db)],
        env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120
        while _checkpoint_count(victim_db) < 1 and victim.poll() is None:
            if time.monotonic() > deadline:
                pytest.fail("victim never wrote a checkpoint")
            time.sleep(0.05)
        os.kill(victim.pid, signal.SIGKILL)
    finally:
        victim.wait(timeout=60)

    resumed = subprocess.run(
        [sys.executable, "-m", "repro", "mine", "--resume",
         "--checkpoint", str(victim_db)],
        env=_env(), capture_output=True, text=True, timeout=300,
    )
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout.startswith("resumed ")
    assert _fingerprint(resumed.stdout) == expected
