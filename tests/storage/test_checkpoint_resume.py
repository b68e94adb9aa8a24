"""Kill-and-resume determinism: the tentpole contract of the storage layer.

A session killed at any round and resumed from its latest checkpoint
must produce a final summary byte-identical to the uninterrupted run —
same question log, same reported rules, same fingerprint. These tests
exercise that contract in-process for synchronous and dispatched
sessions on both backends (the CLI/SIGKILL variant lives in
``test_kill_resume.py``), plus the failure modes: corrupt payloads,
empty stores, and the answer-log rollback on restore.
"""

import pickle
from dataclasses import replace

import pytest

from repro._util import as_rng
from repro.dispatch import DispatchConfig, Dispatcher, LognormalLatency
from repro.eval.runner import (
    ExperimentConfig,
    _miner_config,
    build_crowd,
    build_world,
    resume_session,
    run_session,
)
from repro.miner import CrowdMiner
from repro.storage import (
    StorageError,
    capture_session,
    load_session,
    open_backend,
    restore_session,
)

CFG = ExperimentConfig(
    name="resume",
    budget=160,
    checkpoints=(160,),
    repetitions=1,
    n_items=24,
    n_patterns=5,
    n_members=10,
    transactions_per_member=50,
)


def make_miner(storage=None, checkpoint_every=0):
    """A deterministic session; equal seeds ⇒ equal trajectories."""
    _, population, _ = build_world(CFG, 42)
    rng = as_rng(777)
    crowd = build_crowd(CFG, population, rng)
    config = _miner_config(CFG, rng)
    config.checkpoint_every = checkpoint_every
    return CrowdMiner(crowd, config, storage=storage)


def dispatch_config():
    return DispatchConfig(
        window=8, timeout=500.0, latency=LognormalLatency(2.0, 1.0), seed=99
    )


@pytest.fixture(scope="module")
def sync_fingerprint():
    return make_miner().run().fingerprint()


@pytest.fixture(scope="module")
def dispatched_baseline():
    return Dispatcher(make_miner(), dispatch_config()).run()


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
class TestSyncResume:
    def test_killed_run_resumes_byte_identically(
        self, tmp_path, kind, sync_fingerprint
    ):
        path = tmp_path / "session.store"
        storage = open_backend(path, kind)
        miner = make_miner(storage=storage, checkpoint_every=40)
        miner.run(max_questions=130)  # "crash" past the q=120 checkpoint
        del miner  # nothing survives but the store on disk
        storage.close()

        resumed = open_backend(path, kind, resume=True)
        miner, dispatcher, info = load_session(resumed)
        assert dispatcher is None
        assert info.questions == 120
        assert miner.questions_asked == 120
        result = miner.run()
        assert result.fingerprint() == sync_fingerprint
        resumed.close()

    def test_restore_rolls_the_answer_log_back_to_the_checkpoint(
        self, tmp_path, kind
    ):
        path = tmp_path / "session.store"
        storage = open_backend(path, kind)
        miner = make_miner(storage=storage, checkpoint_every=40)
        miner.run(max_questions=130)
        del miner
        storage.close()

        resumed = open_backend(path, kind, resume=True)
        # 130 answers were logged but the checkpoint holds 120; the 10
        # post-checkpoint entries are rolled back and re-collected.
        miner, _, info = load_session(resumed)
        assert info.answers_logged == 120
        assert [r.seq for r in resumed.answers()] == list(range(120))
        miner.run()
        assert [r.seq for r in resumed.answers()] == list(range(CFG.budget))
        resumed.close()


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
def test_dispatched_kill_and_resume_is_byte_identical(
    tmp_path, kind, dispatched_baseline
):
    path = tmp_path / "session.store"
    storage = open_backend(path, kind)
    miner = make_miner(storage=storage, checkpoint_every=40)
    dispatcher = Dispatcher(miner, dispatch_config())
    dispatcher._fill_window()
    while dispatcher._in_flight and miner.questions_asked < 130:
        dispatcher.clock.pop()
        dispatcher._maybe_checkpoint()
        dispatcher._fill_window()
    assert dispatcher._in_flight  # killed with questions genuinely in flight
    del miner, dispatcher
    storage.close()

    resumed = open_backend(path, kind, resume=True)
    miner, dispatcher, info = load_session(resumed)
    assert dispatcher is not None
    assert info.questions == 120
    result = dispatcher.run()
    assert result.fingerprint() == dispatched_baseline.fingerprint()
    # The dispatch books (timeouts, retries, in-flight high water,
    # simulated makespan) are part of the restored state too.
    assert result.dispatch == dispatched_baseline.dispatch
    resumed.close()


class TestRestoreEdges:
    def test_capture_restore_round_trip_without_storage(self, sync_fingerprint):
        miner = make_miner()
        miner.run(max_questions=60)
        restored, dispatcher = restore_session(capture_session(miner))
        assert dispatcher is None
        assert restored.run().fingerprint() == sync_fingerprint

    def test_garbage_payload_is_a_storage_error(self):
        with pytest.raises(StorageError):
            restore_session(b"not a pickle")

    def test_unknown_format_is_a_storage_error(self):
        with pytest.raises(StorageError):
            restore_session(pickle.dumps({"format": 999}))

    def test_empty_store_is_a_storage_error(self, tmp_path):
        storage = open_backend(tmp_path / "empty.db", "sqlite")
        with pytest.raises(StorageError):
            load_session(storage)
        storage.close()


class TestRunnerResume:
    def test_resume_session_finishes_a_killed_experiment(self, tmp_path):
        config = replace(
            CFG,
            checkpoints=(80, 160),
            checkpoint_path=str(tmp_path / "killed.db"),
            checkpoint_every=40,
        )
        _, population, truth = build_world(config, 42)
        full = run_session(
            replace(config, checkpoint_path=str(tmp_path / "full.db")),
            population,
            truth,
            seed=7,
        )

        # Replicate run_session's deterministic setup, die at q=100.
        rng = as_rng(7)
        crowd = build_crowd(config, population, rng)
        storage = open_backend(config.checkpoint_path, config.storage_backend)
        miner = CrowdMiner(crowd, _miner_config(config, rng), storage=storage)
        miner.run(max_questions=100)
        del miner
        storage.close()

        resumed = resume_session(config, truth)
        assert [
            (p.questions, p.precision, p.recall) for p in resumed.curve.points
        ] == [(p.questions, p.precision, p.recall) for p in full.curve.points]
        assert resumed.rules_discovered == full.rules_discovered
        assert resumed.open_questions == full.open_questions

    def test_resume_session_rejects_dispatched_checkpoints(self, tmp_path):
        config = replace(CFG, checkpoint_path=str(tmp_path / "dispatched.db"))
        _, _, truth = build_world(config, 42)
        storage = open_backend(config.checkpoint_path, "sqlite")
        miner = make_miner(storage=storage, checkpoint_every=40)
        dispatcher = Dispatcher(miner, dispatch_config())
        dispatcher._fill_window()
        while dispatcher._in_flight and miner.questions_asked < 50:
            dispatcher.clock.pop()
            dispatcher._maybe_checkpoint()
            dispatcher._fill_window()
        del miner, dispatcher
        storage.close()
        with pytest.raises(StorageError):
            resume_session(config, truth)

    def test_resume_session_requires_a_checkpoint_path(self):
        from repro.errors import ConfigurationError

        _, _, truth = build_world(CFG, 42)
        with pytest.raises(ConfigurationError):
            resume_session(CFG, truth)
