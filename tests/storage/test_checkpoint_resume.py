"""Kill-and-resume determinism: the tentpole contract of the storage layer.

A session killed at any round and resumed from its latest checkpoint
must produce a final summary byte-identical to the uninterrupted run —
same question log, same reported rules, same fingerprint. These tests
exercise that contract in-process for synchronous and dispatched
sessions (the CLI/SIGKILL variant lives in
``test_kill_resume.py``), plus the failure modes: corrupt payloads,
empty stores, and the answer-log rollback on restore.
"""

import copyreg
import io
import pickle
from dataclasses import fields, replace

import pytest

from repro._util import as_rng
from repro.core import TransactionDB
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
from repro.miner.state import RuleKnowledge
from repro.storage import (
    StorageError,
    capture_session,
    load_session,
    open_backend,
    restore_session,
)

def format2_pickle(doc) -> bytes:
    """Pickle ``doc`` with databases and rule knowledge in their format-2 layout.

    Format 2 pickled both through the default slot state: every slot,
    the databases' inverted index and the summary cache included.
    """

    class Format2Pickler(pickle.Pickler):
        def reducer_override(self, obj):
            if isinstance(obj, TransactionDB):
                names = ("_transactions", "_index")
            elif isinstance(obj, RuleKnowledge):
                names = [f.name for f in fields(obj)]
            else:
                return NotImplemented
            state = (None, {name: getattr(obj, name) for name in names})
            return copyreg.__newobj__, (type(obj),), state

    buffer = io.BytesIO()
    Format2Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(doc)
    return buffer.getvalue()


def missing_class_pickle(doc: dict) -> bytes:
    """``doc`` pickled with a deleted class as its ``"miner"``.

    Pickles a placeholder class, then renames its reference in the
    protocol-0 text to ``repro.faults.adversaries.GarbledMember``,
    which no longer exists.
    """
    from repro.crowd import MemberCrowd

    placeholder = pickle.dumps({**doc, "miner": MemberCrowd}, protocol=0)
    return placeholder.replace(
        b"crepro.crowd.crowd\nMemberCrowd\n", b"crepro.faults.adversaries\nGarbledMember\n"
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


@pytest.mark.parametrize("kind", ["sqlite"])
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


@pytest.mark.parametrize("kind", ["sqlite"])
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


def faulted_dispatcher(miner):
    """A dispatched session with crashes and duplicates armed to its end."""
    from repro.faults import FaultInjector, periodic_plan

    dispatcher = Dispatcher(
        miner,
        DispatchConfig(
            window=4, timeout=400.0, latency=LognormalLatency(60.0, 1.0), seed=99
        ),
    )
    plan = periodic_plan(
        horizon=50_000.0, crash_every=900.0, duplicate_every=300.0, seed=13
    )
    FaultInjector(dispatcher, plan).arm()
    return dispatcher


def test_fault_injected_kill_and_resume_keeps_pending_faults(tmp_path):
    # The injector's faults are clock events; a checkpoint taken while
    # some are still scheduled must carry them, or the resumed run
    # books fewer crashes and duplicates than the uninterrupted one.
    baseline = faulted_dispatcher(make_miner()).run()

    path = tmp_path / "faulted.db"
    storage = open_backend(path, "sqlite")
    miner = make_miner(storage=storage, checkpoint_every=40)
    dispatcher = faulted_dispatcher(miner)
    dispatcher._fill_window()
    while dispatcher.in_flight_count and miner.questions_asked < 130:
        if not dispatcher._step():
            break
    at_kill = dispatcher.stats()
    del miner, dispatcher
    storage.close()

    resumed = open_backend(path, "sqlite", resume=True)
    miner, dispatcher, info = load_session(resumed)
    assert info.questions == 120
    result = dispatcher.run()
    resumed.close()
    # Faults kept firing after the kill point...
    assert result.dispatch.crashed > at_kill.crashed
    assert result.dispatch.duplicates > at_kill.duplicates
    # ...exactly as they did in the run nobody killed.
    assert result.fingerprint() == baseline.fingerprint()
    assert result.dispatch == baseline.dispatch


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
        from repro.storage.integrity import seal_payload

        with pytest.raises(StorageError, match="unsupported checkpoint format 999"):
            restore_session(seal_payload(pickle.dumps({"format": 999})))

    def test_unsealed_payload_is_corrupt(self):
        # Payloads written before sealing existed carry a format this
        # build refuses anyway; an unsealed blob is never unpickled.
        from repro.storage import CorruptStoreError
        from repro.storage.checkpoint import CHECKPOINT_FORMAT

        doc = {"format": CHECKPOINT_FORMAT, "miner": None, "dispatch": None}
        with pytest.raises(CorruptStoreError, match="not sealed"):
            restore_session(pickle.dumps(doc))

    def test_foreign_format_payload_is_refused(self):
        # Well-formed, sealed payloads stamped with another format must
        # be refused, not resumed into a diverging run: format 1 (the
        # layout before one rotation and one dispatcher snapshot),
        # format 2 (before personal databases travelled as rows alone
        # and rule knowledge without its summary cache), format 3
        # (before members reported departures to the crowd's rotation),
        # format 4 (before the dispatcher seat travelled as the live
        # object instead of a snapshot document), format 5 (before
        # rotations kept a departure log instead of a generation),
        # format 6 (before a columnar crowd kept unread answers as
        # recipes), format 7 (before the question log was columnar
        # and sample stores kept float pairs), format 8 (before
        # rotations and departure logs held crowd positions), format 9
        # (before the object crowd and the roster held their
        # quarantined members as positions), format 10 (before
        # dispatcher lanes lost their batch stream and the dispatcher
        # its delivery tokens) and format 11 (before the crowd stopped
        # pickling member objects and the stamp moved ahead of the
        # session).
        from repro.storage.checkpoint import CHECKPOINT_FORMAT
        from repro.storage.integrity import seal_payload

        miner = make_miner()
        miner.run(max_questions=10)
        for old in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11):
            doc = {"format": old, "miner": miner, "dispatch": None}
            assert CHECKPOINT_FORMAT != old
            with pytest.raises(
                StorageError, match=f"unsupported checkpoint format {old}"
            ):
                restore_session(seal_payload(pickle.dumps(doc)))
        # A real format-2 payload also carries the format-2 object
        # layouts, which this build's state hooks meet before the
        # format stamp can be read: still a StorageError, nothing else.
        doc = {"format": 2, "miner": miner, "dispatch": None}
        with pytest.raises(StorageError, match="cannot unpickle"):
            restore_session(seal_payload(format2_pickle(doc)))

    @pytest.mark.parametrize("layout", ["stamp-first", "format-11"])
    def test_payload_naming_a_missing_class_is_refused_with_its_name(self, layout):
        # A store written before a class was deleted must say what is
        # missing, not read like a damaged payload.
        from repro.storage.checkpoint import CHECKPOINT_FORMAT
        from repro.storage.integrity import seal_payload

        if layout == "stamp-first":
            payload = pickle.dumps(CHECKPOINT_FORMAT) + missing_class_pickle({})
        else:
            payload = missing_class_pickle({"format": 11})
        with pytest.raises(StorageError, match="AttributeError.*GarbledMember"):
            restore_session(seal_payload(payload))

    def test_a_later_format_is_refused_before_the_session_is_unpickled(self):
        from repro.storage.checkpoint import CHECKPOINT_FORMAT
        from repro.storage.integrity import seal_payload

        payload = pickle.dumps(CHECKPOINT_FORMAT + 1) + missing_class_pickle({})
        with pytest.raises(
            StorageError, match=f"unsupported checkpoint format {CHECKPOINT_FORMAT + 1}"
        ):
            restore_session(seal_payload(payload))

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
        storage = open_backend(config.checkpoint_path)
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
