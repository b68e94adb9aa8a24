"""Checkpoints stay bounded at crowd scale, and sharded sessions resume.

Satellites of the scaling refactor (``docs/scaling.md``): a checkpoint
must carry the session (knowledge base, dispatch books, sparse crowd
state) and the population *recipe* — never the per-member state, which
is regenerated on demand. So checkpoint size must be flat in member
count, and a sharded session killed mid-flight must resume
byte-identically, exactly like the single-dispatcher contract in
``test_checkpoint_resume.py``.
"""

from repro._util import as_rng
from repro.crowd import ExactAnswerModel, SimulatedCrowd
from repro.dispatch import DispatchConfig, Dispatcher, LognormalLatency
from repro.estimation import Thresholds
from repro.eval.runner import (
    ExperimentConfig,
    _miner_config,
    build_crowd,
    build_world,
)
from repro.miner import CrowdMiner, CrowdMinerConfig, FixedRatioPolicy
from repro.storage import capture_session, load_session, open_backend, restore_session
from repro.synth import ArrayPopulation, folk_remedies_model


def array_miner(n_members, questions=60):
    model = folk_remedies_model(seed=1)
    population = ArrayPopulation(
        model, n_members=n_members, transactions_per_member=80, seed=7
    )
    crowd = SimulatedCrowd(population, answer_model=ExactAnswerModel(), seed=5)
    return CrowdMiner(
        crowd,
        CrowdMinerConfig(
            thresholds=Thresholds(0.10, 0.5),
            budget=questions,
            open_policy=FixedRatioPolicy(0.2),
            seed=6,
        ),
    )


def array_session(n_members, questions=60):
    miner = array_miner(n_members, questions)
    miner.run()
    return miner


def sharded_array_payload(n_members, questions=60):
    """A 4-shard session captured with questions still in flight."""
    miner = array_miner(n_members, questions)
    dispatcher = Dispatcher(
        miner,
        DispatchConfig(
            window=8, timeout=500.0, latency=LognormalLatency(60.0, 1.0), seed=9
        ),
        shards=4,
    )
    dispatcher._fill_window()
    while miner.questions_asked < questions // 2 and dispatcher._step():
        pass
    assert dispatcher.in_flight_count, "want questions in flight at capture"
    return capture_session(miner, dispatcher)


class TestCheckpointSizeAtScale:
    def test_size_flat_in_member_count(self):
        small = array_session(n_members=1_000)
        large = array_session(n_members=100_000)
        small_payload = capture_session(small)
        large_payload = capture_session(large)
        # Same session over a 100x crowd: the payload may only differ
        # by which members happened to be questioned, never by O(n)
        # member state.
        assert len(large_payload) < 1.2 * len(small_payload) + 4096, (
            f"checkpoint grew from {len(small_payload)} to "
            f"{len(large_payload)} bytes over a 100x crowd"
        )

    def test_sharded_size_flat_in_member_count(self):
        # Each lane's partition holds an O(crowd) member-id list; it
        # must be rebuilt on load, never stored.
        small_payload = sharded_array_payload(n_members=1_000)
        large_payload = sharded_array_payload(n_members=100_000)
        assert len(large_payload) < 1.2 * len(small_payload) + 4096, (
            f"sharded checkpoint grew from {len(small_payload)} to "
            f"{len(large_payload)} bytes over a 100x crowd"
        )

    def test_sharded_restore_formats_each_member_id_once(self, monkeypatch):
        # Lanes keep crowd positions, not id lists, and the departure
        # log holds positions: a restore formats no member id at all.
        payload = sharded_array_payload(n_members=2_000)
        formatted = [0]
        member_id_at = ArrayPopulation.member_id_at

        def counting(self, index):
            formatted[0] += 1
            return member_id_at(self, index)

        monkeypatch.setattr(ArrayPopulation, "member_id_at", counting)
        restore_session(payload)
        assert formatted[0] == 0

    def test_restored_large_session_still_answers(self):
        miner = array_session(n_members=100_000, questions=40)
        restored, dispatcher = restore_session(capture_session(miner))
        assert dispatcher is None
        assert restored.questions_asked == miner.questions_asked
        # The restored crowd regenerates member state on demand.
        member = restored.crowd.next_member()
        rule = next(iter(restored.state.rules())).rule
        answer = restored.crowd.ask_closed(member, rule)
        assert 0.0 <= answer.stats.support <= 1.0


CFG = ExperimentConfig(
    name="sharded-resume",
    budget=160,
    checkpoints=(160,),
    repetitions=1,
    n_items=24,
    n_patterns=5,
    n_members=12,
    transactions_per_member=50,
)


def make_miner(storage=None, checkpoint_every=0):
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


class TestShardedKillResume:
    def test_mid_flight_kill_resumes_byte_identically(self, tmp_path):
        baseline = Dispatcher(make_miner(), dispatch_config(), shards=4).run()

        path = str(tmp_path / "sharded.db")
        storage = open_backend(path, "sqlite")
        miner = make_miner(storage=storage, checkpoint_every=40)
        dispatcher = Dispatcher(miner, dispatch_config(), shards=4)
        dispatcher._fill_window()
        while dispatcher.in_flight_count and miner.questions_asked < 130:
            if not dispatcher._step():
                break
        assert dispatcher.in_flight_count, "want questions in flight at the kill"
        del miner, dispatcher
        storage.close()

        resumed_storage = open_backend(path, "sqlite", resume=True)
        miner, dispatcher, info = load_session(resumed_storage)
        assert isinstance(dispatcher, Dispatcher)
        assert dispatcher.shards == 4
        assert info.questions == 120
        result = dispatcher.run()
        assert result.fingerprint() == baseline.fingerprint()
        assert result.dispatch == baseline.dispatch
        resumed_storage.close()

    def test_sharded_snapshot_roundtrips_in_memory(self):
        miner = make_miner()
        dispatcher = Dispatcher(miner, dispatch_config(), shards=3)
        dispatcher._fill_window()
        for _ in range(25):
            if not dispatcher._step():
                break
        payload = capture_session(miner, dispatcher)

        final = dispatcher.run()
        restored_miner, restored_dispatcher = restore_session(payload)
        assert restored_dispatcher.shards == 3
        resumed = restored_dispatcher.run()
        assert resumed.fingerprint() == final.fingerprint()
        assert resumed.dispatch == final.dispatch
