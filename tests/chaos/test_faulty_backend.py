"""Unit contract of the fault-injecting storage wrapper.

The chaos matrix only proves anything if :class:`FaultyBackend`
actually injects what the plan says, deterministically, and damages
bytes *below* the checksum seal — so the scrub has to catch the damage
the honest way.
"""

import random

import pytest

from repro.chaos import FaultyBackend, StorageFaultPlan
from repro.storage import (
    AnswerRecord,
    SQLiteBackend,
    StorageError,
    open_backend,
    scrub_store,
)
from repro.storage.integrity import open_payload, seal_payload


def record(seq):
    return AnswerRecord(
        seq=seq, member_id=f"u{seq}", kind="closed",
        rule_key=None, support=0.3, confidence=0.7,
    )


def sealed(seq: int = 0) -> bytes:
    return seal_payload(b"payload-%d" % seq * 50)


class TestPlanValidation:
    def test_zero_ordinal_rejected(self):
        with pytest.raises(ValueError):
            StorageFaultPlan(torn_checkpoints=(0,))

    def test_negative_probability_rejected(self):
        from repro.chaos import TransportFaultPlan

        with pytest.raises(ValueError):
            TransportFaultPlan(drop_request=-0.1)
        with pytest.raises(ValueError):
            TransportFaultPlan(duplicate=1.5)

    def test_clean_plan_knows_it(self):
        assert StorageFaultPlan().is_clean
        assert not StorageFaultPlan(lost_checkpoints=(1,)).is_clean

    def test_fuzz_plans_are_valid_and_seeded(self):
        rng_a, rng_b = random.Random(7), random.Random(7)
        plans = [StorageFaultPlan.fuzz(rng_a) for _ in range(20)]
        again = [StorageFaultPlan.fuzz(rng_b) for _ in range(20)]
        assert plans == again


class TestInjectedFaults:
    def test_disk_full_on_planned_append_only(self):
        store = FaultyBackend(
            open_backend(None, "memory"), StorageFaultPlan(disk_full_appends=(2,))
        )
        store.append_answer(record(0))
        with pytest.raises(StorageError, match="disk-full"):
            store.append_answer(record(1))
        store.append_answer(record(2))
        # The failed append never reached the inner backend.
        assert [r.seq for r in store.answers()] == [0, 2]
        assert store.counts == {"chaos.storage.disk_full": 1}

    def test_torn_checkpoint_fails_checksum(self):
        store = FaultyBackend(
            open_backend(None, "memory"), StorageFaultPlan(seed=3, torn_checkpoints=(1,))
        )
        store.save_checkpoint(sealed(), questions=5, kb_rules=2)
        info, blob = store.latest_checkpoint()
        assert len(blob) < len(sealed())
        with pytest.raises(StorageError):
            open_payload(blob)

    def test_bitflip_keeps_length_but_fails_checksum(self):
        store = FaultyBackend(
            open_backend(None, "memory"), StorageFaultPlan(seed=3, bitflip_checkpoints=(1,))
        )
        store.save_checkpoint(sealed(), questions=5, kb_rules=2)
        _info, blob = store.latest_checkpoint()
        assert len(blob) == len(sealed())
        assert blob != sealed()
        with pytest.raises(StorageError):
            open_payload(blob)

    def test_lost_checkpoint_never_reaches_disk(self):
        store = FaultyBackend(
            open_backend(None, "memory"), StorageFaultPlan(lost_checkpoints=(1,))
        )
        info = store.save_checkpoint(sealed(), questions=5, kb_rules=2)
        # The caller saw success (a lost fsync lies), yet nothing landed.
        assert info.questions == 5
        assert store.latest_checkpoint() is None
        assert store.counts == {"chaos.storage.lost": 1}

    def test_unplanned_ordinals_pass_through_clean(self):
        store = FaultyBackend(
            open_backend(None, "memory"), StorageFaultPlan(seed=9, torn_checkpoints=(2,))
        )
        store.save_checkpoint(sealed(0), questions=1, kb_rules=0)
        store.save_checkpoint(sealed(1), questions=2, kb_rules=0)
        store.save_checkpoint(sealed(2), questions=3, kb_rules=0)
        blobs = [store.load_checkpoint(i.checkpoint_id)[1] for i in store.checkpoints()]
        assert blobs[0] == sealed(0)
        assert open_payload(blobs[2]) == open_payload(sealed(2))
        with pytest.raises(StorageError):
            open_payload(blobs[1])

    def test_same_plan_injects_identical_damage(self):
        def run():
            store = FaultyBackend(
                open_backend(None, "memory"),
                StorageFaultPlan(
                    seed=11, torn_checkpoints=(1,), bitflip_checkpoints=(2,)
                ),
            )
            store.save_checkpoint(sealed(0), questions=1, kb_rules=0)
            store.save_checkpoint(sealed(1), questions=2, kb_rules=0)
            return [
                store.load_checkpoint(info.checkpoint_id)[1]
                for info in store.checkpoints()
            ]

        assert run() == run()

    def test_scrub_finds_exactly_the_damaged_rows(self, tmp_path):
        store = FaultyBackend(
            SQLiteBackend(tmp_path / "s.db"),
            StorageFaultPlan(seed=5, bitflip_checkpoints=(2,)),
        )
        for n in range(3):
            store.append_answer(record(n))
            store.save_checkpoint(sealed(n), questions=n + 1, kb_rules=0)
        verified, corrupt = scrub_store(store)
        assert [info.questions for info in corrupt] == [2]
        assert [info.questions for info in verified] == [1, 3]
        store.close()


class TestInstrumentation:
    def test_bind_obs_replays_pre_binding_faults(self):
        from repro.obs import Instrumentation

        store = FaultyBackend(
            open_backend(None, "memory"), StorageFaultPlan(lost_checkpoints=(1, 2))
        )
        store.save_checkpoint(sealed(), questions=1, kb_rules=0)
        obs = Instrumentation()
        store.bind_obs(obs)
        assert obs.snapshot().counters["chaos.storage.lost"] == 1
        store.save_checkpoint(sealed(), questions=2, kb_rules=0)
        assert obs.snapshot().counters["chaos.storage.lost"] == 2

    def test_describe_marks_the_wrapper(self):
        store = FaultyBackend(open_backend(None, "memory"))
        assert store.describe().startswith("chaos(")
