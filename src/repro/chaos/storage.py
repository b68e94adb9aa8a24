"""A storage backend that damages what passes through it — on purpose.

:class:`FaultyBackend` wraps any real
:class:`~repro.storage.backend.StorageBackend` and executes a
:class:`~repro.chaos.plan.StorageFaultPlan` against the traffic:
checkpoint payloads get torn, bit-flipped or silently lost on their
way to the inner backend, appends and saves hit injected disk-full
errors. Everything *else* — reads, scrubs, truncation, resume — passes
through untouched, so what the recovery machinery sees is exactly what
a failing disk would have left behind.

The wrapper is where the storage half of the chaos matrix gets its
teeth: damage is injected *below* the checksum seal
(:mod:`repro.storage.integrity`), so a torn write really does land
torn bytes in the checkpoint table, and the scrub/repair pass has to
find them the honest way.
"""

from __future__ import annotations

import random
from typing import Any

from repro.chaos.kill import KillSwitch
from repro.chaos.plan import StorageFaultPlan
from repro.storage.backend import AnswerRecord, CheckpointInfo, StorageError


class FaultyBackend:
    """Execute a seeded fault plan against a wrapped storage backend.

    Fault ordinals count this wrapper's own traffic (1-based): the
    plan addresses "the 2nd checkpoint save", not row ids. Where a
    fault needs randomness (the truncation byte of a torn write, the
    flipped bit's position), it derives from ``plan.seed`` and the
    ordinal — the same plan replays the same damage, byte for byte.

    ``kill`` arms process-death at storage kill-points: ``append``
    after a log record is written (uncommitted), ``commit`` between
    the WAL append and its COMMIT (through the inner backend's
    ``pre_commit_hook``, when it has one), ``checkpoint`` as the
    payload is being saved.
    """

    def __init__(
        self,
        inner: Any,
        plan: StorageFaultPlan | None = None,
        *,
        kill: KillSwitch | None = None,
    ) -> None:
        self.inner = inner
        self.plan = plan or StorageFaultPlan()
        self.kill = kill
        self._appends = 0
        self._saves = 0
        #: Injected-fault tallies (``chaos.storage.*`` counter names).
        self.counts: dict[str, int] = {}
        self._obs = None
        if kill is not None and hasattr(inner, "pre_commit_hook"):
            inner.pre_commit_hook = lambda: kill.tick("commit")

    # -- instrumentation -------------------------------------------------------

    def bind_obs(self, obs: Any) -> None:
        """Report fault counters through a session's instrumentation.

        Called by the miner when the backend is attached (and by
        resume when it is re-attached); faults injected before binding
        are replayed into the counters so nothing is lost.
        """
        self._obs = obs
        for name, value in self.counts.items():
            obs.count(name, value)

    def _count(self, fault: str) -> None:
        name = f"chaos.storage.{fault}"
        self.counts[name] = self.counts.get(name, 0) + 1
        if self._obs is not None:
            self._obs.count(name)

    def _rng(self, ordinal: int) -> random.Random:
        return random.Random((self.plan.seed << 20) ^ ordinal)

    # -- faulted writes --------------------------------------------------------

    def append_answer(self, record: AnswerRecord) -> None:
        self._appends += 1
        if self._appends in self.plan.disk_full_appends:
            self._count("disk_full")
            raise StorageError(
                f"injected disk-full on answer append #{self._appends}"
            )
        self.inner.append_answer(record)
        if self.kill is not None:
            self.kill.tick("append")

    def save_checkpoint(
        self, payload: bytes, *, questions: int, kb_rules: int
    ) -> CheckpointInfo:
        self._saves += 1
        ordinal = self._saves
        if self.kill is not None:
            self.kill.tick("checkpoint")
        if ordinal in self.plan.disk_full_checkpoints:
            self._count("disk_full")
            raise StorageError(f"injected disk-full on checkpoint #{ordinal}")
        if ordinal in self.plan.lost_checkpoints:
            # The write "succeeds" but never reaches disk: a lost
            # fsync tail. With a transactional inner backend the
            # deferred answer batch stays uncommitted too — exactly
            # the tail a real power cut would eat.
            self._count("lost")
            return CheckpointInfo(
                checkpoint_id=-ordinal,
                questions=questions,
                kb_rules=kb_rules,
                answers_logged=len(self.inner.answers()),
                payload_bytes=len(payload),
            )
        if ordinal in self.plan.torn_checkpoints:
            rng = self._rng(ordinal)
            cut = rng.randrange(1, max(2, len(payload)))
            payload = payload[:cut]
            self._count("torn")
        if ordinal in self.plan.bitflip_checkpoints:
            rng = self._rng(~ordinal)
            position = rng.randrange(len(payload) * 8)
            flipped = bytearray(payload)
            flipped[position // 8] ^= 1 << (position % 8)
            payload = bytes(flipped)
            self._count("bitflip")
        return self.inner.save_checkpoint(
            payload, questions=questions, kb_rules=kb_rules
        )

    # -- clean passthrough -----------------------------------------------------

    def answers(self) -> list[AnswerRecord]:
        return self.inner.answers()

    def truncate_answers(self, keep: int) -> None:
        self.inner.truncate_answers(keep)

    def latest_checkpoint(self) -> tuple[CheckpointInfo, bytes] | None:
        return self.inner.latest_checkpoint()

    def load_checkpoint(self, checkpoint_id: int) -> tuple[CheckpointInfo, bytes]:
        return self.inner.load_checkpoint(checkpoint_id)

    def drop_checkpoint(self, checkpoint_id: int) -> None:
        self.inner.drop_checkpoint(checkpoint_id)

    def checkpoints(self) -> list[CheckpointInfo]:
        return self.inner.checkpoints()

    def bytes_on_disk(self) -> int:
        return self.inner.bytes_on_disk()

    def describe(self) -> str:
        return f"chaos({self.inner.describe()})"

    def close(self) -> None:
        self.inner.close()

    def abort(self) -> None:
        """Simulated process death, delegated (close when unsupported)."""
        getattr(self.inner, "abort", self.inner.close)()


__all__ = ["FaultyBackend"]
