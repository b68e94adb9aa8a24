"""Scheduling views over a slice of a crowd.

A :class:`CrowdPartition` is what one lane of a sharded dispatcher
schedules against: a fixed, interleaved subset of the crowd's members
with its own round-robin rotation. Questions still go through the
owning crowd (statistics, tokens, and answer content are crowd-global);
the partition only decides *who in this lane answers next*.

The rotation is synced to the crowd's availability generation, so
steady-state scheduling costs O(1) per pick; the partition is rescanned
only after someone in the crowd left.

A partition pickles as its crowd, its slice of crowd positions and its
rotation cursor. The id list and the rotation's available set are
O(crowd) and rebuilt on load (the first pick rescans availability), so
a sharded session's checkpoint stays flat in crowd size.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence

from repro.crowd.rotation import MemberRotation


class CrowdPartition:
    """One lane's scheduling view over the crowd positions ``positions``.

    The partition mirrors the crowd's scheduling protocol
    (:meth:`next_member`, :meth:`available_members`,
    :meth:`available_count`) restricted to its own members, with the
    crowd's rotation rule (:mod:`repro.crowd.rotation`). A partition
    over ``slice(None)`` with a fresh cursor schedules exactly like the
    crowd itself. ``member_ids`` passes ``crowd.member_ids[positions]``
    when the caller already holds the crowd's id list, so splitting a
    crowd into lanes builds that list once, not once per lane.
    """

    def __init__(
        self, crowd, positions: slice, member_ids: Sequence[str] | None = None
    ) -> None:
        self.crowd = crowd
        self.positions = positions
        if member_ids is None:
            member_ids = crowd.member_ids[positions]
        self._ids: list[str] = list(member_ids)
        self.rotation = MemberRotation(self._ids)
        self._generation: int | None = None

    def __getstate__(self) -> tuple:
        return self.crowd, self.positions, self.rotation.cursor

    def __setstate__(self, state: tuple) -> None:
        crowd, positions, cursor = state
        self.__init__(crowd, positions)
        self.rotation.cursor = cursor

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def member_ids(self) -> list[str]:
        """The partition's members, in crowd order (a copy)."""
        return list(self._ids)

    def _synced(self) -> MemberRotation:
        """The rotation, less whoever left the crowd since the last look."""
        generation = self.crowd.availability_generation
        if generation != self._generation:
            is_available = self.crowd.is_member_available
            for member_id in self.rotation.members():
                if not is_available(member_id):
                    self.rotation.discard(member_id)
            self._generation = generation
        return self.rotation

    def available_members(self) -> list[str]:
        """Available members of this partition, in crowd order."""
        return self._synced().members()

    def available_count(self) -> int:
        """How many of this partition's members can still answer."""
        return len(self._synced())

    def next_member(self, exclude: Collection[str] = ()) -> str | None:
        """Round-robin over the partition's available members.

        Same contract as ``SimulatedCrowd.next_member``: raises
        :class:`~repro.errors.CrowdExhaustedError` when the whole
        partition has left, returns ``None`` when everyone available is
        excluded (busy), and advances the cursor only on a pick.
        """
        return self._synced().next(exclude)
