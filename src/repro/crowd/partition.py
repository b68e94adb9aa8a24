"""Scheduling views over a slice of a crowd.

A :class:`CrowdPartition` is what one lane of a sharded dispatcher
schedules against: a fixed, interleaved subset of the crowd's members
with its own round-robin rotation. Questions still go through the
owning crowd (statistics, tokens, and answer content are crowd-global);
the partition only decides *who in this lane answers next*.

The partition learns who left from the crowd's append-only departure
log (``crowd.departures``): it keeps a cursor into the log and, before
each pick, discards only the entries it has not applied yet. A pick
therefore costs O(1) when nobody left, and a lane does O(departures)
availability work over a whole session — never a rescan of its
members.

A partition pickles as its crowd, its slice of crowd positions and its
rotation cursor. The id list and the rotation's available set are
O(lane) and rebuilt on load from the crowd's ids at those positions
alone; the log cursor restarts at 0, so the first pick replays every
departure. A sharded session's checkpoint therefore stays flat in
crowd size.
"""

from __future__ import annotations

from collections.abc import Collection, Iterator

from repro.crowd.rotation import MemberRotation


class CrowdPartition:
    """One lane's scheduling view over the crowd positions ``positions``.

    The partition mirrors the crowd's scheduling protocol
    (:meth:`next_member`, :meth:`available_members`,
    :meth:`iter_available`, :meth:`available_count`) restricted to its
    own members, with the crowd's rotation rule
    (:mod:`repro.crowd.rotation`). A partition over ``slice(None)``
    with a fresh cursor schedules exactly like the crowd itself. The
    crowd provides ``member_ids_in(positions)`` and ``departures``.
    """

    def __init__(self, crowd, positions: slice) -> None:
        self.crowd = crowd
        self.positions = positions
        self._ids: list[str] = crowd.member_ids_in(positions)
        self.rotation = MemberRotation(self._ids)
        #: How many entries of the crowd's departure log are applied.
        self._applied = 0

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
        departures = self.crowd.departures
        if self._applied < len(departures):
            discard = self.rotation.discard
            for member_id in departures[self._applied :]:
                discard(member_id)
            self._applied = len(departures)
        return self.rotation

    def available_members(self) -> list[str]:
        """Available members of this partition, in crowd order."""
        return self._synced().members()

    def iter_available(self) -> Iterator[str]:
        """Available members of this partition, in crowd order, lazily."""
        return iter(self._synced())

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
