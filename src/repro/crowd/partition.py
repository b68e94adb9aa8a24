"""Scheduling views over a slice of a crowd.

A :class:`CrowdPartition` is what one lane of a sharded dispatcher
schedules against: a fixed, interleaved subset of the crowd's members
with its own round-robin rotation. Questions still go through the
owning crowd (statistics and answer content are crowd-global);
the partition only decides *who in this lane answers next*.

A partition holds its slice of crowd positions as a ``range`` and a
:class:`~repro.crowd.rotation.Rotation` over it, never a list of member
ids: building one formats no id, and it formats one only for the member
it hands out, or while :meth:`CrowdPartition.iter_available` is walked.
It maps the busy ids it is asked to skip through a dict of the ids it
handed out that are still busy, so a pick costs a dict lookup per busy
member; any other id goes through the crowd's ``position_of``, and ids
the crowd does not know are ignored.

The partition learns who left from the crowd's append-only departure
log of positions (``crowd.departures``): it keeps a cursor into the log
and, before each pick, discards only the entries it has not applied
yet. A pick therefore costs O(1) when nobody left, and a lane does
O(departures) availability work over a whole session — never a rescan
of its members.

A partition pickles as its crowd, its slice of crowd positions and its
rotation cursor; the log cursor restarts at 0, so the first pick
replays every departure. A sharded session's checkpoint therefore stays
flat in crowd size, and restoring one formats no member id.
"""

from __future__ import annotations

from collections.abc import Collection, Iterator

from repro.crowd.rotation import Rotation


class CrowdPartition:
    """One lane's scheduling view over the crowd positions ``positions``.

    The partition mirrors the crowd's scheduling protocol
    (:meth:`next_member`, :meth:`available_members`,
    :meth:`iter_available`, :meth:`available_count`) restricted to its
    own members, with the crowd's rotation rule
    (:mod:`repro.crowd.rotation`). A partition over ``slice(None)``
    with a fresh cursor schedules exactly like the crowd itself. The
    crowd provides ``member_id_at(position)``, ``position_of(member_id)``
    (``KeyError`` for an unknown id) and ``departures``.
    """

    def __init__(self, crowd, positions: slice) -> None:
        self.crowd = crowd
        self.positions = positions
        self._range = range(len(crowd))[positions]
        self.rotation = Rotation(self._range)
        #: How many entries of the crowd's departure log are applied.
        self._applied = 0
        #: The ids of the last pick's busy members and of its pick,
        #: with their positions.
        self._handed: dict[str, int] = {}

    def __getstate__(self) -> tuple:
        return self.crowd, self.positions, self.rotation.cursor

    def __setstate__(self, state: tuple) -> None:
        crowd, positions, cursor = state
        self.__init__(crowd, positions)
        self.rotation.cursor = cursor

    def __len__(self) -> int:
        return len(self._range)

    @property
    def member_ids(self) -> list[str]:
        """The partition's members, in crowd order (formats every id)."""
        return [self.crowd.member_id_at(p) for p in self._range]

    def _synced(self) -> Rotation:
        """The rotation, less whoever left the crowd since the last look."""
        departures = self.crowd.departures
        if self._applied < len(departures):
            discard = self.rotation.discard
            for position in departures[self._applied :]:
                discard(position)
            self._applied = len(departures)
        return self.rotation

    def available_members(self) -> list[str]:
        """Available members of this partition, in crowd order."""
        return list(self.iter_available())

    def iter_available(self) -> Iterator[str]:
        """Available members of this partition, in crowd order, lazily."""
        return map(self.crowd.member_id_at, self._synced())

    def available_count(self) -> int:
        """How many of this partition's members can still answer."""
        return len(self._synced())

    def next_member(self, exclude: Collection[str] = ()) -> str | None:
        """Round-robin over the partition's available members.

        Same contract as ``Roster.next_member``: raises
        :class:`~repro.errors.CrowdExhaustedError` when the whole
        partition has left, returns ``None`` when everyone available is
        excluded (busy), and advances the cursor only on a pick.
        """
        rotation = self._synced()
        handed = self._handed
        busy: dict[str, int] = {}
        for member_id in exclude:
            position = handed.get(member_id)
            if position is None:
                try:
                    position = self.crowd.position_of(member_id)
                except KeyError:
                    continue
            busy[member_id] = position
        position = rotation.next(busy.values())
        self._handed = busy
        if position is None:
            return None
        member_id = self.crowd.member_id_at(position)
        busy[member_id] = position
        return member_id
