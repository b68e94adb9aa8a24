"""Round-robin turn-taking: the one scheduling rule every crowd shares.

In the paper's multi-user model members take turns being active and the
miner serves whoever is next (DESIGN.md §1.4). Every scheduler in the
package — :class:`~repro.crowd.crowd.SimulatedCrowd`,
:class:`~repro.crowd.array_crowd.ArrayCrowd`, a dispatcher lane's
:class:`~repro.crowd.partition.CrowdPartition` and the serving
:class:`~repro.serve.roster.WorkerRoster` — takes its turns from here:

- the members still available form an ordered list; the turn goes to
  index ``cursor % free`` among those not busy (already holding a
  question), and only a successful pick advances the cursor;
- when everyone has left, picking raises
  :class:`~repro.errors.CrowdExhaustedError`; when everyone available
  is busy it returns ``None`` ("nobody free right now").

:class:`Rotation` is that rule over list positions (the columnar crowd
keeps its available members as a sorted index array);
:class:`MemberRotation` adds the ordered, shrinking set of member ids
the other schedulers keep, and an append-only log of who left it. A
departure deletes one entry, found by bisection over the members'
ranks, so neither a pick nor a departure re-indexes the members who
stay.

Availability only ever shrinks, so the log is all a view over part of
the crowd needs to follow it: a
:class:`~repro.crowd.partition.CrowdPartition` keeps a cursor into its
crowd's departure log and discards only the entries it has not applied
yet, which costs O(departures) over a whole session instead of a
rescan of its members after every departure.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Collection, Iterable, Iterator

from repro.errors import CrowdExhaustedError


class Rotation:
    """The round-robin cursor over a list of available members."""

    def __init__(self) -> None:
        self.cursor = 0

    def turn(self, available: int, busy: Collection[int] = ()) -> int | None:
        """List position of the member whose turn it is.

        ``available`` is the length of the available list and ``busy``
        a set of distinct positions in it to skip.
        """
        if available == 0:
            raise CrowdExhaustedError("every member has left the session")
        free = available - len(busy)
        if free == 0:
            return None
        # Index ``cursor % free`` among the free members, mapped onto
        # the full list by stepping over every busy position before it.
        pos = self.cursor % free
        for p in sorted(busy):
            if p <= pos:
                pos += 1
        self.cursor += 1
        return pos


class MemberRotation(Rotation):
    """A rotation over member ids: an ordered set that only shrinks."""

    def __init__(self, member_ids: Iterable[str]) -> None:
        super().__init__()
        #: The available ids in order, each mapped to its rank: its
        #: position in ``_ids`` when that list was built (on the first
        #: pick), and still its position until someone leaves.
        self._slot: dict[str, int] = dict.fromkeys(member_ids, 0)
        self._ids: list[str] | None = None
        #: From the first departure after ``_ids`` was built: the ranks
        #: of ``_ids``, strictly increasing. A departure deletes one
        #: entry of each, found by bisection, and never re-ranks the
        #: members who stay.
        self._ranks: list[int] | None = None
        #: Every id discarded so far, in discard order. Append-only:
        #: views of the set follow it with a cursor.
        self.departures: list[str] = []

    def __len__(self) -> int:
        return len(self._slot)

    def __contains__(self, member_id: object) -> bool:
        return member_id in self._slot

    def __iter__(self) -> Iterator[str]:
        return iter(self._slot)

    def members(self) -> list[str]:
        """The available ids, in order (a copy)."""
        return list(self._slot)

    def discard(self, member_id: str) -> bool:
        """Drop a member who left; False when they were not available."""
        slot = self._slot
        if member_id not in slot:
            return False
        if self._ids is not None:
            if self._ranks is None:
                self._ranks = list(slot.values())
            pos = bisect_left(self._ranks, slot[member_id])
            del self._ids[pos], self._ranks[pos]
        del slot[member_id]
        self.departures.append(member_id)
        return True

    def next(self, exclude: Collection[str] = ()) -> str | None:
        """The member whose turn it is, skipping the ``exclude`` ones."""
        ids = self._ids
        slot = self._slot
        if ids is None:
            ids = self._ids = list(slot)
            for pos, member_id in enumerate(ids):
                slot[member_id] = pos
        ranks = self._ranks
        if ranks is None:
            busy = {slot[mid] for mid in exclude if mid in slot}
        else:
            busy = {bisect_left(ranks, slot[mid]) for mid in exclude if mid in slot}
        pos = self.turn(len(ids), busy)
        return None if pos is None else ids[pos]
