"""Round-robin turn-taking: the one scheduling rule every crowd shares.

In the paper's multi-user model members take turns being active and the
miner serves whoever is next (DESIGN.md §1.4). Every scheduler in the
package — :class:`~repro.crowd.crowd.SimulatedCrowd`,
:class:`~repro.crowd.crowd.MemberCrowd`, a dispatcher lane's
:class:`~repro.crowd.partition.CrowdPartition` and the serving
:class:`~repro.serve.roster.WorkerRoster` — takes its turns from one
:class:`Rotation`:

- the members still available form an ordered set of crowd positions;
  the turn goes to index ``cursor % free`` among those not busy
  (already holding a question), and only a successful pick advances
  the cursor;
- when everyone has left, picking raises
  :class:`~repro.errors.CrowdExhaustedError`; when everyone available
  is busy it returns ``None`` ("nobody free right now").

A rotation knows positions, never member ids: each scheduler maps ids
to positions and back (an order list and one id→position dict on the
member crowd and the roster, the population's ``member_id_at`` and
``index_of`` on the simulated crowd), and formats only the id it hands
out. The available set is the ``range`` of positions the rotation was
built over until the first departure, then a compact sorted array of
64-bit positions; a departure deletes one entry, found by bisection,
so neither a pick nor a departure re-indexes the members who stay, and
a rotation over a million members costs nothing until someone leaves.

Every departure is appended to the rotation's :attr:`Rotation.departures`
log, as a position. Availability only ever shrinks, so the log is all
a view over part of the crowd needs to follow it: a
:class:`~repro.crowd.partition.CrowdPartition` keeps a cursor into its
crowd's log and discards only the entries it has not applied yet,
which costs O(departures) over a whole session instead of a rescan of
its members after every departure.

:class:`Roster` is the scheduling half every crowd shares, written
once: the rotation, the quarantined members (as positions), the
availability and quarantine surface the miner reads, ``next_member``
and :meth:`Roster.partitions`. By default it lays ids out as an order
list and one id→position dict; the simulated crowd maps them through
its population instead. Its subclasses keep only what differs: how a member
leaves, and how (or whether) a question is answered.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Collection, Iterable, Iterator, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro._util import check_positive
from repro.errors import CrowdExhaustedError

if TYPE_CHECKING:  # the partition module builds on this one
    from repro.crowd.partition import CrowdPartition


def _compact(positions: range, gone: list[int]) -> array:
    """``positions`` less ``gone`` as a sorted array, in one vectorized pass."""
    kept = np.arange(positions.start, positions.stop, positions.step, dtype=np.int64)
    if gone:
        kept = kept[~np.isin(kept, gone)]
    return array("q", kept.tobytes())


class Rotation:
    """The round-robin turn over an ordered, shrinking set of crowd positions.

    ``positions`` are the members the rotation schedules, ascending;
    ``gone`` those of them already unavailable, logged as departures in
    the order given.
    """

    def __init__(self, positions: range, gone: Iterable[int] = ()) -> None:
        self.cursor = 0
        gone = list(gone)
        #: The available positions, ascending: ``positions`` itself
        #: until the first departure, then a compact array.
        self._available: range | array = _compact(positions, gone) if gone else positions
        #: Every position dropped so far, in drop order. Append-only:
        #: views of the set follow it with a cursor.
        self.departures: list[int] = gone

    def __len__(self) -> int:
        return len(self._available)

    def __contains__(self, position: object) -> bool:
        return self._index(position) is not None

    def __iter__(self) -> Iterator[int]:
        return iter(self._available)

    def _index(self, position) -> int | None:
        """Where ``position`` sits in the available set, if it does."""
        available = self._available
        if type(available) is range:
            return available.index(position) if position in available else None
        index = bisect_left(available, position)
        if index < len(available) and available[index] == position:
            return index
        return None

    def discard(self, position: int) -> bool:
        """Drop a member who left; False when they were not available."""
        index = self._index(position)
        if index is None:
            return False
        if type(self._available) is range:
            self._available = _compact(self._available, [])
        del self._available[index]
        self.departures.append(position)
        return True

    def turn(self, available: int, busy: Collection[int] = ()) -> int | None:
        """Index, in the available set, of the member whose turn it is.

        ``available`` is the size of the available set and ``busy`` a
        set of distinct indices in it to skip.
        """
        if available == 0:
            raise CrowdExhaustedError("every member has left the session")
        free = available - len(busy)
        if free == 0:
            return None
        # Index ``cursor % free`` among the free members, mapped onto
        # the full set by stepping over every busy index before it.
        pos = self.cursor % free
        for p in sorted(busy):
            if p <= pos:
                pos += 1
        self.cursor += 1
        return pos

    def next(self, busy: Iterable[int] = ()) -> int | None:
        """The position whose turn it is, skipping the ``busy`` positions.

        Busy positions that are not available are ignored.
        """
        indices = {index for index in map(self._index, busy) if index is not None}
        index = self.turn(len(self._available), indices)
        return None if index is None else self._available[index]


class Roster:
    """Round-robin scheduling, availability and quarantine over member ids.

    ``member_ids`` lays the members out in crowd order: position ``k``
    is ``member_ids[k]``. A subclass that maps ids through something
    else (the simulated crowd's population) overrides ``__len__``,
    :meth:`member_id_at` and :meth:`position_of`, and sets ``_rotation``
    and ``_quarantined`` itself instead of calling this constructor.
    """

    def __init__(self, member_ids: Sequence[str]) -> None:
        ids = list(member_ids)
        if not ids:
            raise CrowdExhaustedError("a crowd needs at least one member")
        if len(set(ids)) != len(ids):
            raise ValueError("member ids must be unique")
        self._order: list[str] = ids
        #: Each member's crowd position: their index in ``_order``.
        self._positions: dict[str, int] = {mid: k for k, mid in enumerate(ids)}
        self._rotation = Rotation(range(len(ids)))
        #: Positions the quality-control layer has barred from routing.
        self._quarantined: set[int] = set()

    # -- identity --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._order)

    def member_id_at(self, position: int) -> str:
        """The id of the member at crowd ``position``."""
        return self._order[position]

    def position_of(self, member_id: str) -> int:
        """The crowd position of ``member_id``; ``KeyError`` when unknown."""
        return self._positions[member_id]

    @property
    def member_ids(self) -> list[str]:
        """All member ids, in crowd order."""
        return list(map(self.member_id_at, range(len(self))))

    # -- availability ----------------------------------------------------------

    def available_members(self) -> list[str]:
        """Ids still routable (not departed, not quarantined), in order."""
        return list(self.iter_available())

    def iter_available(self) -> Iterator[str]:
        """The available members, in order, each id formatted as it is reached."""
        return map(self.member_id_at, self._rotation)

    def available_count(self) -> int:
        """How many members can still be routed a question — O(1)."""
        return len(self._rotation)

    def is_member_available(self, member_id: str) -> bool:
        """True when ``member_id`` may still be routed a question.

        False for an id the crowd does not know.
        """
        try:
            return self.position_of(member_id) in self._rotation
        except KeyError:
            return False

    @property
    def departures(self) -> list[int]:
        """Positions that stopped being available, in order (append-only log).

        Departures, quarantines and exhausted patience all land here;
        partitions follow the log with a cursor (the live list, not a
        copy — do not mutate it).
        """
        return self._rotation.departures

    # -- quality control -------------------------------------------------------

    def quarantine(self, member_id: str) -> None:
        """Stop routing questions to ``member_id``. Idempotent.

        The member is still *in* the crowd (their id resolves, pending
        in-flight answers can still land and be rejected upstream) but
        the scheduler will never pick them again. ``KeyError`` for an
        unknown id.
        """
        position = self.position_of(member_id)
        self._quarantined.add(position)
        self._rotation.discard(position)

    def is_quarantined(self, member_id: str) -> bool:
        """True when the member is barred from routing (False when unknown)."""
        try:
            return self.position_of(member_id) in self._quarantined
        except KeyError:
            return False

    @property
    def quarantined_members(self) -> set[str]:
        """Ids currently under quarantine (a copy)."""
        return set(map(self.member_id_at, self._quarantined))

    # -- scheduling ------------------------------------------------------------

    def next_member(self, exclude: Collection[str] = ()) -> str | None:
        """Round-robin scheduling over the available members.

        Mirrors the multi-user setting: members take turns being
        "active in the system" and the miner serves whoever is next.
        Raises :class:`~repro.errors.CrowdExhaustedError` when everyone
        has left.

        ``exclude`` skips members without ending their turn rotation —
        the dispatcher passes the members already holding an in-flight
        question; ids the crowd does not know are ignored. When every
        available member is excluded the answer is ``None`` ("nobody
        free right now"), distinct from the everyone-left exhaustion
        above; with an empty ``exclude`` the return value is never
        ``None``. Only a successful pick advances the cursor.
        """
        busy = []
        for member_id in exclude:
            try:
                busy.append(self.position_of(member_id))
            except KeyError:
                continue
        position = self._rotation.next(busy)
        return None if position is None else self.member_id_at(position)

    def partitions(self, shards: int) -> list["CrowdPartition"]:
        """Split the crowd into ``shards`` interleaved scheduling views.

        Partition ``i`` owns crowd positions ``i::shards``; together
        the partitions cover every member exactly once. Used by the
        sharded dispatcher — each shard schedules only over its own
        partition while answers merge into one ingest stream.
        """
        from repro.crowd.partition import CrowdPartition

        check_positive(shards, "shards")
        return [CrowdPartition(self, slice(i, None, shards)) for i in range(shards)]
