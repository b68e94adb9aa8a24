"""Round-robin turn-taking: the one scheduling rule every crowd shares.

In the paper's multi-user model members take turns being active and the
miner serves whoever is next (DESIGN.md §1.4). Every scheduler in the
package — :class:`~repro.crowd.crowd.SimulatedCrowd`,
:class:`~repro.crowd.array_crowd.ArrayCrowd`, a dispatcher lane's
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
object crowd and the roster, the population's ``member_id_at`` and
``index_of`` on the columnar crowd), and formats only the id it hands
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
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Collection, Iterable, Iterator

import numpy as np

from repro.errors import CrowdExhaustedError


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
