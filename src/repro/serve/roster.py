"""The serving crowd: external members as a scheduling surface.

A live session's members are real people behind the HTTP API — the
server cannot answer for them, it can only decide *who is asked next*.
:class:`WorkerRoster` is therefore the crowd with everything but
scheduling removed: the round-robin rotation every crowd shares
(:mod:`repro.crowd.rotation`, so the same exhausted/None distinction),
the same availability and quarantine surface the miner reads, and *no*
answer machinery — posing a question to a roster raises, because
answers arrive over the wire
(:meth:`~repro.serve.session.ServeSession.post_answer`), never from a
personal database held by the server.

Availability changes arrive as facts, not simulations: a client
reports a member gone (their patience ran out, they closed the tab)
via :meth:`depart`, and the quality loop calls :meth:`quarantine`
exactly as it does on a simulated crowd. Sharing the simulated crowd's
rotation is what makes a sequentially-driven live session schedule the
*same member sequence* as ``miner.run()`` over a simulated crowd — the
bedrock of the differential harness's byte-identity assertion.

The roster is plain picklable data, so it travels inside the session
checkpoint and the member rotation resumes mid-turn.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence

from repro.crowd.rotation import Rotation
from repro.errors import CrowdExhaustedError


class WorkerRoster:
    """Round-robin scheduling over externally-managed members."""

    def __init__(self, member_ids: Sequence[str]) -> None:
        ids = list(member_ids)
        if not ids:
            raise CrowdExhaustedError("a roster needs at least one member")
        if len(set(ids)) != len(ids):
            raise ValueError("member ids must be unique")
        self._order: list[str] = ids
        #: Each member's position: their index in ``_order``.
        self._positions: dict[str, int] = {mid: k for k, mid in enumerate(ids)}
        self._quarantined: set[str] = set()
        self._rotation = Rotation(range(len(ids)))

    # -- membership ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._order)

    @property
    def member_ids(self) -> list[str]:
        """All member ids, in registration order."""
        return list(self._order)

    def available_members(self) -> list[str]:
        """Ids still routable (not departed, not quarantined), in order."""
        return [self._order[p] for p in self._rotation]

    def available_count(self) -> int:
        """How many members are still routable."""
        return len(self._rotation)

    def is_member_available(self, member_id: str) -> bool:
        """True when ``member_id`` may still be routed a question."""
        position = self._positions.get(member_id)
        return position is not None and position in self._rotation

    # -- availability facts ----------------------------------------------------

    def depart(self, member_id: str) -> None:
        """Record that ``member_id`` left the session for good. Idempotent."""
        if member_id not in self._positions:
            raise KeyError(f"unknown member {member_id!r}")
        self._rotation.discard(self._positions[member_id])

    def crash(self, member_id: str) -> None:
        """Fault-surface alias of :meth:`depart` (the injector's verb)."""
        self.depart(member_id)

    def quarantine(self, member_id: str) -> None:
        """Stop routing questions to ``member_id``. Idempotent."""
        if member_id not in self._positions:
            raise KeyError(f"unknown member {member_id!r}")
        self._quarantined.add(member_id)
        self._rotation.discard(self._positions[member_id])

    def is_quarantined(self, member_id: str) -> bool:
        """True when the member is barred from routing."""
        return member_id in self._quarantined

    @property
    def quarantined_members(self) -> set[str]:
        """Ids currently under quarantine (a copy)."""
        return set(self._quarantined)

    # -- scheduling ------------------------------------------------------------

    def next_member(self, exclude: Collection[str] = ()) -> str | None:
        """Round-robin over available members, skipping ``exclude``.

        The contract of :meth:`SimulatedCrowd.next_member
        <repro.crowd.crowd.SimulatedCrowd.next_member>`: raises
        :class:`~repro.errors.CrowdExhaustedError` when everyone has
        left, returns ``None`` when every available member is excluded
        (nobody free *right now*), and only a successful pick advances
        the rotation cursor.
        """
        positions = self._positions
        position = self._rotation.next(positions[m] for m in exclude if m in positions)
        return None if position is None else self._order[position]

    # -- the question protocol (absent on purpose) ------------------------------

    def ask_closed(self, member_id: str, rule) -> None:
        raise TypeError(
            "roster members answer over the serving API, not in-process; "
            "drive this session through ServeSession, not miner.run()"
        )

    def ask_open(self, member_id: str, exclude=None, context=None) -> None:
        raise TypeError(
            "roster members answer over the serving API, not in-process; "
            "drive this session through ServeSession, not miner.run()"
        )
