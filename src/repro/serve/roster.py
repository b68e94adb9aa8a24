"""The serving crowd: external members as a scheduling surface.

A live session's members are real people behind the HTTP API — the
server cannot answer for them, it can only decide *who is asked next*.
:class:`WorkerRoster` is therefore the crowd with everything but
scheduling removed: it is the :class:`~repro.crowd.rotation.Roster`
every crowd is built on (the same rotation, so the same exhausted/None
distinction, and the same availability and quarantine surface the
miner reads) plus :meth:`~WorkerRoster.depart`, and *no* answer
machinery — posing a question to a roster raises, because answers
arrive over the wire
(:meth:`~repro.serve.session.ServeSession.post_answer`), never from a
personal database held by the server.

Availability changes arrive as facts, not simulations: a client
reports a member gone (their patience ran out, they closed the tab)
via :meth:`~WorkerRoster.depart`, and the quality loop calls
``quarantine`` exactly as it does on a simulated crowd. Sharing the
simulated crowd's roster is what makes a sequentially-driven live
session schedule the *same member sequence* as ``miner.run()`` over a
simulated crowd — the bedrock of the differential harness's
byte-identity assertion.

The roster is plain picklable data, so it travels inside the session
checkpoint and the member rotation resumes mid-turn.
"""

from __future__ import annotations

from repro.crowd.rotation import Roster

_REFUSAL = (
    "roster members answer over the serving API, not in-process; "
    "drive this session through ServeSession, not miner.run()"
)


class WorkerRoster(Roster):
    """Round-robin scheduling over externally-managed members."""

    # -- availability facts ----------------------------------------------------

    def depart(self, member_id: str) -> None:
        """Record that ``member_id`` left the session for good. Idempotent."""
        self._rotation.discard(self.position_of(member_id))

    def crash(self, member_id: str) -> None:
        """Fault-surface alias of :meth:`depart` (the injector's verb)."""
        self.depart(member_id)

    # -- the question protocol (absent on purpose) ------------------------------

    def ask_closed(self, member_id: str, rule) -> None:
        raise TypeError(_REFUSAL)

    def ask_open(self, member_id: str, exclude=None, context=None) -> None:
        raise TypeError(_REFUSAL)
