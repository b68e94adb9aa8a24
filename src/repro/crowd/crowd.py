"""The crowd interface: the only door between miner and members.

:class:`SimulatedCrowd` enforces the paper's central abstraction —
personal databases are *virtual*. The mining algorithm holds a
``SimulatedCrowd`` and may only:

- ask who is currently available,
- pose a closed or open question to a member,
- observe the answers.

Everything else (databases, latent profiles) is deliberately
unreachable from here. The crowd also keeps the session's interaction
statistics — total questions, per-member counts, unique rules asked —
which are exactly the cost measures the paper's evaluation reports.

Who is asked next, who is still available and who is quarantined is
not decided here: ``SimulatedCrowd`` is a
:class:`~repro.crowd.rotation.Roster`, the scheduling half shared with
the columnar crowd and the serving roster. What this module adds is
the members themselves — each reports their own departure through a
hook, and ``crash`` goes through ``member.leave()`` — and the answering
half.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from repro._util import as_rng
from repro.core.itemset import Itemset
from repro.core.rule import Rule
from repro.crowd.answer_models import AnswerModel, ExactAnswerModel
from repro.crowd.member import SimulatedMember
from repro.crowd.open_behavior import OpenAnswerPolicy
from repro.crowd.questions import (
    ClosedAnswer,
    ClosedQuestion,
    InFlightAnswer,
    OpenAnswer,
    OpenQuestion,
)
from repro.crowd.rotation import Roster, Rotation
from repro.synth.population import Population

if TYPE_CHECKING:  # avoids a circular import: repro.dispatch builds on the miner
    from repro.dispatch.latency import LatencyModel


@dataclass(slots=True)
class CrowdStats:
    """Interaction counters for one mining session."""

    closed_questions: int = 0
    open_questions: int = 0
    empty_open_answers: int = 0
    per_member: Counter = field(default_factory=Counter)
    unique_rules_asked: set[Rule] = field(default_factory=set)

    @property
    def total_questions(self) -> int:
        """All questions posed, of both types."""
        return self.closed_questions + self.open_questions


def _depart(positions: dict[str, int], rotation: Rotation, member_id: str) -> None:
    """A member's departure hook: drop their position from the rotation."""
    rotation.discard(positions[member_id])


class SimulatedCrowd(Roster):
    """A pool of simulated members behind the question protocol.

    Parameters
    ----------
    members:
        The simulated members.
    seed:
        Randomness for member scheduling.

    Use :meth:`from_population` to assemble a crowd from a synthetic
    :class:`~repro.synth.population.Population` with uniform member
    behaviour (the standard experimental setup).
    """

    def __init__(
        self,
        members: Sequence[SimulatedMember],
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__([m.member_id for m in members])
        # Members announce their own departure through the
        # ``on_unavailable`` hook, so scheduling never rescans the crowd.
        unhooked = [m.member_id for m in members if not hasattr(m, "on_unavailable")]
        if unhooked:
            raise TypeError(
                f"members {unhooked} have no on_unavailable hook to report "
                "their departure"
            )
        self._members: dict[str, SimulatedMember] = {m.member_id: m for m in members}
        self._rng = as_rng(seed)
        self.stats = CrowdStats()
        # The hook holds the positions and the rotation, not the crowd:
        # a crowd → member → crowd cycle would leave every finished
        # session's crowd, with its databases and habit pools, to the
        # cyclic collector.
        hook = partial(_depart, self._positions, self._rotation)
        for m in members:
            m.on_unavailable = hook
            if not m.is_available:
                # Logged like any later departure, so partitions over
                # the crowd learn of it from the departure log too.
                hook(m.member_id)

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_population(
        cls,
        population: Population,
        answer_model: AnswerModel | None = None,
        answer_model_factory: Callable[[int], AnswerModel] | None = None,
        open_policy: OpenAnswerPolicy | None = None,
        patience: int | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> "SimulatedCrowd":
        """Wrap a synthetic population as an answerable crowd.

        ``answer_model`` applies one shared model to everyone;
        ``answer_model_factory`` (index → model) supports heterogeneous
        crowds, e.g. injecting spammers. Exactly one may be given.
        """
        if answer_model is not None and answer_model_factory is not None:
            raise ValueError("pass answer_model or answer_model_factory, not both")
        rng = as_rng(seed)
        open_policy = open_policy or OpenAnswerPolicy()
        members = []
        for k, pop_member in enumerate(population):
            if answer_model_factory is not None:
                model = answer_model_factory(k)
            else:
                model = answer_model or ExactAnswerModel()
            members.append(
                SimulatedMember(
                    member_id=pop_member.member_id,
                    db=pop_member.db,
                    answer_model=model,
                    open_policy=open_policy,
                    patience=patience,
                    seed=rng.integers(2**63),
                )
            )
        return cls(members, seed=rng)

    # -- faults ----------------------------------------------------------------

    def crash(self, member_id: str) -> None:
        """The member abruptly leaves the session for good.

        Used by the fault injector for mid-flight crashes and churn
        waves; the member's pending answer (if any) is the dispatcher's
        problem, this only removes them from future scheduling.
        """
        member = self._members[member_id]
        leave = getattr(member, "leave", None)
        if leave is None:
            raise TypeError(
                f"member {member_id!r} ({type(member).__name__}) cannot leave"
            )
        leave()

    # -- the question protocol ----------------------------------------------------

    def ask_closed(self, member_id: str, rule: Rule) -> ClosedAnswer:
        """Pose a closed question about ``rule`` to ``member_id``."""
        member = self._members[member_id]
        answer = member.answer_closed(ClosedQuestion(rule))
        self.stats.closed_questions += 1
        self.stats.per_member[member_id] += 1
        self.stats.unique_rules_asked.add(rule)
        return answer

    def ask_open(
        self,
        member_id: str,
        exclude: set[Rule] | None = None,
        context: Itemset | None = None,
    ) -> OpenAnswer:
        """Pose an open question to ``member_id``.

        ``exclude`` tells the member which rules the system already
        knows (so their answer adds information); ``context`` narrows
        the request to habits in a given situation.
        """
        member = self._members[member_id]
        question = OpenQuestion(context or Itemset.empty())
        answer = member.answer_open(question, exclude=exclude)
        self.stats.open_questions += 1
        self.stats.per_member[member_id] += 1
        if isinstance(answer, OpenAnswer) and answer.is_empty:
            self.stats.empty_open_answers += 1
        return answer

    # -- the asynchronous question protocol ---------------------------------------

    def ask_closed_async(
        self,
        member_id: str,
        rule: Rule,
        *,
        latency: "LatencyModel",
        rng: np.random.Generator,
        now: float = 0.0,
    ) -> InFlightAnswer:
        """Pose a closed question whose answer lands after simulated latency.

        The reply's *content* is resolved immediately (what a member
        would say does not depend on when the dispatcher reads it);
        only its visibility is delayed, by a draw from ``latency`` on
        the caller's ``rng``. ``now`` is the event clock's current
        time. An infinite draw means the answer is lost in flight.
        """
        answer = self.ask_closed(member_id, rule)
        return InFlightAnswer(
            answer=answer, issued_at=now, arrives_at=now + latency.sample(rng)
        )

    def ask_open_async(
        self,
        member_id: str,
        *,
        latency: "LatencyModel",
        rng: np.random.Generator,
        now: float = 0.0,
        exclude: set[Rule] | None = None,
        context: Itemset | None = None,
    ) -> InFlightAnswer:
        """Pose an open question whose answer lands after simulated latency.

        Same contract as :meth:`ask_closed_async`; ``exclude`` and
        ``context`` are snapshotted at issue time, exactly as a real
        question form would be rendered once and sent.
        """
        answer = self.ask_open(member_id, exclude=exclude, context=context)
        return InFlightAnswer(
            answer=answer, issued_at=now, arrives_at=now + latency.sample(rng)
        )
