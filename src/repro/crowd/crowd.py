"""The crowd interface: the only door between miner and members.

:class:`SimulatedCrowd` enforces the paper's central abstraction —
personal databases are *virtual*. The mining algorithm holds a crowd
and may only:

- ask who is currently available,
- pose a closed or open question to a member,
- observe the answers.

Everything else (databases, latent profiles) is deliberately
unreachable from here. The crowd also keeps the session's interaction
statistics — total questions, per-member counts, unique rules asked —
which are exactly the cost measures the paper's evaluation reports.

Who is asked next, who is still available and who is quarantined is
not decided here: every crowd is a :class:`~repro.crowd.rotation.Roster`,
the scheduling half shared with the serving roster. What this module
adds is the answering half, in two classes:

- :class:`SimulatedCrowd`, the one simulated crowd. It answers from a
  population — an explicit :class:`~repro.synth.population.Population`
  or a columnar :class:`~repro.synth.array_population.ArrayPopulation`,
  both read through ``member_id_at``, ``index_of``, ``rule_stats_at``
  and ``db_at`` — and keeps **no per-member objects**. One honest
  answer model is shared by the crowd; per-member behaviour is sparse
  and keyed by crowd position: an adversary's own answer model, or a
  garbling rate. Member seeds are one vector; generators, patience
  counters, volunteered sets and habit pools exist only for members
  actually questioned, so a million-member crowd costs megabytes and
  its checkpoint stays sublinear in crowd size.
- :class:`MemberCrowd`, a thin crowd over member objects that answer
  themselves (:class:`~repro.crowd.stream.StreamMember`, scripted
  members), with the synchronous protocol only.

Byte-identity contract: over an ``ArrayPopulation`` and over its
``materialize()``, the same seed, answer model, per-member behaviour
and patience give the same answer to every question — the member seed
vector is one draw, true stats divide the same integer counts, and
per-member generators consume the same stream.
``tests/crowd/test_array_crowd.py`` pins this for questions asked one
by one, every adversary role included, and
``tests/dispatch/test_deferred_answers.py`` for dispatched sessions.

Answers simulated at first read: an asynchronous closed question is
issued as a :class:`~repro.crowd.questions.DeferredClosedAnswer` — the
recipe (member position, rule) — and its ``(support, confidence)`` is
simulated only when the miner first reads it. The miner reads stats
only after its malformed, rejected and stale gates, so stale, late,
lost, crashed and quarantined-member answers are never simulated.
Patience, :class:`CrowdStats`, the garbling decision and the latency
draw stay at issue. Byte identity needs one rule: a member's answers
are simulated in issue order. Before anything else draws from a
member's generator (a later answer's read, a synchronous closed
question, an open question), that member's earlier unread answers are
simulated (and kept, should they still be read). A model that never
draws (``consumes_rng = False``) needs no such queue. Answer models
must draw only from the generator they are handed, with one
exception: a model whose draws are shared across members
(``shares_draws = True``, the collusion ring's) is simulated at issue,
because the order its shared generator is drawn in is the order
questions were issued.

Garbling: a garbled member answers through the honest model, then its
own garble stream decides whether the reply is replaced with
unparseable text, run through the real stream-protocol parser
(:func:`~repro.crowd.stream.parse_stats`) into the
:class:`~repro.crowd.questions.MalformedAnswer` a live front-end would
produce. A garbled open answer's rule still counts as volunteered, and
a garbled closed answer's inner answer is still queued, so the
member's answer stream advances as if nothing were garbled.
"""

from __future__ import annotations

from collections import Counter, OrderedDict, deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from repro._util import as_rng, check_fraction
from repro.core.itemset import Itemset
from repro.core.measures import RuleStats
from repro.core.rule import Rule
from repro.crowd.answer_models import AnswerModel, ExactAnswerModel
from repro.crowd.open_behavior import HabitPool, OpenAnswerPolicy
from repro.crowd.questions import (
    AnyAnswer,
    ClosedAnswer,
    ClosedQuestion,
    DeferredClosedAnswer,
    InFlightAnswer,
    MalformedAnswer,
    OpenAnswer,
    OpenQuestion,
)
from repro.crowd.rotation import Roster, Rotation
from repro.crowd.stream import garbage_text, parse_stats
from repro.errors import CrowdExhaustedError

if TYPE_CHECKING:  # annotations only; repro.dispatch builds on the miner
    from repro.dispatch.latency import LatencyModel
    from repro.synth.array_population import ArrayPopulation
    from repro.synth.population import Population

#: Bound on cached habit pools (least recently asked members go first).
POOL_CACHE = 1024

#: Shared generator handed to answer models that never draw (see
#: ``SimulatedCrowd._simulate``); its state is irrelevant by contract.
_INERT_RNG = np.random.default_rng(0)


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

    def count(self, answer: AnyAnswer, rule: Rule | None = None) -> None:
        """Count one answered question; ``rule`` is a closed question's."""
        self.per_member[answer.member_id] += 1
        if rule is not None:
            self.closed_questions += 1
            self.unique_rules_asked.add(rule)
            return
        self.open_questions += 1
        if isinstance(answer, OpenAnswer) and answer.is_empty:
            self.empty_open_answers += 1


class _Unread:
    """The recipe of one issued closed answer; ``stats`` once simulated."""

    __slots__ = ("index", "rule", "stats")

    def __init__(self, index: int, rule: Rule, stats: RuleStats | None = None) -> None:
        self.index = index
        self.rule = rule
        self.stats = stats

    def __reduce__(self):
        return (_Unread, (self.index, self.rule, self.stats))


def _generator_from_state(state: dict) -> np.random.Generator:
    bit_generator = getattr(np.random, state["bit_generator"])()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def _draw_seeds(
    rng: np.random.Generator, n: int, garbled: list[int]
) -> tuple[np.ndarray, dict[int, int]]:
    """Member seeds, and the garble seed of each sorted ``garbled`` position.

    Each garbled member's garble seed is drawn right after its member
    seed, from the same generator: one vector of ``n + len(garbled)``
    draws, equal to that many scalar draws.
    """
    draws = rng.integers(2**63, size=n + len(garbled))
    if not garbled:
        return draws, {}
    at = np.asarray(garbled, dtype=np.int64) + np.arange(1, len(garbled) + 1)
    return np.delete(draws, at), dict(zip(garbled, draws[at].tolist()))


class SimulatedCrowd(Roster):
    """The simulated crowd: answers from a population, no per-member objects.

    Parameters
    ----------
    population:
        The population backing every answer: a
        :class:`~repro.synth.population.Population` or an
        :class:`~repro.synth.array_population.ArrayPopulation`.
    answer_model:
        The honest answer model, shared by every member without one of
        their own.
    open_policy:
        Shared open-answer policy.
    patience:
        Per-member question budget (``None`` = unbounded).
    seed:
        Crowd randomness: one 63-bit draw per member for the member
        seeds, each garbled member's garble seed right after its own.
    member_models:
        Crowd position → that member's own answer model (adversaries).
    garbled:
        Crowd position → the rate at which that member's replies are
        garbled.
    """

    def __init__(
        self,
        population: Population | ArrayPopulation,
        answer_model: AnswerModel | None = None,
        open_policy: OpenAnswerPolicy | None = None,
        patience: int | None = None,
        seed: int | np.random.Generator | None = None,
        *,
        member_models: Mapping[int, AnswerModel] | None = None,
        garbled: Mapping[int, float] | None = None,
    ) -> None:
        self._population = population
        self.answer_model = answer_model or ExactAnswerModel()
        self.open_policy = open_policy or OpenAnswerPolicy()
        self.patience = patience
        self._models: dict[int, AnswerModel] = dict(member_models or {})
        self._garble_rates: dict[int, float] = {
            index: check_fraction(rate, "garbling rate")
            for index, rate in sorted((garbled or {}).items())
        }
        outside = [
            k for k in chain(self._models, self._garble_rates) if not 0 <= k < len(population)
        ]
        if outside:
            raise ValueError(f"per-member behaviour for positions {outside} outside the crowd")
        rng = as_rng(seed)
        #: Generator state *before* the seed draw — enough to regenerate
        #: the seed columns on restore, so checkpoints never carry O(n)
        #: seed material.
        self._pre_state = rng.bit_generator.state
        self._member_seeds, self._garble_seeds = _draw_seeds(
            rng, len(population), list(self._garble_rates)
        )
        self.stats = CrowdStats()
        # Sparse per-member state: populated only for questioned members.
        self._answered: dict[int, int] = {}
        self._member_rngs: dict[int, np.random.Generator] = {}
        self._garble_rngs: dict[int, np.random.Generator] = {}
        self._volunteered: dict[int, set[Rule]] = {}
        #: Per member, the closed answers issued but not yet simulated,
        #: in issue order (drawing answer models only).
        self._unread: dict[int, deque[_Unread]] = {}
        self._departed: set[int] = set()
        # The roster's state: ids come from the population, so the
        # roster constructor (an id list) is not called.
        self._quarantined: set[int] = set()
        self._init_runtime()

    @classmethod
    def from_population(
        cls,
        population: Population | ArrayPopulation,
        answer_model: AnswerModel | None = None,
        open_policy: OpenAnswerPolicy | None = None,
        patience: int | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> "SimulatedCrowd":
        """An honest crowd over ``population``: every member answers
        through the one ``answer_model``."""
        return cls(population, answer_model, open_policy, patience, seed)

    def _init_runtime(self) -> None:
        gone = self._departed | self._quarantined
        if self.patience is not None:
            gone |= {k for k, count in self._answered.items() if count >= self.patience}
        # A restored crowd logs its departures in index order, which
        # may differ from the live order; a partition's available set
        # is in crowd order whatever order it discarded them in.
        self._rotation = Rotation(range(len(self._population)), sorted(gone))
        self._pools: OrderedDict[int, HabitPool] = OrderedDict()

    # -- identity -------------------------------------------------------------

    def member_id_at(self, position: int) -> str:
        """The id of the member at crowd ``position``."""
        return self._population.member_id_at(position)

    def position_of(self, member_id: str) -> int:
        """The crowd position of ``member_id``; ``KeyError`` when unknown."""
        return self._population.index_of(member_id)

    def __len__(self) -> int:
        return len(self._population)

    # -- per-member state --------------------------------------------------------

    def _answerable(self, index: int) -> bool:
        """Whether the member can still *answer* (quarantine ignored —
        a quarantined member's in-flight answer may still land)."""
        if index in self._departed:
            return False
        return self.patience is None or self._answered.get(index, 0) < self.patience

    def _consume_patience(self, index: int) -> None:
        if not self._answerable(index):
            raise CrowdExhaustedError(
                f"member {self.member_id_at(index)} has left after "
                f"{self._answered.get(index, 0)} questions"
            )
        self._answered[index] = self._answered.get(index, 0) + 1
        if not self._answerable(index):
            self._rotation.discard(index)

    def _member_rng(self, index: int) -> np.random.Generator:
        rng = self._member_rngs.get(index)
        if rng is None:
            rng = np.random.default_rng(int(self._member_seeds[index]))
            self._member_rngs[index] = rng
        return rng

    # -- faults -----------------------------------------------------------------

    def crash(self, member_id: str) -> None:
        """The member abruptly leaves the session for good.

        Used by the fault injector for mid-flight crashes and churn
        waves; the member's pending answer (if any) is the dispatcher's
        problem, this only removes them from future scheduling.
        """
        index = self.position_of(member_id)
        self._departed.add(index)
        self._rotation.discard(index)

    # -- answering ----------------------------------------------------------------

    def _pool(self, index: int) -> HabitPool:
        pool = self._pools.get(index)
        if pool is None:
            pool = HabitPool(self._population.db_at(index), self.open_policy)
            self._pools[index] = pool
            while len(self._pools) > POOL_CACHE:
                self._pools.popitem(last=False)
        else:
            self._pools.move_to_end(index)
        return pool

    def _simulate(self, index: int, rule: Rule) -> RuleStats:
        """The member's reported stats for ``rule``: one answer's simulation.

        A model that never draws gets a shared inert generator, so a
        member's real stream is only built when something draws from it.
        """
        model = self._models.get(index, self.answer_model)
        true_stats = self._population.rule_stats_at(index, rule)
        rng = self._member_rng(index) if model.consumes_rng else _INERT_RNG
        return model.report_rule(rule, true_stats, rng)

    def _catch_up(self, index: int, through: _Unread | None = None) -> None:
        """Simulate the member's unread answers in issue order.

        All of them, or up to and including ``through``. Runs before
        anything else draws from the member's generator.
        """
        queue = self._unread.get(index)
        if queue is None:
            return
        while queue:
            unread = queue.popleft()
            unread.stats = self._simulate(index, unread.rule)
            if unread is through:
                break
        if not queue:
            del self._unread[index]

    def _settle(self, unread: _Unread) -> RuleStats:
        """A deferred answer's stats, simulated at its first read."""
        if unread.stats is None:
            if unread.index in self._unread:
                self._catch_up(unread.index, through=unread)
            else:  # an rng-free model: nothing to keep in order
                unread.stats = self._simulate(unread.index, unread.rule)
        return unread.stats

    def _garble(self, index: int, answer):
        """``answer``, or the malformed reply that replaces it when the
        member's garble stream says so."""
        rate = self._garble_rates.get(index)
        if rate is None:
            return answer
        rng = self._garble_rngs.get(index)
        if rng is None:
            rng = self._garble_rngs[index] = np.random.default_rng(
                self._garble_seeds[index]
            )
        if rng.random() >= rate:
            return answer
        text = garbage_text(rng)
        try:
            parse_stats(text)
        except ValueError as exc:
            return MalformedAnswer(answer.member_id, answer.question, text, str(exc))
        raise AssertionError(f"garbage pool produced parseable text {text!r}")

    # -- the question protocol ------------------------------------------------

    def ask_closed(self, member_id: str, rule: Rule) -> ClosedAnswer | MalformedAnswer:
        """Pose a closed question about ``rule`` to ``member_id``."""
        index = self.position_of(member_id)
        self._consume_patience(index)
        self._catch_up(index)
        answer = self._garble(
            index, ClosedAnswer(member_id, ClosedQuestion(rule), self._simulate(index, rule))
        )
        self.stats.count(answer, rule)
        return answer

    def ask_open(
        self,
        member_id: str,
        exclude: set[Rule] | None = None,
        context: Itemset | None = None,
    ) -> OpenAnswer | MalformedAnswer:
        """Pose an open question to ``member_id``.

        ``exclude`` tells the member which rules the system already
        knows (so their answer adds information); ``context`` narrows
        the request to habits in a given situation. The member also
        avoids the rules it already volunteered itself (people do not
        tell the same anecdote twice in a session).
        """
        index = self.position_of(member_id)
        self._consume_patience(index)
        self._catch_up(index)
        question = OpenQuestion(context or Itemset.empty())
        rng = self._member_rng(index)
        avoid = chain(self._volunteered.get(index, ()), exclude or ())
        choice = self._pool(index).choose(question.context, avoid, rng)
        if choice is None:
            answer = OpenAnswer(member_id, question, None, None)
        else:
            rule, true_stats = choice
            self._volunteered.setdefault(index, set()).add(rule)
            model = self._models.get(index, self.answer_model)
            answer = OpenAnswer(
                member_id, question, rule, model.report_rule(rule, true_stats, rng)
            )
        answer = self._garble(index, answer)
        self.stats.count(answer)
        return answer

    # -- the asynchronous question protocol ------------------------------------

    def make_in_flight(
        self,
        answer,
        *,
        latency: "LatencyModel",
        rng: np.random.Generator,
        now: float = 0.0,
    ) -> InFlightAnswer:
        """Wrap an answer in the async envelope, drawing its latency.

        ``now`` is the event clock's current time. An infinite draw
        means the answer is lost in flight.
        """
        return InFlightAnswer(
            answer=answer, issued_at=now, arrives_at=now + latency.sample(rng)
        )

    def ask_closed_async(
        self,
        member_id: str,
        rule: Rule,
        *,
        latency: "LatencyModel",
        rng: np.random.Generator,
        now: float = 0.0,
    ) -> InFlightAnswer:
        """Closed question with simulated-latency delivery.

        The answer is a recipe, simulated when first read (see the
        module docstring) unless the member's model shares its draws
        across members; patience, statistics, the garbling decision and
        latency are settled now.
        """
        index = self.position_of(member_id)
        self._consume_patience(index)
        question = ClosedQuestion(rule)
        model = self._models.get(index, self.answer_model)
        if model.shares_draws:
            self._catch_up(index)
            answer = ClosedAnswer(member_id, question, self._simulate(index, rule))
        else:
            unread = _Unread(index, rule)
            if model.consumes_rng:
                queue = self._unread.get(index)
                if queue is None:
                    queue = self._unread[index] = deque()
                queue.append(unread)
            answer = DeferredClosedAnswer(member_id, question, partial(self._settle, unread))
        answer = self._garble(index, answer)
        self.stats.count(answer, rule)
        return self.make_in_flight(answer, latency=latency, rng=rng, now=now)

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
        """Open question with simulated-latency delivery.

        ``exclude`` and ``context`` are snapshotted at issue time,
        exactly as a real question form would be rendered once and sent.
        """
        answer = self.ask_open(member_id, exclude=exclude, context=context)
        return self.make_in_flight(answer, latency=latency, rng=rng, now=now)

    # -- pickling: sparse state only --------------------------------------------

    def __getstate__(self) -> dict:
        return {
            "population": self._population,  # an ArrayPopulation pickles as its recipe
            "answer_model": self.answer_model,
            "open_policy": self.open_policy,
            "patience": self.patience,
            "models": self._models,
            "garble_rates": self._garble_rates,
            "pre_state": self._pre_state,
            "stats": self.stats,
            "rr_cursor": self._rotation.cursor,
            "answered": self._answered,
            "member_rngs": self._member_rngs,
            "garble_rngs": self._garble_rngs,
            "volunteered": self._volunteered,
            "unread": self._unread,
            "departed": sorted(self._departed),
            "quarantined": sorted(self._quarantined),
        }

    def __setstate__(self, state: dict) -> None:
        self._population = state["population"]
        self.answer_model = state["answer_model"]
        self.open_policy = state["open_policy"]
        self.patience = state["patience"]
        self._models = state["models"]
        self._garble_rates = state["garble_rates"]
        self._pre_state = state["pre_state"]
        self._member_seeds, self._garble_seeds = _draw_seeds(
            _generator_from_state(self._pre_state),
            len(self._population),
            list(self._garble_rates),
        )
        self.stats = state["stats"]
        self._answered = state["answered"]
        self._member_rngs = state["member_rngs"]
        self._garble_rngs = state["garble_rngs"]
        self._volunteered = state["volunteered"]
        self._unread = state["unread"]
        self._departed = set(state["departed"])
        self._quarantined = set(state["quarantined"])
        self._init_runtime()
        self._rotation.cursor = state["rr_cursor"]

    def __repr__(self) -> str:
        return f"SimulatedCrowd({len(self)} members, {len(self._rotation)} available)"


def _depart(positions: dict[str, int], rotation: Rotation, member_id: str) -> None:
    """A member's departure hook: drop their position from the rotation."""
    rotation.discard(positions[member_id])


class MemberCrowd(Roster):
    """A crowd of member objects that answer themselves.

    Each member provides ``member_id``, ``is_available``, ``leave()``,
    ``answer_closed(question)``, ``answer_open(question, exclude=)``
    and an ``on_unavailable`` hook attribute, through which it reports
    its own departure — :class:`~repro.crowd.stream.StreamMember` is
    the stock one. Synchronous protocol only.
    """

    def __init__(self, members: Sequence) -> None:
        super().__init__([m.member_id for m in members])
        # Members announce their own departure through the
        # ``on_unavailable`` hook, so scheduling never rescans the crowd.
        unhooked = [m.member_id for m in members if not hasattr(m, "on_unavailable")]
        if unhooked:
            raise TypeError(
                f"members {unhooked} have no on_unavailable hook to report "
                "their departure"
            )
        self._members = {m.member_id: m for m in members}
        self.stats = CrowdStats()
        # The hook holds the positions and the rotation, not the crowd:
        # a crowd → member → crowd cycle would leave every finished
        # session's crowd to the cyclic collector.
        hook = partial(_depart, self._positions, self._rotation)
        for m in members:
            m.on_unavailable = hook
            if not m.is_available:
                # Logged like any later departure, so partitions over
                # the crowd learn of it from the departure log too.
                hook(m.member_id)

    def crash(self, member_id: str) -> None:
        """The member abruptly leaves the session for good."""
        self._members[member_id].leave()

    def ask_closed(self, member_id: str, rule: Rule) -> ClosedAnswer | MalformedAnswer:
        """Pose a closed question about ``rule`` to ``member_id``."""
        answer = self._members[member_id].answer_closed(ClosedQuestion(rule))
        self.stats.count(answer, rule)
        return answer

    def ask_open(
        self,
        member_id: str,
        exclude: set[Rule] | None = None,
        context: Itemset | None = None,
    ) -> OpenAnswer | MalformedAnswer:
        """Pose an open question to ``member_id``."""
        question = OpenQuestion(context or Itemset.empty())
        answer = self._members[member_id].answer_open(question, exclude=exclude)
        self.stats.count(answer)
        return answer
