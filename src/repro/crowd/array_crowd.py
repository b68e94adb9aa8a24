"""A crowd over an :class:`~repro.synth.array_population.ArrayPopulation`.

:class:`ArrayCrowd` speaks the same question protocol as
:class:`~repro.crowd.crowd.SimulatedCrowd` — same scheduling
semantics, same statistics, same async envelope — but keeps **no
per-member objects**. Member state is columnar (seeds) or sparse
(per-member generators, patience counters, volunteered sets exist only
for members actually questioned), so a million-member crowd costs
megabytes, and a checkpoint of one stays sublinear in crowd size.

Scheduling is the :class:`~repro.crowd.rotation.Roster` every crowd
shares, with ids mapped through the population instead of an id list:
availability is a :class:`~repro.crowd.rotation.Rotation` over
``range(len(crowd))`` (nothing per member until the first departure),
the departure log and the quarantine hold positions, and an id is
formatted (``member_id_at``) only for the member a pick returns or a
walk of ``iter_available`` reaches; a busy id is parsed back
(``position_of``). So neither this crowd nor its partitions build any
per-member id list, and a restored crowd formats none: it rebuilds its
rotation from its departed, quarantined and patience-spent members.

Byte-identity contract: for the same population columns, seed, shared
answer model and patience, an ``ArrayCrowd`` answers every question
bit-for-bit like a ``SimulatedCrowd`` built over
``population.materialize()`` — the member seed vector is one
vectorized draw that matches the object path's per-member scalar
draws, true stats divide the same integer counts, and per-member
generators consume the same stream. ``tests/crowd/test_array_crowd.py``
pins this for questions asked one by one, and
``tests/dispatch/test_deferred_answers.py`` for dispatched sessions at
any shard count and window.

Answers simulated at first read: an asynchronous closed question is
issued as a :class:`~repro.crowd.questions.DeferredClosedAnswer` — the
recipe (member index, rule) — and its ``(support, confidence)`` is
simulated only when the miner first reads it. The miner reads stats
only after its malformed, rejected and stale gates, so stale, late,
lost, crashed and quarantined-member answers are never simulated.
Patience, :class:`~repro.crowd.crowd.CrowdStats` and the latency draw
stay at issue. Byte identity needs one rule: a member's answers are
simulated in issue order. Before anything else draws from a member's
generator (a later answer's read, a synchronous closed question, an
open question), that member's earlier unread answers are simulated
(and kept, should they still be read). A model that never draws
(``consumes_rng = False``) needs no such queue. The shared answer
model must draw only from the generator it is handed, as every model
in :mod:`repro.crowd.answer_models` does.

Heterogeneous behaviour (per-member answer models, adversary mixes)
needs per-member objects and is deliberately not supported here — use
the object path for fault experiments.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from functools import partial
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from repro._util import as_rng
from repro.core.itemset import Itemset
from repro.core.measures import RuleStats
from repro.core.rule import Rule
from repro.crowd.answer_models import AnswerModel, ExactAnswerModel
from repro.crowd.crowd import CrowdStats
from repro.crowd.open_behavior import HabitPool, OpenAnswerPolicy
from repro.crowd.questions import (
    ClosedAnswer,
    ClosedQuestion,
    DeferredClosedAnswer,
    InFlightAnswer,
    OpenAnswer,
    OpenQuestion,
)
from repro.crowd.rotation import Roster, Rotation
from repro.errors import CrowdExhaustedError
from repro.synth.array_population import ArrayPopulation

if TYPE_CHECKING:
    from repro.dispatch.latency import LatencyModel

#: Bound on cached habit pools (least recently asked members go first).
POOL_CACHE = 1024


#: Shared generator handed to answer models that never draw (see
#: ``ArrayCrowd._answer_rng``); its state is irrelevant by contract.
_INERT_RNG = np.random.default_rng(0)


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


class ArrayCrowd(Roster):
    """The vectorized crowd: columnar member state, object-free answering.

    Parameters
    ----------
    population:
        The columnar population backing every answer.
    answer_model:
        One model shared by the whole crowd (kept scalar-compatible
        per member via per-member generators).
    open_policy:
        Shared open-answer policy.
    patience:
        Per-member question budget (``None`` = unbounded).
    seed:
        Crowd randomness; consumed exactly like
        :meth:`SimulatedCrowd.from_population` (one 63-bit draw per
        member for the member seeds).
    """

    def __init__(
        self,
        population: ArrayPopulation,
        answer_model: AnswerModel | None = None,
        open_policy: OpenAnswerPolicy | None = None,
        patience: int | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self._population = population
        self.answer_model = answer_model or ExactAnswerModel()
        self.open_policy = open_policy or OpenAnswerPolicy()
        self.patience = patience
        rng = as_rng(seed)
        #: Generator state *before* the member-seed draw — enough to
        #: regenerate the seed column on restore, so checkpoints never
        #: carry O(n) seed material.
        self._pre_state = rng.bit_generator.state
        self._member_seeds = rng.integers(2**63, size=len(population))
        self._rng = rng
        self.stats = CrowdStats()
        # Sparse per-member state: populated only for questioned members.
        self._answered: dict[int, int] = {}
        self._member_rngs: dict[int, np.random.Generator] = {}
        self._volunteered: dict[int, set[Rule]] = {}
        #: Per member, the closed answers issued but not yet simulated,
        #: in issue order (drawing answer models only).
        self._unread: dict[int, deque[_Unread]] = {}
        self._departed: set[int] = set()
        # The roster's state: ids come from the population, so the
        # roster constructor (an id list) is not called.
        self._quarantined: set[int] = set()
        self._init_runtime()

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
        """The id of the member at crowd ``position`` (formats one id)."""
        return self._population.member_id_at(position)

    def position_of(self, member_id: str) -> int:
        """The crowd position of ``member_id``; ``KeyError`` when unknown."""
        return self._population.index_of(member_id)

    def __len__(self) -> int:
        return len(self._population)

    @property
    def population(self) -> ArrayPopulation:
        """The columnar population behind this crowd."""
        return self._population

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

    def _answer_rng(self, index: int) -> np.random.Generator:
        """The generator handed to the answer model for ``index``.

        When the model never draws, constructing (and caching) the
        member's generator is pure overhead — a shared inert generator
        is byte-identical because nothing is consumed, and the
        member's real stream still starts fresh if a drawing model or
        an open question needs it later.
        """
        if not self.answer_model.consumes_rng:
            return _INERT_RNG
        return self._member_rng(index)

    # -- faults -----------------------------------------------------------------

    def crash(self, member_id: str) -> None:
        """The member abruptly leaves the session for good."""
        index = self.position_of(member_id)
        self._departed.add(index)
        self._rotation.discard(index)

    # -- the question protocol ------------------------------------------------

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
        """The member's reported stats for ``rule``: one answer's simulation."""
        true_stats = self._population.rule_stats_at(index, rule)
        return self.answer_model.report_rule(rule, true_stats, self._answer_rng(index))

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

    def _count_closed(self, member_id: str, rule: Rule) -> None:
        self.stats.closed_questions += 1
        self.stats.per_member[member_id] += 1
        self.stats.unique_rules_asked.add(rule)

    def ask_closed(self, member_id: str, rule: Rule) -> ClosedAnswer:
        """Pose a closed question about ``rule`` to ``member_id``."""
        index = self.position_of(member_id)
        self._consume_patience(index)
        self._catch_up(index)
        answer = ClosedAnswer(
            member_id, ClosedQuestion(rule), self._simulate(index, rule)
        )
        self._count_closed(member_id, rule)
        return answer

    def ask_open(
        self,
        member_id: str,
        exclude: set[Rule] | None = None,
        context: Itemset | None = None,
    ) -> OpenAnswer:
        """Pose an open question to ``member_id``."""
        index = self.position_of(member_id)
        self._consume_patience(index)
        self._catch_up(index)
        question = OpenQuestion(context or Itemset.empty())
        avoid = chain(self._volunteered.get(index, ()), exclude or ())
        choice = self._pool(index).choose(
            question.context, avoid, self._member_rng(index)
        )
        if choice is None:
            answer = OpenAnswer(member_id, question, None, None)
        else:
            rule, true_stats = choice
            self._volunteered.setdefault(index, set()).add(rule)
            reported = self.answer_model.report_rule(
                rule, true_stats, self._member_rng(index)
            )
            answer = OpenAnswer(member_id, question, rule, reported)
        self.stats.open_questions += 1
        self.stats.per_member[member_id] += 1
        if answer.is_empty:
            self.stats.empty_open_answers += 1
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
        """Wrap an answer in the async envelope, drawing its latency."""
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
        module docstring); patience, statistics and latency are settled
        now.
        """
        index = self.position_of(member_id)
        self._consume_patience(index)
        unread = _Unread(index, rule)
        if self.answer_model.consumes_rng:
            queue = self._unread.get(index)
            if queue is None:
                queue = self._unread[index] = deque()
            queue.append(unread)
        answer = DeferredClosedAnswer(
            member_id, ClosedQuestion(rule), partial(self._settle, unread)
        )
        self._count_closed(member_id, rule)
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
        """Open question with simulated-latency delivery."""
        answer = self.ask_open(member_id, exclude=exclude, context=context)
        return self.make_in_flight(answer, latency=latency, rng=rng, now=now)

    # -- pickling: sparse state only --------------------------------------------

    def __getstate__(self) -> dict:
        return {
            "population": self._population,  # pickles as its recipe
            "answer_model": self.answer_model,
            "open_policy": self.open_policy,
            "patience": self.patience,
            "pre_state": self._pre_state,
            "rng_state": self._rng.bit_generator.state,
            "stats": self.stats,
            "rr_cursor": self._rotation.cursor,
            "answered": self._answered,
            "member_rngs": self._member_rngs,
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
        self._pre_state = state["pre_state"]
        seed_rng = _generator_from_state(self._pre_state)
        self._member_seeds = seed_rng.integers(2**63, size=len(self._population))
        self._rng = _generator_from_state(state["rng_state"])
        self.stats = state["stats"]
        self._answered = state["answered"]
        self._member_rngs = state["member_rngs"]
        self._volunteered = state["volunteered"]
        self._unread = state["unread"]
        self._departed = set(state["departed"])
        self._quarantined = set(state["quarantined"])
        self._init_runtime()
        self._rotation.cursor = state["rr_cursor"]

    def __repr__(self) -> str:
        return f"ArrayCrowd({len(self)} members, {len(self._rotation)} available)"
