"""The CrowdMiner main loop — the paper's primary contribution.

One session mines the significant rules of a crowd while spending as
few questions as possible. Each step:

1. the crowd's scheduler hands the miner the next available member;
2. the open/closed **mix policy** decides the question type;
3. for closed questions, the **selection strategy** picks the rule
   whose classification currently carries the highest error risk; for
   open questions, the member is asked to volunteer a habit the system
   does not already know;
4. the answer updates the **knowledge base**: per-rule evidence, the
   significance re-assessment, and (when a rule's support is
   confidently dead) lattice propagation condemning its known
   specializations for free;
5. rules that get **confirmed significant** are expanded with their
   immediate generalizations and the alternative splits of their body,
   seeding the candidate pool around proven structure (expansion on
   confirmation, not on discovery, keeps junk from multiplying).

The loop ends when the question budget is exhausted, when every member
has left, or when nothing useful remains to ask (all known rules
settled and every member's open-answer memory dry).
"""

from __future__ import annotations

import enum
import weakref
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro._util import as_rng, check_fraction, check_positive
from repro.core.itemset import Itemset
from repro.core.order import generalizations
from repro.core.rule import Rule
from repro.crowd.crowd import SimulatedCrowd
from repro.crowd.questions import AnyAnswer, ClosedAnswer, MalformedAnswer, OpenAnswer
from repro.errors import BudgetExhaustedError, ConfigurationError, CrowdExhaustedError
from repro.estimation.aggregate import Aggregator, DynamicTrustAggregator
from repro.estimation.latent import LatentAbilityModel
from repro.estimation.samples import EstimateSummary
from repro.estimation.significance import Decision, SignificanceTest, Thresholds
from repro.miner.open_policy import AdaptiveOpenPolicy, OpenClosedPolicy
from repro.miner.result import MiningResult, QuestionEvent, QuestionKind, QuestionLog
from repro.miner.state import MiningState, RuleOrigin
from repro.miner.strategy import MaxUncertaintyStrategy, QuestionStrategy
from repro.obs import Instrumentation


#: Bucket edges of the ``quality.ability`` histogram: posterior
#: *relative* noise scales (1 = typical honest scatter for the rules
#: answered); the quarantine-relevant mass sits above ~1.8.
ABILITY_BUCKETS: tuple[float, ...] = (0.5, 0.8, 1.0, 1.3, 1.8, 2.5, 4.0)


@dataclass(frozen=True, slots=True)
class QuestionProposal:
    """One question the miner wants asked, separated from its answer.

    The miner's step used to be an atomic ask-and-record; the
    asynchronous dispatcher needs the two halves apart, with arbitrary
    time (and other members' answers) in between:

    - :meth:`CrowdMiner.propose_question` chooses the question for a
      member and stamps it with the knowledge-base version;
    - :meth:`CrowdMiner.ingest_answer` folds the answer in *when it
      arrives*, revalidating against the version stamp — the rule may
      have been settled directly, or condemned by lattice propagation,
      while the question was in flight, in which case the answer is
      discarded as stale instead of double-counted.

    ``rule`` is the closed-question target (``None`` for open
    questions); ``context`` is the open question's specialization
    context (``None`` for blind open questions and for closed ones).
    """

    member_id: str
    kind: QuestionKind
    rule: Rule | None
    context: Itemset | None
    kb_version: int


class Discard(enum.Enum):
    """Why :meth:`CrowdMiner.ingest_answer` dropped an answer.

    The values name the dispatch and serving books each discard is
    booked under.
    """

    MALFORMED = "malformed"
    REJECTED = "rejected"
    STALE = "stale"


@dataclass(slots=True)
class CrowdMinerConfig:
    """Configuration of a mining session.

    Attributes
    ----------
    thresholds:
        The query's significance thresholds ``(θ_s, θ_c)``.
    budget:
        Maximum number of questions for the whole session.
    strategy:
        Closed-question selection strategy.
    open_policy:
        Open/closed mix policy.
    aggregator:
        Cross-member aggregation black box (``None`` → plain mean).
    decision_confidence / min_samples / variance_floor / use_covariance:
        Forwarded to :class:`~repro.estimation.significance.SignificanceTest`.
    lattice_pruning:
        Enable support-based downward propagation of insignificance.
    expand_generalizations:
        When a rule is *decided significant*, also register its
        immediate generalizations as candidates. (Expansion happens on
        confirmation, not on discovery: expanding every volunteered
        rule would multiply the junk candidates tenfold and starve the
        true borderline rules of verification budget.)
    expand_splits:
        On the same trigger, register every alternative antecedent/
        consequent split of the confirmed rule's body. All splits share
        the body's support, and which split carries the confidence is
        exactly what the crowd must be asked — volunteering members
        report only *their* favourite phrasing.
    count_open_evidence:
        Whether the numeric part of an open answer enters the rule's
        evidence. Default off: the volunteering member is, by
        construction, someone who *has* the habit, so their answer is
        an upward-biased sample of the crowd mean. Discovery and
        estimation are then cleanly separated — open answers only seed
        candidates, and all counted evidence comes from members the
        scheduler picked independently of the rule.
    contextual_open_fraction:
        Fraction of open questions asked *in context*: "think of
        occasions involving X — what else do you do then?", where X is
        the body of a confirmed-significant rule. These are the papers'
        *specialization questions*: they dig for refinements and
        co-occurring extras around proven structure instead of fishing
        blind. Applied only once at least one rule is confirmed.
        Default 0 (off): contextual probing pays off in domains whose
        habits actually have refinements (a tip attached to an
        activity, an extra ingredient); in worlds of disjoint habits
        the probes surface junk supersets and waste verification
        budget — enable it deliberately for refinement-rich domains.
    screen_spammers:
        Enable spammer screening: every counted closed answer is
        checked against the member's previous answers for support-
        antitonicity violations, trust decays with the member's mean
        violation, and all estimates become trust-weighted
        (:class:`~repro.estimation.aggregate.DynamicTrustAggregator`).
        Mutually exclusive with a custom ``aggregator``.
    quarantine:
        Enable the answer quality-control loop: the latent-ability
        model jointly re-estimates member ability and rule truth from
        the full answer matrix, trust weights discount low-quality
        members, and members whose fitted trust falls below
        ``trust_floor`` are quarantined — no longer routed to, their
        evidence purged from the knowledge base. Composes with
        ``screen_spammers`` (trust is the screening factor times the
        fitted trust); mutually exclusive with a custom
        ``aggregator``. With no adversaries present every member keeps
        trust exactly 1.0 and the session is byte-identical to one
        with the loop disabled.

        Both options run one model,
        :class:`~repro.estimation.latent.LatentAbilityModel`, kept as
        :attr:`CrowdMiner.latent`.
    reestimate_every:
        Counted answers between latent-model re-estimations
        (answer-count driven, so deterministic from seeds — replay
        stays byte-identical).
    trust_floor / quarantine_min_answers:
        Quarantine triggers when a member's trust falls below
        ``trust_floor`` with at least ``quarantine_min_answers``
        observed answers.
    checkpoint_every:
        Questions between automatic whole-session checkpoints, when a
        storage backend is attached (0 = never checkpoint
        automatically; the write-ahead answer log is kept either way).
        In dispatched sessions the checkpoint is deferred to the next
        event boundary so the in-flight books are never captured
        half-updated.
    seed_rules:
        Rules known before any question is asked (a query's candidate
        patterns); they enter the knowledge base with SEED origin.
    seed:
        Randomness for type coin-flips and strategy tie-breaking.
    """

    thresholds: Thresholds
    budget: int = 1_000
    strategy: QuestionStrategy = field(default_factory=MaxUncertaintyStrategy)
    open_policy: OpenClosedPolicy = field(default_factory=AdaptiveOpenPolicy)
    aggregator: Aggregator | None = None
    decision_confidence: float = 0.9
    min_samples: int = 5
    variance_floor: float = 0.15**2
    use_covariance: bool = True
    lattice_pruning: bool = True
    expand_generalizations: bool = True
    expand_splits: bool = True
    count_open_evidence: bool = False
    contextual_open_fraction: float = 0.0
    screen_spammers: bool = False
    quarantine: bool = False
    reestimate_every: int = 10
    trust_floor: float = 0.45
    quarantine_min_answers: int = 4
    checkpoint_every: int = 0
    seed_rules: tuple[Rule, ...] = ()
    seed: int | np.random.Generator | None = None

    def __post_init__(self) -> None:
        check_positive(self.budget, "budget")
        if self.checkpoint_every < 0:
            raise ConfigurationError(
                f"checkpoint_every must be non-negative, "
                f"got {self.checkpoint_every!r}"
            )
        check_fraction(self.contextual_open_fraction, "contextual_open_fraction")
        check_positive(self.reestimate_every, "reestimate_every")
        check_fraction(self.trust_floor, "trust_floor")
        check_positive(self.quarantine_min_answers, "quarantine_min_answers")
        if (self.screen_spammers or self.quarantine) and self.aggregator is not None:
            raise ConfigurationError(
                "screen_spammers/quarantine install their own trust-weighted "
                "aggregator; pass one or the other"
            )

    def build_test(self) -> SignificanceTest:
        """The significance test implied by this configuration."""
        return SignificanceTest(
            thresholds=self.thresholds,
            decision_confidence=self.decision_confidence,
            min_samples=self.min_samples,
            variance_floor=self.variance_floor,
            use_covariance=self.use_covariance,
        )


class CrowdMiner:
    """A mining session over one crowd.

    The engine is *stepwise*: :meth:`step` spends exactly one question
    (or reports that nothing useful remains), so callers — examples,
    the evaluation harness, interactive front-ends — can interleave
    their own bookkeeping (checkpoints, progress display) between
    questions. :meth:`run` is the run-to-completion convenience.
    """

    def __init__(
        self,
        crowd: SimulatedCrowd,
        config: CrowdMinerConfig,
        obs: Instrumentation | None = None,
        storage=None,
    ) -> None:
        self.crowd = crowd
        self.config = config
        self._rng = as_rng(config.seed)
        #: Storage backend (:mod:`repro.storage`) receiving the
        #: write-ahead answer log and checkpoints; ``None`` keeps the
        #: session purely in-process. Never pickled — resume re-attaches
        #: the live backend (see ``repro.storage.checkpoint``).
        self.storage = storage
        self.dispatcher = None
        #: Session instrumentation, shared with the knowledge base.
        self.obs = obs or Instrumentation()
        # An instrumented backend (the chaos layer's FaultyBackend)
        # reports its fault counters through the session's obs.
        bind_obs = getattr(storage, "bind_obs", None)
        if bind_obs is not None:
            bind_obs(self.obs)
        self.latent: LatentAbilityModel | None = None
        aggregator = config.aggregator
        if config.screen_spammers or config.quarantine:
            self.latent = LatentAbilityModel(
                trust_floor=config.trust_floor,
                min_answers=config.quarantine_min_answers,
                reestimate_every=config.reestimate_every,
                screen=config.screen_spammers,
            )
            aggregator = DynamicTrustAggregator(self.latent)
        self.state = MiningState(
            test=config.build_test(),
            aggregator=aggregator,
            lattice_pruning=config.lattice_pruning,
            obs=self.obs,
        )
        for rule in config.seed_rules:
            self.state.add_rule(rule, RuleOrigin.SEED)
        #: Every counted question, as columns (see :class:`QuestionLog`).
        self.log = QuestionLog()
        #: Why the latest :meth:`ingest_answer` dropped its answer
        #: (``None`` when it was counted).
        self.last_discard: Discard | None = None
        self._questions = 0
        self._consecutive_dry_opens = 0
        self._expanded: set[Rule] = set()

    # -- progress ------------------------------------------------------------

    @property
    def dispatcher(self):
        """The object in the dispatcher seat, or ``None``.

        Set by the asynchronous dispatcher or a serve session, so
        checkpoint requests can be deferred to an event boundary, and
        checkpoints capture the seat with the miner. Held weakly: the
        seat owns the miner, and a strong back-reference would leave a
        finished session for the cyclic collector to free. Whoever
        drives the seat keeps it alive for as long as the session may
        checkpoint; :meth:`checkpoint` refuses once it is gone.
        """
        seat = self._seat
        return None if seat is None else seat()

    @dispatcher.setter
    def dispatcher(self, seat) -> None:
        self._seat = None if seat is None else weakref.ref(seat)

    @property
    def questions_asked(self) -> int:
        """Questions spent so far in this session."""
        return self._questions

    @property
    def budget_left(self) -> int:
        """Remaining question budget."""
        return self.config.budget - self._questions

    @property
    def open_supply_exhausted(self) -> bool:
        """True when a full crowd round of open questions came back dry.

        The round is measured against the members still *available* —
        comparing against the total member count (including departures)
        would keep burning budget on dry open questions long after the
        remaining crowd proved empty-handed.
        """
        available = self.crowd.available_count()
        return self._consecutive_dry_opens >= max(1, available)

    @property
    def is_done(self) -> bool:
        """True when no further step can make progress."""
        if self.budget_left <= 0:
            return True
        available_n = self.crowd.available_count()
        if available_n == 0:
            return True
        # A rule with fewer contributors than there are available
        # members certainly has an unasked available member — the id
        # set (O(crowd)) is only built when counts cannot decide.
        available: set[str] | None = None
        has_closed = False
        for k in self.state.unresolved():
            if available_n > len(k.samples.member_ids):
                has_closed = True
                break
            if available is None:
                available = set(self.crowd.available_members())
            if not available <= k.samples.member_ids:
                has_closed = True
                break
        return not has_closed and self.open_supply_exhausted

    # -- the step ------------------------------------------------------------------

    def step(self) -> QuestionEvent | None:
        """Spend one question; returns its event, or ``None`` when done.

        Raises :class:`~repro.errors.BudgetExhaustedError` when called
        past the budget (use :attr:`is_done` / :meth:`run` to avoid).
        """
        if self.budget_left <= 0:
            raise BudgetExhaustedError(
                f"budget of {self.config.budget} questions already spent"
            )
        # A member may turn out to have left mid-question (their answer
        # stream ran dry, their patience expired between scheduling and
        # asking); retry with the next member, up to one full round.
        with self.obs.timer("miner.step"):
            for _ in range(max(1, len(self.crowd))):
                try:
                    member_id = self.crowd.next_member()
                except CrowdExhaustedError:
                    return None
                proposal = self.propose_question(member_id)
                if proposal is None:
                    # Nothing askable for this member *or anyone else*
                    # (the proposal depends on the state, not the
                    # member), so the session is over.
                    return None
                try:
                    answer = self.pose(proposal)
                except CrowdExhaustedError:
                    continue
                event = self.ingest_answer(proposal, answer)
                if event is None:
                    # Discarded at the validation gate (a malformed
                    # reply, in the synchronous path): the member's
                    # effort is spent but no evidence landed. Try the
                    # next member rather than reporting the session
                    # over — one garbage line must not end a run.
                    continue
                return event
            return None

    # -- propose / pose / ingest ------------------------------------------------

    def propose_question(self, member_id: str) -> QuestionProposal | None:
        """Choose the next question for ``member_id`` without asking it.

        Returns ``None`` when nothing useful can be asked (strict
        closed-only policies with an empty candidate pool end the
        session here). The proposal is stamped with the current
        knowledge-base version so :meth:`ingest_answer` can detect
        answers made stale while in flight.
        """
        with self.obs.timer("miner.select"):
            closed_rule = self.config.strategy.select(self.state, member_id, self._rng)
        ask_open = self.config.open_policy.choose_open(
            self._rng,
            has_closed_candidate=closed_rule is not None,
            open_supply_exhausted=self.open_supply_exhausted,
        )
        if ask_open and not self.open_supply_exhausted:
            return QuestionProposal(
                member_id=member_id,
                kind=QuestionKind.OPEN,
                rule=None,
                context=self._pick_context(),
                kb_version=self.state.version,
            )
        # Either the policy chose closed, or it chose open but the
        # crowd's open-answer supply ran dry: fall back to closed.
        if closed_rule is not None:
            # Closed questions are only ever asked about rules the
            # strategy read out of the state, so the rule's origin is
            # already on record — recording under a fabricated origin
            # would misreport how the rule was discovered.
            assert (
                closed_rule in self.state
            ), "strategy selected a rule unknown to the state"
            return QuestionProposal(
                member_id=member_id,
                kind=QuestionKind.CLOSED,
                rule=closed_rule,
                context=None,
                kb_version=self.state.version,
            )
        return None

    def pose(self, proposal: QuestionProposal) -> AnyAnswer:
        """Put the proposed question to the crowd and return the raw answer.

        Raises :class:`~repro.errors.CrowdExhaustedError` when the
        member turns out to have left between scheduling and asking.
        The answer may be a
        :class:`~repro.crowd.questions.MalformedAnswer` (the reply
        never parsed); :meth:`ingest_answer` counts and drops those.
        Callers that cannot ingest immediately (the dispatcher) hold on
        to the answer and deliver it to :meth:`ingest_answer` later.
        """
        if proposal.kind is QuestionKind.CLOSED:
            assert proposal.rule is not None
            return self.crowd.ask_closed(proposal.member_id, proposal.rule)
        return self.crowd.ask_open(
            proposal.member_id,
            exclude=self.open_question_exclude(),
            context=proposal.context,
        )

    def open_question_exclude(self) -> set[Rule]:
        """The rules an open question should exclude, as of right now.

        The knowledge the question form shows the member ("tell us
        something we *don't* already know") — snapshotted at pose time
        by the synchronous path, at issue time by the dispatcher and
        the serving surface (:mod:`repro.serve.wire` sends it over the
        wire so a remote client answers from the same information).
        Treat the returned set as read-only: it is the state's live
        view.
        """
        return self.state.known_rule_set()

    def pose_async(
        self,
        proposal: QuestionProposal,
        *,
        latency,
        rng: np.random.Generator,
        now: float = 0.0,
    ):
        """Put the question to the crowd's asynchronous interface.

        Returns the crowd's
        :class:`~repro.crowd.questions.InFlightAnswer` — content fixed
        now, visibility delayed by a ``latency`` draw on ``rng``. The
        simulated crowd simulates a closed answer's stats when
        :meth:`ingest_answer` first reads them, past its gates, to the
        value simulating at issue would give. The
        dispatcher owns the event clock and hands the wrapped answer
        back to :meth:`ingest_answer` when it lands.
        """
        if proposal.kind is QuestionKind.CLOSED:
            assert proposal.rule is not None
            return self.crowd.ask_closed_async(
                proposal.member_id, proposal.rule, latency=latency, rng=rng, now=now
            )
        return self.crowd.ask_open_async(
            proposal.member_id,
            latency=latency,
            rng=rng,
            now=now,
            exclude=self.open_question_exclude(),
            context=proposal.context,
        )

    def proposal_is_stale(self, proposal: QuestionProposal) -> bool:
        """True when the in-flight question is no longer worth an answer.

        Only meaningful for closed questions (an open answer can always
        seed candidates): the rule was resolved — directly or by
        lattice propagation — while the question was in flight, or the
        member's answer for it was already counted (a timed-out
        question reassigned to someone who answered meanwhile).
        The knowledge-base version stamp makes the common case free:
        an unchanged version proves nothing relevant happened.
        """
        if proposal.kind is not QuestionKind.CLOSED:
            return False
        if proposal.kb_version == self.state.version:
            return False
        assert proposal.rule is not None
        knowledge = self.state.knowledge(proposal.rule)
        return knowledge.is_resolved or knowledge.samples.has_answer_from(
            proposal.member_id
        )

    def ingest_answer(
        self, proposal: QuestionProposal, answer: AnyAnswer
    ) -> QuestionEvent | None:
        """Fold one answer into the knowledge base, in completion order.

        Returns the recorded event, or ``None`` when the answer was
        discarded instead of counted; :attr:`last_discard` then names
        the gate that dropped it. Discards, in gate order:

        - **malformed** — the reply never parsed
          (:class:`~repro.crowd.questions.MalformedAnswer`); counted
          under ``answers.malformed`` and dropped. One garbage line
          from one member must never raise out of the session. When
          the quality loop is on, the garbage also counts as a
          strike against the member, so one who *only* sends garbage
          still ends up quarantined instead of holding a routing slot
          forever.
        - **rejected** — the member was quarantined while this answer
          was in flight; counted under ``quality.rejected``. Their
          evidence was purged, so late answers must not re-enter.
        - **stale** (see :meth:`proposal_is_stale`) — counted under
          ``dispatch.stale``; stale answers must never be
          double-counted as evidence.
        """
        self.last_discard = None
        if isinstance(answer, MalformedAnswer):
            self.obs.count("answers.malformed")
            if self.latent is not None:
                self.latent.observe_malformed(proposal.member_id)
                self._maybe_reestimate()
            self.last_discard = Discard.MALFORMED
            return None
        latent = self.latent
        if latent is not None and latent.is_quarantined(proposal.member_id):
            self.obs.count("quality.rejected")
            self.last_discard = Discard.REJECTED
            return None
        if proposal.kind is QuestionKind.CLOSED:
            assert isinstance(answer, ClosedAnswer)
            return self._ingest_closed(proposal, answer)
        assert isinstance(answer, OpenAnswer)
        return self._ingest_open(proposal, answer)

    def _maybe_reestimate(self) -> None:
        """Run a latent re-estimation when one is due, then react to it.

        Only under ``quarantine``: a screening-only model never fits.
        The cadence is answer-count driven (every ``reestimate_every``
        counted observations), so it is a pure function of the answer
        stream — replay stays byte-identical. After every fit, members
        whose posterior ability warrants exile are quarantined (in
        sorted order, deterministically). The sweep runs even when no
        trust moved: a member whose trust fell below the floor before
        they reached ``quarantine_min_answers`` only becomes eligible
        later, and a member who sends nothing but garbage never moves
        trust again. When trust moved or someone was quarantined,
        every evidenced rule is re-assessed under the shifted weights —
        rules settled on newly-distrusted answers reopen through the
        regular purge/reopen machinery.
        """
        latent = self.latent
        assert latent is not None
        if not (self.config.quarantine and latent.due()):
            return
        with self.obs.timer("quality.estimate"):
            changed = latent.reestimate()
        self.obs.count("quality.reestimates")
        for _, ability in latent.abilities():
            self.obs.observe(
                "quality.ability", ability.sigma, edges=ABILITY_BUCKETS
            )
        quarantined = latent.quarantine_candidates()
        for member_id in quarantined:
            latent.mark_quarantined(member_id)
            self.crowd.quarantine(member_id)
            self.state.purge_member(member_id)
            self.obs.count("quality.quarantined")
        if changed or quarantined:
            self.state.reassess_trust_shift()

    def _ingest_closed(
        self, proposal: QuestionProposal, answer: ClosedAnswer
    ) -> QuestionEvent | None:
        rule, member_id = proposal.rule, proposal.member_id
        assert rule is not None and rule in self.state, (
            "closed answer about a rule unknown to the state"
        )
        if self.proposal_is_stale(proposal):
            self.obs.count("dispatch.stale")
            self.last_discard = Discard.STALE
            return None
        origin = self.state.knowledge(rule).origin
        if self.latent is not None:
            # Only counted closed answers enter the matrix: open
            # answers are volunteer-biased by construction.
            self.latent.observe_answer(member_id, rule, answer.stats)
        self.state.record_answer(rule, member_id, answer.stats, origin)
        if self.latent is not None:
            self._maybe_reestimate()
        self.obs.count("miner.closed")
        self._expand_confirmed()
        event = QuestionEvent(
            index=self._questions,
            kind=QuestionKind.CLOSED,
            member_id=member_id,
            rule=rule,
            stats=answer.stats,
        )
        self._finish_step(event)
        return event

    def _pick_context(self):
        """A specialization-question context, or ``None`` for fully open.

        With the configured probability, the context is the body of a
        random confirmed-significant rule — "think of occasions
        involving <body>: what else do you do then?" — steering the
        member's memory toward refinements of proven structure.
        """
        fraction = self.config.contextual_open_fraction
        if fraction <= 0.0 or self._rng.random() >= fraction:
            return None
        confirmed = [
            k.rule
            for k in self.state.rules()
            if k.decision is Decision.SIGNIFICANT
        ]
        if not confirmed:
            return None
        rule = confirmed[int(self._rng.integers(len(confirmed)))]
        return rule.antecedent | rule.consequent

    def _ingest_open(
        self, proposal: QuestionProposal, answer: OpenAnswer
    ) -> QuestionEvent:
        member_id, context = proposal.member_id, proposal.context
        self.obs.count("miner.open")
        if answer.is_empty:
            # Only *blind* open questions coming back empty signal that
            # the crowd's memory is exhausted; a missed contextual probe
            # just means nobody refines that particular habit.
            if context is None:
                self._consecutive_dry_opens += 1
            self.obs.count("miner.dry_opens")
            self.config.open_policy.observe_open_outcome(False)
            event = QuestionEvent(
                index=self._questions,
                kind=QuestionKind.OPEN,
                member_id=member_id,
                rule=None,
                stats=None,
            )
            self._finish_step(event)
            return event
        self._consecutive_dry_opens = 0
        rule, stats = answer.rule, answer.stats
        assert rule is not None and stats is not None
        # Discovery quality feedback: a volunteered habit only counts as
        # a productive find when the volunteer's own stats clear the
        # thresholds — members digging into the dregs of their memory
        # drive the open-question rate down.
        promising = stats.meets(
            self.config.thresholds.support, self.config.thresholds.confidence
        )
        self.config.open_policy.observe_open_outcome(promising)
        prior = self._volunteer_prior(stats)
        if self.config.count_open_evidence:
            self.state.record_answer(rule, member_id, stats, RuleOrigin.OPEN_ANSWER)
            self.state.set_prior_promise(rule, prior)
        else:
            self.state.add_rule(rule, RuleOrigin.OPEN_ANSWER, prior_promise=prior)
        self._expand_confirmed()
        event = QuestionEvent(
            index=self._questions,
            kind=QuestionKind.OPEN,
            member_id=member_id,
            rule=rule,
            stats=stats,
        )
        self._finish_step(event)
        return event

    #: Prior promise of speculative lattice-generated candidates: just
    #: below the 0.5 of a fresh unknown, so they are verified after
    #: directly volunteered rules but before rules evidence disfavours.
    LATTICE_PRIOR = 0.45

    def _volunteer_prior(self, stats) -> float:
        """Prior promise implied by a volunteer's (biased) stats.

        The volunteer's answer is treated as half a vote: the
        significance probability it *would* imply is averaged with the
        uninformed 0.5, acknowledging the selection bias of asking
        someone who has the habit.
        """
        pseudo = EstimateSummary(
            n=1,
            mean=np.array(stats.as_tuple()),
            mean_cov=np.zeros((2, 2)),
        )
        p = self.state.test.probability_significant(pseudo)
        return 0.5 * (p + 0.5)

    def _expand_confirmed(self) -> None:
        """Expand lattice neighbours of newly *confirmed* rules.

        Called after every state update: any rule whose decision has
        become SIGNIFICANT since its last expansion gets its immediate
        generalizations and alternative body splits registered as
        candidates. Confirmation-triggered expansion keeps the
        candidate pool anchored to rules that earned it. The state
        queues confirmations as they happen, so this is a drain of the
        (almost always empty) queue, not a scan of every known rule.
        """
        if not (self.config.expand_generalizations or self.config.expand_splits):
            return
        for rule in self.state.take_newly_significant():
            knowledge = self.state.knowledge(rule)
            if knowledge.decision is not Decision.SIGNIFICANT or rule in self._expanded:
                continue
            self._expanded.add(rule)
            if self.config.expand_generalizations:
                for general in generalizations(rule):
                    self.state.add_rule(
                        general, RuleOrigin.LATTICE, prior_promise=self.LATTICE_PRIOR
                    )
            if self.config.expand_splits:
                body = rule.body
                for antecedent in body.subsets(proper=True):
                    if not antecedent:
                        continue
                    sibling = Rule(antecedent, body - antecedent)
                    self.state.add_rule(
                        sibling, RuleOrigin.LATTICE, prior_promise=self.LATTICE_PRIOR
                    )

    def _finish_step(self, event: QuestionEvent) -> None:
        self._questions += 1
        self.log.append(event)
        self.obs.count("miner.questions")
        if self.obs.tracing:
            self.obs.emit(
                "question",
                index=event.index,
                kind=event.kind.value,
                member_id=event.member_id,
                rule=None if event.rule is None else str(event.rule),
                kb_size=len(self.state),
            )
        if self.storage is not None:
            self._log_answer(event)
            every = self.config.checkpoint_every
            if every > 0 and self._questions % every == 0:
                if self.dispatcher is not None:
                    # Mid-delivery here: the dispatcher's completion
                    # books update only after this ingest returns, so
                    # the capture waits for the next event boundary.
                    self.dispatcher.request_checkpoint()
                else:
                    self.checkpoint()

    # -- persistence -------------------------------------------------------------

    def _log_answer(self, event: QuestionEvent) -> None:
        """Append one finished exchange to the write-ahead answer log.

        A failed append (disk full, injected fault) must not kill the
        mining session or punch a hole in the log's sequence numbers —
        the record joins an in-memory backlog that is flushed, in seq
        order, ahead of the next successful append or checkpoint.
        """
        from repro.storage.backend import AnswerRecord, StorageError
        from repro.storage.records import rule_key

        stats = event.stats
        record = AnswerRecord(
            seq=event.index,
            member_id=event.member_id,
            kind=event.kind.value,
            rule_key=None if event.rule is None else rule_key(event.rule),
            support=None if stats is None else stats.support,
            confidence=None if stats is None else stats.confidence,
        )
        backlog = getattr(self, "_log_backlog", None)
        if backlog is None:
            backlog = self._log_backlog = []
        backlog.append(record)
        try:
            while backlog:
                self.storage.append_answer(backlog[0])
                backlog.pop(0)
                self.obs.count("storage.answers_logged")
        except StorageError:
            self.obs.count("storage.append_failures")

    def _flush_log_backlog(self) -> None:
        """Write any backlogged answer records; raises on failure."""
        backlog = getattr(self, "_log_backlog", None)
        while backlog:
            self.storage.append_answer(backlog[0])
            backlog.pop(0)
            self.obs.count("storage.answers_logged")

    def checkpoint(self):
        """Capture the whole session into the attached storage backend.

        Returns the backend's
        :class:`~repro.storage.backend.CheckpointInfo`, or ``None``
        when no backend is attached. Dispatched sessions must not call
        this mid-event — use
        :meth:`~repro.dispatch.dispatcher.Dispatcher.request_checkpoint`.
        """
        if self.storage is None:
            return None
        seat = self.dispatcher
        if seat is None and self._seat is not None:
            # Capturing without it would resume a dispatched session as
            # a synchronous one.
            raise ConfigurationError(
                "the miner's dispatcher seat was freed; keep a reference to "
                "the dispatcher while its session can checkpoint"
            )
        from repro.storage.backend import StorageError
        from repro.storage.checkpoint import capture_session

        try:
            with self.obs.timer("storage.checkpoint"):
                # A checkpoint's answers_logged count promises that the
                # first N log records are durable — flush any append
                # backlog first, or skip this checkpoint entirely.
                self._flush_log_backlog()
                payload = capture_session(self, seat)
                info = self.storage.save_checkpoint(
                    payload, questions=self._questions, kb_rules=len(self.state)
                )
        except StorageError:
            self.obs.count("storage.checkpoint_failures")
            return None
        self.obs.count("storage.checkpoints")
        self.obs.count("storage.bytes_written", info.payload_bytes)
        self.obs.gauge("storage.bytes_on_disk", self.storage.bytes_on_disk())
        return info

    def __getstate__(self) -> dict:
        # The storage backend (live file/database handles) stays out
        # of the checkpoint, and the dispatcher seat travels as the
        # checkpoint's own entry; resume re-attaches both.
        state = self.__dict__.copy()
        state["storage"] = None
        state["_seat"] = None
        return state

    # -- running to completion -------------------------------------------------------

    def run(
        self,
        max_questions: int | None = None,
        stop_when=None,
    ) -> MiningResult:
        """Run until done (or until ``max_questions`` more are spent).

        ``stop_when`` is an optional stopping rule — any callable
        taking the miner and returning True to end the session early
        (see :mod:`repro.miner.termination` for the standard ones).
        """
        remaining = max_questions if max_questions is not None else self.config.budget
        while remaining > 0 and not self.is_done:
            if stop_when is not None and stop_when(self):
                break
            event = self.step()
            if event is None:
                break
            remaining -= 1
        return self.result()

    def result(self, mode: str = "point") -> MiningResult:
        """Snapshot the session outcome (see ``MiningState.significant_rules``)."""
        closed = self.log.count_kind(QuestionKind.CLOSED)
        return MiningResult(
            significant=self.state.significant_rules(mode=mode),
            questions_asked=self._questions,
            closed_questions=closed,
            open_questions=self._questions - closed,
            rules_discovered=len(self.state),
            inferred_classifications=self.state.inferred_classifications,
            log=self.log.snapshot(),
            obs=self.obs.snapshot(),
        )


def mine_crowd(
    crowd: SimulatedCrowd,
    thresholds: Thresholds,
    budget: int = 1_000,
    seed_rules: Iterable[Rule] = (),
    seed: int | np.random.Generator | None = None,
    **config_overrides,
) -> MiningResult:
    """One-call convenience: configure, run, return the result.

    Extra keyword arguments are forwarded to
    :class:`CrowdMinerConfig` (e.g. ``strategy=``, ``open_policy=``).
    """
    config = CrowdMinerConfig(
        thresholds=thresholds,
        budget=budget,
        seed_rules=tuple(seed_rules),
        seed=seed,
        **config_overrides,
    )
    return CrowdMiner(crowd, config).run()
