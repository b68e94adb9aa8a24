"""The miner's knowledge base.

:class:`MiningState` is everything the system believes at a point in a
session: the rules it knows about, the evidence collected for each, the
current classification of each, and how each became known. It is the
bridge between crowd answers and question selection — strategies read
it, the main loop writes it.

Classification updates happen in two ways:

- **direct** — a rule's own evidence is re-assessed by the
  significance test after each new answer;
- **inferred** — support antitonicity propagates *support-based*
  insignificance downward: when a rule's support is confidently below
  threshold, every known specialization is condemned without spending
  a single question on it. (Confidence is not monotone along the
  lattice, so no symmetric upward rule exists for significance; the
  paper's pruning is likewise support-driven.)

The knowledge base is *incremental*: an item→rules inverted index over
rule bodies restricts every lattice scan (inheritance on add,
propagation on support-death, the horizontal strategy's blocking test)
to candidate rules sharing items with the probe, per-rule aggregate
summaries are cached against sample/aggregator versions, and the
unresolved set, known-rule set and newly-confirmed queue are maintained
on every transition instead of being recomputed per question. All hot
paths report to a :class:`~repro.obs.Instrumentation` layer.
"""

from __future__ import annotations

import enum
import heapq
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from operator import attrgetter

from repro.core.itemset import Itemset
from repro.core.measures import RuleStats
from repro.core.rule import Rule
from repro.estimation.aggregate import Aggregator, MeanAggregator
from repro.estimation.samples import EstimateSummary, RuleSamples
from repro.estimation.significance import Assessment, Decision, SignificanceTest
from repro.obs import Instrumentation


class RuleOrigin(enum.Enum):
    """How a rule entered the knowledge base."""

    SEED = "seed"  # provided upfront (query-driven candidates)
    OPEN_ANSWER = "open_answer"  # volunteered by a member
    LATTICE = "lattice"  # generated as a neighbour of a known rule


@dataclass(slots=True)
class RuleKnowledge:
    """Everything known about one rule."""

    rule: Rule
    origin: RuleOrigin
    samples: RuleSamples
    decision: Decision = Decision.UNDECIDED
    inferred: bool = False  # decision came from lattice propagation
    last_assessment: Assessment | None = None
    #: Prior belief that the rule is significant, before any counted
    #: evidence. 0.5 = no opinion. Open-answer rules get a boost from
    #: the volunteer's (uncounted, biased) stats; lattice-generated
    #: candidates get a slight discount — they are speculative.
    prior_promise: float = 0.5
    #: Support-death already propagated to known specializations; reset
    #: when the decision moves away from INSIGNIFICANT.
    propagated: bool = False
    #: Discovery sequence number (order of entry into the state).
    seq: int = field(default=-1, init=False)
    # Cached aggregate summary, keyed by (samples, aggregator) versions.
    _summary: EstimateSummary | None = field(default=None, init=False, repr=False)
    _summary_token: tuple[int, int] | None = field(
        default=None, init=False, repr=False
    )
    # Stamp of this rule's latest priority-heap entry; older entries
    # found in the heap are stale and get discarded on pop.
    _heap_stamp: int = field(default=0, init=False, repr=False)

    def __reduce__(self) -> tuple:
        # Positional. The summary cache stays behind: it is keyed by the
        # sample and aggregator versions, so its first use after a
        # restore recomputes the identical summary.
        return _restore_knowledge, _knowledge_state(self)

    @property
    def is_resolved(self) -> bool:
        """True once the rule has a settled decision (direct or inferred)."""
        return self.decision.is_final

    @property
    def uncertainty(self) -> float:
        """Misclassification probability if forced to decide now.

        0.5 for rules with no evidence (maximally unknown); 0 for
        resolved rules.
        """
        if self.is_resolved:
            return 0.0
        if self.last_assessment is None:
            return 0.5
        return self.last_assessment.uncertainty


#: The :class:`RuleKnowledge` fields a pickle carries, and their getter.
_KNOWLEDGE_FIELDS = tuple(
    f.name for f in fields(RuleKnowledge) if f.name not in ("_summary", "_summary_token")
)
_knowledge_state = attrgetter(*_KNOWLEDGE_FIELDS)


def _restore_knowledge(*state) -> RuleKnowledge:
    """Rebuild a knowledge record from its positional pickle."""
    knowledge = RuleKnowledge.__new__(RuleKnowledge)
    for name, value in zip(_KNOWLEDGE_FIELDS, state):
        setattr(knowledge, name, value)
    knowledge._summary = None
    knowledge._summary_token = None
    return knowledge


#: Bodies up to this size answer generalization queries by direct
#: subset enumeration (2^k body lookups); larger bodies fall back to
#: scanning the posting lists of their items.
_SUBSET_ENUMERATION_LIMIT = 10


class RuleIndex:
    """Item→rules inverted index over rule bodies.

    Rules are immutable and never leave the knowledge base, so the
    index is add-only. It answers the two lattice queries every scan
    reduces to — "which known rules could *generalize* this one?"
    (body ⊆ probe body) and "which could *specialize* it?"
    (body ⊇ probe body) — touching only rules that share items with
    the probe instead of the whole knowledge base.

    Candidates are filtered on bodies only; callers still apply
    :meth:`~repro.core.rule.Rule.generalizes` for the side-wise order
    (equal bodies split differently are incomparable).
    """

    __slots__ = ("_postings", "_by_body")

    def __init__(self) -> None:
        self._postings: dict[str, set[Rule]] = {}
        self._by_body: dict[Itemset, list[Rule]] = {}

    def add(self, rule: Rule) -> None:
        """Index ``rule`` under every item of its body."""
        for item in rule.body:
            self._postings.setdefault(item, set()).add(rule)
        self._by_body.setdefault(rule.body, []).append(rule)

    def generalization_candidates(self, rule: Rule) -> Iterator[Rule]:
        """Known rules whose body is a subset of ``rule``'s body.

        Includes ``rule`` itself when indexed, and same-body siblings.
        """
        body = rule.body
        if len(body) <= _SUBSET_ENUMERATION_LIMIT:
            by_body = self._by_body
            for sub_body in body.subsets():
                bucket = by_body.get(sub_body)
                if bucket:
                    yield from bucket
            return
        seen: set[Rule] = set()
        for item in body:
            for candidate in self._postings.get(item, ()):
                if candidate not in seen and candidate.body.issubset(body):
                    seen.add(candidate)
                    yield candidate

    def specialization_candidates(self, rule: Rule) -> Iterator[Rule]:
        """Known rules whose body is a superset of ``rule``'s body.

        Walks the shortest posting list among the body's items (every
        superset body must contain each of them) and filters.
        """
        body = rule.body
        postings = []
        for item in body:
            posting = self._postings.get(item)
            if not posting:
                return
            postings.append(posting)
        smallest = min(postings, key=len)
        for candidate in smallest:
            if body.issubset(candidate.body):
                yield candidate


class MiningState:
    """The evolving knowledge base of one mining session.

    Parameters
    ----------
    test:
        The significance test used for all classification.
    aggregator:
        Cross-member aggregation policy (defaults to the plain mean).
    lattice_pruning:
        Enable support-based downward propagation of insignificance.
    obs:
        Instrumentation receiving the knowledge-base counters and
        timers (``kb.*``); a private instance when not given.
    """

    def __init__(
        self,
        test: SignificanceTest,
        aggregator: Aggregator | None = None,
        lattice_pruning: bool = True,
        obs: Instrumentation | None = None,
    ) -> None:
        self.test = test
        self.aggregator = aggregator or MeanAggregator()
        self.lattice_pruning = bool(lattice_pruning)
        self.obs = obs or Instrumentation()
        self._rules: dict[Rule, RuleKnowledge] = {}
        self._index = RuleIndex()
        self._known: set[Rule] = set()
        self._unresolved: dict[Rule, RuleKnowledge] = {}
        # A rule re-entering the unresolved set lands at the dict's
        # tail; the flag triggers one re-sort back to discovery order.
        self._unresolved_order_dirty = False
        self._newly_significant: list[Rule] = []
        # Priority view over unresolved rules (see question_value):
        # entries are (-value, -n, seq, push_id, knowledge, stamp),
        # kept fresh by pushing on every scoring-relevant change and
        # lazily discarding stale/resolved entries on pop.
        self._priority_heap: list[tuple] = []
        self._heap_pushes = 0
        self._version = 0
        #: Rules whose decision is INSIGNIFICANT: until one is, no new
        #: rule can inherit a condemnation, and seeding skips the scan.
        self._insignificant = 0
        #: Counters the evaluation harness reads.
        self.inferred_classifications = 0

    @property
    def version(self) -> int:
        """Monotonic change counter over the whole knowledge base.

        Bumped by every observable mutation — a rule added, an answer
        recorded, a decision or prior changed. The asynchronous
        dispatcher stamps each question proposal with the version at
        issue time: an unchanged version at ingest proves nothing can
        have invalidated the question while it was in flight, and a
        changed version triggers stale revalidation (the rule may have
        been settled directly, or condemned by lattice propagation,
        while the member was typing).
        """
        return self._version

    # -- persistence ------------------------------------------------------------

    def rebuild_index(self) -> None:
        """Repopulate the inverted index from the rules, discovery order.

        The index is derived state: checkpoints drop it (it is a pure
        function of the rules, so storing it would only grow the
        payload) and resume rebuilds it here.
        """
        self._index = RuleIndex()
        for rule in self._rules:
            self._index.add(rule)

    def __getstate__(self) -> dict:
        # The index is derived state; drop it and rebuild on load (see
        # rebuild_index).
        state = self.__dict__.copy()
        state["_index"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.rebuild_index()

    # -- rule bookkeeping -------------------------------------------------------

    def __contains__(self, rule: Rule) -> bool:
        return rule in self._rules

    def __len__(self) -> int:
        return len(self._rules)

    def knowledge(self, rule: Rule) -> RuleKnowledge:
        """The knowledge record for ``rule`` (KeyError when unknown)."""
        return self._rules[rule]

    def rules(self) -> list[RuleKnowledge]:
        """All knowledge records, in discovery order."""
        return list(self._rules.values())

    def unresolved(self) -> list[RuleKnowledge]:
        """Rules still lacking a settled decision, in discovery order.

        Maintained incrementally — the call costs one list copy, not a
        filter over the whole knowledge base.
        """
        if self._unresolved_order_dirty:
            ordered = sorted(self._unresolved.values(), key=lambda k: k.seq)
            self._unresolved = {k.rule: k for k in ordered}
            self._unresolved_order_dirty = False
        return list(self._unresolved.values())

    def known_rule_set(self) -> set[Rule]:
        """The set of known rules (used to exclude from open questions).

        A live, maintained view — treat it as read-only; it tracks the
        knowledge base as rules are added.
        """
        return self._known

    def known_generalizations(self, rule: Rule) -> Iterator[RuleKnowledge]:
        """Known proper generalizations of ``rule``, via the index."""
        for candidate in self._index.generalization_candidates(rule):
            if candidate != rule and candidate.generalizes(rule):
                yield self._rules[candidate]

    def known_specializations(self, rule: Rule) -> Iterator[RuleKnowledge]:
        """Known proper specializations of ``rule``, via the index."""
        for candidate in self._index.specialization_candidates(rule):
            if candidate != rule and rule.generalizes(candidate):
                yield self._rules[candidate]

    def take_newly_significant(self) -> list[Rule]:
        """Drain the rules confirmed SIGNIFICANT since the last drain.

        The main loop's expansion step consumes this instead of
        re-scanning every rule's decision after each answer.
        """
        if not self._newly_significant:
            return []
        drained = self._newly_significant
        self._newly_significant = []
        return drained

    # -- the question-priority view ---------------------------------------------

    def question_value(self, knowledge: RuleKnowledge) -> float:
        """How much the next answer about this rule is worth.

        Two regimes (see ``MaxUncertaintyStrategy`` for the full
        rationale): below the test's minimum sample count the value is
        the rule's *promise* — evidence blended with one pseudo-sample
        of prior promise; at or above it, the value is the
        misclassification probability discounted by how much one more
        sample can still move the estimate (``min_samples / n``).
        """
        assessment = knowledge.last_assessment
        p = 0.5 if assessment is None else assessment.probability_significant
        n = knowledge.samples.n
        min_samples = self.test.min_samples
        if n < min_samples:
            return (n * p + knowledge.prior_promise) / (n + 1)
        return min(p, 1.0 - p) * (min_samples / n)

    def _push_priority(self, knowledge: RuleKnowledge) -> None:
        """(Re)insert a rule into the priority view with its current value."""
        if knowledge.is_resolved:
            return
        knowledge._heap_stamp += 1
        self._heap_pushes += 1
        heapq.heappush(
            self._priority_heap,
            (
                -self.question_value(knowledge),
                -knowledge.samples.n,
                knowledge.seq,
                self._heap_pushes,  # unique: later fields never compared
                knowledge,
                knowledge._heap_stamp,
            ),
        )

    def best_candidate(self, member_id: str) -> RuleKnowledge | None:
        """The unresolved rule whose next answer from ``member_id`` is
        worth the most.

        Equivalent to scanning every unresolved rule the member has not
        yet answered and taking the argmax of
        (:meth:`question_value`, sample count) with ties broken toward
        discovery order — but served from the maintained heap, so the
        cost is a handful of pops instead of a full scan. Entries whose
        rule has since resolved or been re-scored are discarded lazily;
        entries skipped only because this member already answered them
        are pushed back.
        """
        heap = self._priority_heap
        deferred = []
        chosen = None
        while heap:
            entry = heapq.heappop(heap)
            knowledge = entry[4]
            if knowledge.is_resolved or entry[5] != knowledge._heap_stamp:
                continue  # stale: superseded or settled since pushed
            deferred.append(entry)
            if knowledge.samples.has_answer_from(member_id):
                continue
            chosen = knowledge
            break
        for entry in deferred:
            heapq.heappush(heap, entry)
        return chosen

    def set_prior_promise(self, rule: Rule, prior_promise: float) -> None:
        """Update a rule's prior promise (and its question priority)."""
        knowledge = self._rules[rule]
        if knowledge.prior_promise != prior_promise:
            knowledge.prior_promise = prior_promise
            self._version += 1
            self._push_priority(knowledge)

    def add_rule(
        self, rule: Rule, origin: RuleOrigin, prior_promise: float = 0.5
    ) -> RuleKnowledge:
        """Register ``rule`` if new; returns its knowledge record.

        A repeated registration keeps the existing record but lets the
        prior promise *rise* (a rule volunteered again after being
        lattice-generated is more promising than either signal alone
        suggested). A newly added rule may be immediately classified by
        lattice propagation when some known generalization is already
        support-insignificant.
        """
        existing = self._rules.get(rule)
        if existing is not None:
            if prior_promise > existing.prior_promise:
                existing.prior_promise = prior_promise
                self._version += 1
                self._push_priority(existing)
            return existing
        knowledge = RuleKnowledge(
            rule=rule,
            origin=origin,
            samples=RuleSamples(rule),
            prior_promise=prior_promise,
        )
        knowledge.seq = len(self._rules)
        self._version += 1
        self._rules[rule] = knowledge
        self._known.add(rule)
        self._unresolved[rule] = knowledge
        self._index.add(rule)
        self.obs.count("kb.rules_added")
        if self.lattice_pruning:
            self._inherit_insignificance(knowledge)
        self._push_priority(knowledge)
        return knowledge

    def _inherit_insignificance(self, knowledge: RuleKnowledge) -> None:
        """Condemn a new rule if a known generalization is support-dead."""
        if not self._insignificant:
            return
        for other in self.known_generalizations(knowledge.rule):
            if (
                other.is_resolved
                and other.decision is Decision.INSIGNIFICANT
                and self._support_dead(other)
            ):
                self._set_decision(knowledge, Decision.INSIGNIFICANT, inferred=True)
                self.inferred_classifications += 1
                self.obs.count("kb.inferred")
                return

    def _support_dead(self, knowledge: RuleKnowledge) -> bool:
        """True when the rule's *support* is confidently below threshold."""
        summary = self.summary_for(knowledge)
        if summary.n < self.test.min_samples:
            return False
        p_support = self.test.probability_support_exceeds(summary)
        return p_support <= 1.0 - self.test.decision_confidence

    # -- evidence updates ----------------------------------------------------------

    def summary_for(self, knowledge: RuleKnowledge) -> EstimateSummary:
        """The aggregated estimate snapshot of a rule.

        Cached per rule and invalidated by the sample store's version
        (bumped on every answer) and the aggregator's version (bumped
        when external state like trust weights may have moved), so
        reporting and scoring stop recomputing aggregates for untouched
        rules.
        """
        token = (knowledge.samples.version, self.aggregator.version)
        if knowledge._summary is not None and knowledge._summary_token == token:
            self.obs.count("kb.summary_hits")
            return knowledge._summary
        summary = self.aggregator.summarize(knowledge.samples)
        knowledge._summary = summary
        knowledge._summary_token = token
        self.obs.count("kb.summary_misses")
        return summary

    def record_answer(
        self, rule: Rule, member_id: str, stats: RuleStats, origin: RuleOrigin
    ) -> RuleKnowledge:
        """Incorporate one member answer about ``rule`` and re-classify.

        Registers the rule when unknown (with the given origin),
        stores the observation, re-runs the significance assessment,
        and — when the update settles the rule as support-insignificant
        — propagates that downward to known specializations.
        """
        with self.obs.timer("kb.record"):
            knowledge = self.add_rule(rule, origin)
            knowledge.samples.add(member_id, stats)
            self._version += 1
            self._reassess(knowledge)
            self._push_priority(knowledge)
        return knowledge

    def _set_decision(
        self, knowledge: RuleKnowledge, decision: Decision, *, inferred: bool
    ) -> None:
        """Apply a decision and maintain the derived views."""
        previous = knowledge.decision
        knowledge.decision = decision
        knowledge.inferred = inferred
        if decision is previous:
            return
        self._version += 1
        if previous is Decision.INSIGNIFICANT:
            self._insignificant -= 1
        if decision is Decision.INSIGNIFICANT:
            self._insignificant += 1
        else:
            knowledge.propagated = False
        if decision is Decision.SIGNIFICANT:
            self._newly_significant.append(knowledge.rule)
        if decision.is_final:
            self._unresolved.pop(knowledge.rule, None)
        elif knowledge.rule not in self._unresolved:
            # Direct evidence can reopen a settled rule; it re-enters
            # the unresolved set at its discovery position.
            self._unresolved[knowledge.rule] = knowledge
            self._unresolved_order_dirty = True
            self._push_priority(knowledge)

    def _reassess(self, knowledge: RuleKnowledge) -> None:
        self.obs.count("kb.reassessments")
        summary = self.summary_for(knowledge)
        assessment = self.test.assess(summary)
        knowledge.last_assessment = assessment
        # Direct evidence overrides an inferred decision; an inferred
        # label sticks until direct evidence settles the rule.
        if assessment.decision.is_final:
            self._set_decision(knowledge, assessment.decision, inferred=False)
        elif not knowledge.inferred:
            self._set_decision(knowledge, assessment.decision, inferred=False)
        if (
            self.lattice_pruning
            and knowledge.decision is Decision.INSIGNIFICANT
            and not knowledge.inferred
            and not knowledge.propagated
            and self._support_dead(knowledge)
        ):
            # Gate on "became support-dead and not yet propagated", not
            # on decision *changes*: a rule moving from inferred to
            # directly-evidenced insignificance keeps the same decision
            # yet must still condemn its specializations.
            knowledge.propagated = True
            self._propagate_insignificance(knowledge)

    def purge_member(self, member_id: str) -> int:
        """Release every observation contributed by ``member_id``.

        The quality-control layer calls this when quarantining a member:
        their answers leave the evidence base (reverse-Welford removal,
        no history replay), every touched rule is re-assessed, and a
        rule that was settled on the poisoned evidence reopens — it
        re-enters the unresolved set through the same transition that
        lets direct evidence overturn an inferred decision. Inferred
        condemnations whose source rule reopens are left standing, the
        regular contract: an inferred label sticks until direct
        evidence settles the rule.

        Returns the number of rules that lost an observation.
        """
        purged = 0
        with self.obs.timer("kb.purge"):
            for knowledge in self._rules.values():
                if not knowledge.samples.remove(member_id):
                    continue
                purged += 1
                self._version += 1
                self._reassess(knowledge)
                self._push_priority(knowledge)
        if purged:
            self.obs.count("kb.members_purged")
            self.obs.count("kb.answers_purged", purged)
        return purged

    def reassess_trust_shift(self) -> int:
        """Re-classify every evidenced rule after a trust-weight shift.

        The latent-ability loop calls this when a re-estimation moves
        some member's trust: the aggregator's weights changed under
        every rule at once, so each rule with evidence is re-summarized
        (the version token already invalidates the cached summaries)
        and re-assessed. A rule settled on answers whose authors just
        lost trust reopens through the same transition that lets direct
        evidence overturn a decision; inferred condemnations stick, per
        the regular contract.

        Returns the number of rules whose decision changed.
        """
        changed = 0
        with self.obs.timer("kb.reweight"):
            for knowledge in self._rules.values():
                if knowledge.samples.n == 0:
                    continue
                before = knowledge.decision
                self._reassess(knowledge)
                self._push_priority(knowledge)
                if knowledge.decision is not before:
                    changed += 1
        if changed:
            self.obs.count("kb.trust_reassessed", changed)
        return changed

    def _propagate_insignificance(self, source: RuleKnowledge) -> None:
        """Condemn known, unresolved specializations of a support-dead rule."""
        with self.obs.timer("kb.propagate"):
            for other in self.known_specializations(source.rule):
                if other.is_resolved:
                    continue
                self._set_decision(other, Decision.INSIGNIFICANT, inferred=True)
                self.inferred_classifications += 1
                self.obs.count("kb.inferred")

    # -- reporting ---------------------------------------------------------------------

    def significant_rules(self, mode: str = "point") -> dict[Rule, RuleStats]:
        """The rules the system would report as significant right now.

        Parameters
        ----------
        mode:
            ``"decided"`` — only rules whose decision is settled
            SIGNIFICANT (the conservative, end-of-session answer);
            ``"point"`` — additionally include undecided rules whose
            current point estimate clears both thresholds (the paper's
            anytime answer, used for quality-vs-questions curves).
            Point inclusion still requires the test's minimum sample
            count: a rule one enthusiast mentioned once is a candidate,
            not an answer.
        """
        if mode not in ("decided", "point"):
            raise ValueError(f"unknown report mode: {mode!r}")
        reported: dict[Rule, RuleStats] = {}
        for knowledge in self._rules.values():
            if knowledge.decision is Decision.SIGNIFICANT:
                include = True
            elif mode == "point" and knowledge.decision is Decision.UNDECIDED:
                summary = self.summary_for(knowledge)
                include = (
                    summary.n >= self.test.min_samples
                    and self.test.point_decision(summary) is Decision.SIGNIFICANT
                )
            else:
                include = False
            if include:
                mean = self.summary_for(knowledge).mean
                support = float(min(1.0, max(0.0, mean[0])))
                confidence = float(min(1.0, max(0.0, mean[1])))
                reported[knowledge.rule] = RuleStats(
                    support, max(support, confidence)
                )
        return reported
