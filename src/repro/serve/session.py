"""Live mining sessions: the single-writer ingest seam over wall time.

One :class:`ServeSession` wraps one :class:`~repro.miner.crowdminer.
CrowdMiner` over a :class:`~repro.serve.roster.WorkerRoster` and turns
the propose/pose/ingest seam (PR 2) into a pull-model task queue:

- **fetch** (:meth:`next_question`) — the scheduler picks the next
  member (same round-robin the sync loop runs), the miner proposes
  their question, and the session hands it out with a fresh question
  id, holding the proposal in its pending book;
- **post** (:meth:`post_answer`) — the answer document is parsed
  against the held proposal and folded into the knowledge base through
  the *same* ``ingest_answer`` gate every other execution mode uses.

Everything mutating a session runs synchronously between awaits on one
event loop — asyncio's run-to-completion atomicity is the concurrency
story, there are no locks to hold or forget. The miner remains a
single-writer ingest stream exactly as under the dispatcher; many
*sessions* run concurrently, one event loop serving them all.

Equivalence posture (pinned by ``tests/serve/test_differential*.py``):
a session driven sequentially — fetch, answer, fetch, answer — issues
the same member sequence, consumes the miner's RNG at the same points,
charges budget at the same instants, and ends for the same reasons as
``miner.run()`` over a simulated crowd, so the final KB fingerprints
are byte-identical. The serve-specific bookkeeping (question ids, the
pending book, timeout retries) deliberately consumes no randomness.

Durability: sessions checkpoint through :mod:`repro.storage` like any
other execution mode. The session registers itself as the miner's
``dispatcher`` so mid-ingest checkpoint requests defer to the answer
boundary, and the session itself rides in the checkpoint pickle. It
pickles without its wall clock, and the pending book (questions handed
out but unanswered at the instant of capture) pickles as re-offers:
after resume each is handed out again with the same question id,
member and proposal, so a client replaying answers cannot tell the
restart happened. Abandoned proposals already consumed miner RNG;
re-offering instead of re-proposing is what keeps the post-resume
stream byte-identical.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError, CrowdExhaustedError, ReproError
from repro.estimation.significance import Thresholds
from repro.miner.crowdminer import (
    CrowdMiner,
    CrowdMinerConfig,
    Discard,
    QuestionProposal,
)
from repro.miner.result import MiningResult, QuestionKind
from repro.serve.clock import RealTimeClock
from repro.serve.roster import WorkerRoster
from repro.serve.wire import answer_from_doc, question_to_doc
from repro.storage.records import rule_from_key, rule_key


class ServeError(ReproError):
    """A serving-surface request could not be satisfied."""


#: Session ids double as checkpoint file stems; keep them path-safe.
_SESSION_ID = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Every field a session spec may carry. Anything else is refused: a
#: misspelt or retired field would otherwise be silently ignored and the
#: client would get a session it did not ask for.
_SPEC_FIELDS = frozenset(
    {
        "id",
        "members",
        "n_members",
        "support",
        "confidence",
        "budget",
        "seed",
        "seed_rules",
        "checkpoint_every",
        "quarantine",
        "reestimate_every",
        "contextual_open_fraction",
        "timeout",
        "max_retries",
        "max_outstanding",
    }
)

#: The outcome counters of one serve session (see
#: :meth:`ServeSession.stats`). Every issue — reissues of timed-out
#: questions included, exactly as in the dispatcher's books — meets
#: one fate::
#:
#:     issued == answered + stale + malformed + rejected + gone
#:               + timeouts + outstanding
#:     timeouts == retried + dropped + retry_queued
#:
#: ``dedup_hits`` and ``backpressured`` sit *outside* the books: a
#: deduplicated replay touched nothing, a backpressure rejection
#: issued nothing — both count traffic, not question fates.
_COUNTERS = (
    "issued",
    "answered",
    "timeouts",
    "retried",
    "dropped",
    "stale",
    "malformed",
    "rejected",
    "gone",
    "unknown",
    "dedup_hits",
    "backpressured",
)

#: FIFO cap on each session's idempotency-key dedup table. Generous —
#: a session's whole question budget typically fits — but bounded, so
#: a client inventing endless keys cannot grow the checkpoint pickle
#: without limit.
_DEDUP_CAP = 4096


@dataclass(slots=True)
class ServeConfig:
    """Per-session serving knobs (wall-time behaviour only).

    ``timeout`` is wall seconds before a fetched-but-unanswered
    question is reclaimed and queued for reassignment (``None`` waits
    forever — the deterministic-test default); ``max_retries`` bounds
    reissues of one reclaimed question before it is dropped.
    ``max_outstanding`` bounds the hand-out queue: fetches beyond it
    are rejected with 429 + ``Retry-After`` (overload backpressure;
    ``0`` disables the bound).
    """

    timeout: float | None = None
    max_retries: int = 2
    max_outstanding: int = 0

    def __post_init__(self) -> None:
        if self.timeout is not None and not self.timeout > 0:
            raise ConfigurationError(
                f"timeout must be positive (or None), got {self.timeout!r}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be non-negative, got {self.max_retries!r}"
            )
        if self.max_outstanding < 0:
            raise ConfigurationError(
                f"max_outstanding must be non-negative, got {self.max_outstanding!r}"
            )


@dataclass(slots=True)
class _Issued:
    """One handed-out question awaiting its answer."""

    question_id: str
    proposal: QuestionProposal
    attempt: int
    timeout_event: Any = None


class ServeSession:
    """One live mining session behind the task-queue API."""

    def __init__(
        self,
        session_id: str,
        miner: CrowdMiner,
        clock: RealTimeClock,
        config: ServeConfig | None = None,
    ) -> None:
        self.session_id = session_id
        self.miner = miner
        self.clock = clock
        self.config = config or ServeConfig()
        # The dispatcher seat: mid-ingest checkpoint requests defer to
        # the answer boundary, and checkpoint capture pickles this
        # session through this back-reference.
        miner.dispatcher = self
        self._pending: dict[str, _Issued] = {}  # insertion order == issue order
        self._reoffer: deque[_Issued] = deque()  # restored, to re-offer verbatim
        self._retry: deque[tuple[QuestionProposal, int]] = deque()
        self._next_qid = 1
        self._issued = 0
        self._answered = 0
        self._timeouts = 0
        self._retried = 0
        self._dropped = 0
        self._stale = 0
        self._malformed = 0
        self._rejected = 0
        self._gone = 0
        self._unknown = 0
        self._dedup_hits = 0
        self._backpressured = 0
        #: Idempotency-key → stored response (insertion-ordered FIFO).
        self._dedup: dict[str, dict[str, Any]] = {}
        #: Mirrors the sync loop's end conditions: ``_stalled`` is the
        #: "propose_question returned None" outcome, ``_dry_attempts``
        #: counts consecutive no-evidence exchanges (malformed answers,
        #: vanished members) — a full crowd round of them ends the
        #: session, exactly like ``step()`` returning ``None``.
        self._stalled = False
        self._dry_attempts = 0
        self.draining = False
        self._checkpoint_requested = False

    # -- progress --------------------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Questions handed out (or held for re-offer) awaiting answers."""
        return len(self._pending) + len(self._reoffer)

    @property
    def overloaded(self) -> bool:
        """True when the hand-out queue is at its backpressure bound."""
        bound = self.config.max_outstanding
        return bound > 0 and self.outstanding >= bound

    def count_backpressure(self) -> None:
        """Record one fetch rejected for overload (books untouched)."""
        self._backpressured += 1
        self.miner.obs.count("serve.backpressure_rejections")

    @property
    def is_done(self) -> bool:
        """True when the session can neither issue nor ingest anything."""
        if self._pending or self._reoffer or self._retry:
            return False
        if self.miner.budget_left <= 0:
            return True
        if self._stalled:
            return True
        if self._dry_attempts >= max(1, len(self.miner.crowd)):
            return True
        return self.miner.is_done

    def stats(self) -> dict[str, int]:
        """The outcome counters (see the books invariant above)."""
        counters = {name: getattr(self, f"_{name}") for name in _COUNTERS}
        counters["outstanding"] = self.outstanding
        return counters

    def status_doc(self) -> dict[str, Any]:
        """The session's public status document."""
        miner = self.miner
        return {
            "session": self.session_id,
            "done": self.is_done,
            "draining": self.draining,
            "questions_asked": miner.questions_asked,
            "budget": miner.config.budget,
            "budget_left": miner.budget_left,
            "rules_known": len(miner.state),
            "members": len(miner.crowd),
            "members_available": miner.crowd.available_count(),
            "serve": self.stats(),
        }

    def kb_doc(self, top: int | None = None) -> dict[str, Any]:
        """The knowledge base's significant rules, wire-encoded."""
        significant = self.miner.state.significant_rules(mode="decided")
        ranked = sorted(
            significant.items(),
            key=lambda kv: (-kv[1].support, -kv[1].confidence, str(kv[0])),
        )
        if top is not None:
            ranked = ranked[:top]
        return {
            "session": self.session_id,
            "rules_known": len(self.miner.state),
            "significant": [
                {
                    "rule": rule_key(rule),
                    "display": str(rule),
                    "support": stats.support,
                    "confidence": stats.confidence,
                }
                for rule, stats in ranked
            ],
        }

    def result(self) -> MiningResult:
        """The miner's result snapshot (fingerprintable)."""
        return self.miner.result()

    # -- exactly-once ----------------------------------------------------------

    def _dedup_get(self, key: str | None) -> dict[str, Any] | None:
        """The stored response for ``key``, counting the hit."""
        if key is None:
            return None
        stored = self._dedup.get(key)
        if stored is not None:
            self._dedup_hits += 1
            self.miner.obs.count("serve.dedup_hits")
        return stored

    def knows_key(self, key: str | None) -> bool:
        """True when ``key`` already has a stored response.

        The backpressure gate consults this: a replayed fetch whose
        original already issued must sail through a full queue — its
        replay costs nothing, and rejecting it would wedge a client
        that never saw the first response.
        """
        return key is not None and key in self._dedup

    def _dedup_put(self, key: str | None, doc: dict[str, Any]) -> None:
        if key is None:
            return
        while len(self._dedup) >= _DEDUP_CAP:
            self._dedup.pop(next(iter(self._dedup)))
        self._dedup[key] = doc

    # -- fetch -----------------------------------------------------------------

    def next_question(self, idempotency_key: str | None = None) -> dict[str, Any]:
        """Hand out the next question, or report why there is none.

        Returns ``{"status": "ok", "question": {...}}`` on a hand-out;
        ``{"status": "wait"}`` when nothing can be issued *right now*
        (all free members busy, budget fully reserved by in-flight
        questions); ``{"status": "done"}`` / ``{"status": "draining"}``
        when the session is over or shutting down.

        ``idempotency_key`` makes the fetch exactly-once across
        transport retries: a key that already handed out a question
        returns *that* hand-out verbatim instead of issuing a second
        one — the client never saw the lost response, and without the
        replay its question would sit outstanding forever while a
        duplicate consumed another member slot. Only ``"ok"``
        hand-outs are stored; ``"wait"``/``"done"`` polls re-evaluate
        freely.
        """
        replay = self._dedup_get(idempotency_key)
        if replay is not None:
            return replay
        if self.draining:
            return {"status": "draining"}
        if self._reoffer:
            # A question restored from a checkpoint: same id, same
            # member, same proposal — the hand-out before the restart,
            # replayed verbatim.
            entry = self._reoffer.popleft()
            self._pending[entry.question_id] = entry
            self._arm_timeout(entry)
            doc = {"status": "ok", "question": self._question_doc(entry)}
            self._dedup_put(idempotency_key, doc)
            return doc
        if self._retry and self.miner.budget_left <= 0:
            # A spent budget can charge no reissue, and a queued retry
            # would keep the session from ever reporting done: drop
            # them, as the dispatcher drops a retry on a spent budget.
            self._dropped += len(self._retry)
            self.miner.obs.count("serve.dropped", len(self._retry))
            self._retry.clear()
        if self.is_done:
            return {"status": "done", "state": self.status_doc()}
        if self.miner.budget_left - len(self._pending) <= 0:
            # Every remaining budget slot is reserved by an in-flight
            # question; issuing more could overspend. Slots free up
            # when answers turn out malformed/stale or members vanish.
            return {"status": "wait", "reason": "budget reserved in flight"}
        busy = {entry.proposal.member_id for entry in self._pending.values()}
        try:
            member_id = self.miner.crowd.next_member(exclude=busy)
        except CrowdExhaustedError:
            return self._nothing_to_issue()
        if member_id is None:
            return {"status": "wait", "reason": "all available members busy"}
        entry = self._next_for_member(member_id)
        if entry is None:
            return self._nothing_to_issue()
        self._pending[entry.question_id] = entry
        self._issued += 1
        if entry.attempt > 0:
            self._retried += 1
            self.miner.obs.count("serve.retries")
        self.miner.obs.count("serve.issued")
        self._arm_timeout(entry)
        doc = {"status": "ok", "question": self._question_doc(entry)}
        self._dedup_put(idempotency_key, doc)
        return doc

    def _next_for_member(self, member_id: str) -> _Issued | None:
        """A reclaimed question for ``member_id``, or a fresh proposal."""
        while self._retry:
            proposal, attempt = self._retry[0]
            if self.miner.proposal_is_stale(proposal):
                self._retry.popleft()
                self._dropped += 1
                self.miner.obs.count("serve.dropped")
                continue
            if (
                proposal.kind is QuestionKind.CLOSED
                and proposal.rule is not None
                and self.miner.state.knowledge(proposal.rule).samples.has_answer_from(
                    member_id
                )
            ):
                # This member's answer for the rule is already counted;
                # leave the retry queued for somebody else and give
                # this member a fresh question instead.
                break
            self._retry.popleft()
            reissued = replace(
                proposal,
                member_id=member_id,
                kb_version=self.miner.state.version,
            )
            return self._new_entry(reissued, attempt)
        proposal = self.miner.propose_question(member_id)
        if proposal is None:
            self._stalled = True
            return None
        return self._new_entry(proposal, 0)

    def _new_entry(self, proposal: QuestionProposal, attempt: int) -> _Issued:
        question_id = f"q{self._next_qid}"
        self._next_qid += 1
        return _Issued(question_id=question_id, proposal=proposal, attempt=attempt)

    def _question_doc(self, entry: _Issued) -> dict[str, Any]:
        exclude = None
        if entry.proposal.kind is QuestionKind.OPEN:
            exclude = self.miner.open_question_exclude()
        return question_to_doc(entry.question_id, entry.proposal, exclude=exclude)

    def _nothing_to_issue(self) -> dict[str, Any]:
        if self.outstanding or self._retry:
            return {"status": "wait", "reason": "waiting on outstanding answers"}
        return {"status": "done", "state": self.status_doc()}

    # -- post ------------------------------------------------------------------

    def post_answer(
        self,
        question_id: str,
        doc: dict[str, Any],
        idempotency_key: str | None = None,
    ) -> dict[str, Any]:
        """Ingest one answer document against its handed-out question.

        Unknown (or already-settled) question ids are acknowledged and
        dropped — a client retrying a post after a connection hiccup
        must not double-count an answer. The entry leaves the pending
        book *before* ingest, so a checkpoint fired from inside
        ``_finish_step`` never captures (and later re-offers) a
        question whose answer is already in the knowledge base.

        ``idempotency_key`` upgrades retry-safety from "harmless" to
        exactly-once: a replayed post returns the original outcome
        document instead of an ``unknown`` acknowledgement, so the
        client can distinguish "my answer counted, the response was
        lost" from "I posted garbage".
        """
        replay = self._dedup_get(idempotency_key)
        if replay is not None:
            return replay
        entry = self._pending.pop(question_id, None)
        if entry is None:
            self._unknown += 1
            return {"status": "unknown", "question_id": question_id}
        if entry.timeout_event is not None:
            entry.timeout_event.cancel()
        proposal = entry.proposal
        if not isinstance(doc, dict):
            doc = {"malformed": {"text": repr(doc), "error": "not a JSON object"}}
        if doc.get("gone"):
            # The member left instead of answering (the live analogue
            # of pose() raising CrowdExhaustedError): no budget spent,
            # stop routing to them, count the dry attempt.
            self._gone += 1
            self._dry_attempts += 1
            self.miner.obs.count("serve.gone")
            self._depart(proposal.member_id)
            outcome = {"status": "gone", "state": self.status_doc()}
            self._dedup_put(idempotency_key, outcome)
            self._maybe_checkpoint()
            return outcome
        answer = answer_from_doc(proposal, doc)
        event = self.miner.ingest_answer(proposal, answer)
        if event is not None:
            self._answered += 1
            self._stalled = False
            self._dry_attempts = 0
            status = "counted"
        else:
            discard = self.miner.last_discard
            assert discard is not None
            status = discard.value
            if discard is Discard.MALFORMED:
                self._malformed += 1
                self._dry_attempts += 1
            elif discard is Discard.REJECTED:
                self._rejected += 1
                self._dry_attempts += 1
            else:
                self._stale += 1
        if doc.get("leaving"):
            # "That was my last answer": the answer above still counts
            # (exactly like a simulated member's final ask before their
            # patience flips), but the member leaves the rotation.
            self._depart(proposal.member_id)
        outcome = {"status": status, "state": self.status_doc()}
        # Store before the deferred checkpoint fires: the dedup entry
        # must ride in the same checkpoint as the answer it covers.
        self._dedup_put(idempotency_key, outcome)
        self._maybe_checkpoint()
        return outcome

    def _depart(self, member_id: str) -> None:
        depart = getattr(self.miner.crowd, "depart", None)
        if depart is not None:
            depart(member_id)

    # -- timeouts --------------------------------------------------------------

    def _arm_timeout(self, entry: _Issued) -> None:
        if self.config.timeout is None:
            return
        entry.timeout_event = self.clock.schedule(
            self.config.timeout, partial(self._on_timeout, entry.question_id)
        )

    def _on_timeout(self, question_id: str) -> None:
        entry = self._pending.pop(question_id, None)
        if entry is None:
            return  # answered at the same instant
        self._timeouts += 1
        self.miner.obs.count("serve.timeouts")
        attempt = entry.attempt + 1
        if attempt > self.config.max_retries or self.miner.proposal_is_stale(
            entry.proposal
        ):
            self._dropped += 1
            self.miner.obs.count("serve.dropped")
        else:
            self._retry.append((entry.proposal, attempt))

    # -- checkpointing ---------------------------------------------------------

    def request_checkpoint(self) -> None:
        """Defer a mid-ingest checkpoint to the answer boundary."""
        self._checkpoint_requested = True

    def _maybe_checkpoint(self) -> None:
        if self._checkpoint_requested:
            self._checkpoint_requested = False
            self.miner.checkpoint()

    def __getstate__(self) -> dict[str, Any]:
        """The session as it rides in a checkpoint pickle.

        The wall clock stays behind (the resuming manager attaches its
        own), and every question handed out or held for re-offer pickles
        as a re-offer without its timeout: the next fetches after resume
        hand them out again verbatim (id, member, proposal), so the
        post-resume answer stream lines up byte-for-byte with the
        uninterrupted run. A drain or a pending checkpoint request
        belongs to the process that captured, not to the resumed one.
        """
        state = self.__dict__.copy()
        state["clock"] = None
        state["_reoffer"] = deque(
            _Issued(entry.question_id, entry.proposal, entry.attempt)
            for entry in (*self._reoffer, *self._pending.values())
        )
        state["_pending"] = {}
        state["draining"] = False
        state["_checkpoint_requested"] = False
        return state

    def drain(self):
        """Stop issuing, cancel timeouts, capture the final checkpoint.

        Outstanding questions stay in the book and ride into the
        checkpoint as re-offers; their answers, if a client still posts
        them to *this* process, are accepted until shutdown completes.
        Returns the checkpoint info (``None`` for ephemeral sessions).
        """
        self.draining = True
        for entry in self._pending.values():
            if entry.timeout_event is not None:
                entry.timeout_event.cancel()
                entry.timeout_event = None
        return self.miner.checkpoint()


# -- the manager ---------------------------------------------------------------


class SessionManager:
    """All live sessions behind one server: create, resume, drain.

    ``data_dir`` makes sessions durable — each gets its own WAL-mode
    SQLite store at ``<data_dir>/<session_id>.db`` and
    :meth:`resume_all` rebuilds every session found there. Without it
    sessions are ephemeral (gone with the process).
    """

    def __init__(
        self,
        data_dir: str | Path | None = None,
        clock: RealTimeClock | None = None,
        storage_wrapper: Any = None,
    ) -> None:
        self.clock = clock or RealTimeClock()
        self.data_dir = None if data_dir is None else Path(data_dir)
        if self.data_dir is not None:
            self.data_dir.mkdir(parents=True, exist_ok=True)
        self.sessions: dict[str, ServeSession] = {}
        self._auto_id = 0
        #: Chaos seam: a callable wrapping every opened backend (the
        #: chaos harness injects ``FaultyBackend`` here; ``None`` in
        #: production).
        self._storage_wrapper = storage_wrapper

    def _open_storage(self, path: Path, *, resume: bool = False) -> Any:
        from repro.storage import open_backend

        storage = open_backend(path, "sqlite", resume=resume)
        if self._storage_wrapper is not None:
            storage = self._storage_wrapper(storage)
        return storage

    # -- lifecycle -------------------------------------------------------------

    def create(self, doc: dict[str, Any]) -> ServeSession:
        """Create one session from its wire document.

        Required: ``members`` (list of ids) *or* ``n_members`` (ids
        ``w0..wN-1``), ``support``, ``confidence``. Optional: ``id``,
        ``budget``, ``seed``, ``checkpoint_every``, ``quarantine`` (a
        JSON boolean), ``reestimate_every``, ``timeout``,
        ``max_retries``, ``max_outstanding`` (questions in flight
        before fetches get 429; 0, the default, means unbounded),
        ``seed_rules`` (list of rule keys),
        ``contextual_open_fraction``. Any other field, or a
        non-boolean ``quarantine``, raises :class:`ServeError`.
        """
        if not isinstance(doc, dict):
            raise ServeError("session spec must be a JSON object")
        unknown = set(doc) - _SPEC_FIELDS
        if unknown:
            raise ServeError(
                "unknown session spec field(s): "
                + ", ".join(sorted(map(str, unknown)))
            )
        quarantine = doc.get("quarantine", False)
        if not isinstance(quarantine, bool):
            raise ServeError(f"quarantine must be a boolean, got {quarantine!r}")
        session_id = doc.get("id")
        if session_id is None:
            self._auto_id += 1
            session_id = f"s{self._auto_id}"
            while session_id in self.sessions:
                self._auto_id += 1
                session_id = f"s{self._auto_id}"
        if not isinstance(session_id, str) or not _SESSION_ID.match(session_id):
            raise ServeError(
                f"invalid session id {session_id!r} "
                "(letters, digits, '._-', max 64 chars)"
            )
        if session_id in self.sessions:
            raise ServeError(f"session {session_id!r} already exists")
        members = doc.get("members")
        if members is None:
            n = doc.get("n_members")
            if not isinstance(n, int) or n < 1:
                raise ServeError("pass members (list of ids) or n_members (int ≥ 1)")
            members = [f"w{i}" for i in range(n)]
        if not isinstance(members, list) or not all(
            isinstance(m, str) for m in members
        ):
            raise ServeError("members must be a list of id strings")
        try:
            seed_rules = tuple(
                rule_from_key(key) for key in doc.get("seed_rules", ())
            )
            miner_config = CrowdMinerConfig(
                thresholds=Thresholds(
                    float(doc["support"]), float(doc["confidence"])
                ),
                budget=int(doc.get("budget", 1_000)),
                quarantine=quarantine,
                reestimate_every=int(doc.get("reestimate_every", 10)),
                contextual_open_fraction=float(
                    doc.get("contextual_open_fraction", 0.0)
                ),
                checkpoint_every=(
                    int(doc.get("checkpoint_every", 25))
                    if self.data_dir is not None
                    else 0
                ),
                seed_rules=seed_rules,
                seed=int(doc.get("seed", 0)),
            )
            serve_config = ServeConfig(
                timeout=(
                    None if doc.get("timeout") is None else float(doc["timeout"])
                ),
                max_retries=int(doc.get("max_retries", 2)),
                max_outstanding=int(doc.get("max_outstanding", 0)),
            )
            roster = WorkerRoster(members)
        except (KeyError, TypeError, ValueError, ReproError) as exc:
            raise ServeError(f"bad session spec: {exc}") from exc
        storage = None
        if self.data_dir is not None:
            storage = self._open_storage(self.data_dir / f"{session_id}.db")
        miner = CrowdMiner(roster, miner_config, storage=storage)
        session = ServeSession(
            session_id, miner, self.clock, config=serve_config
        )
        self.sessions[session_id] = session
        return session

    def resume_all(self, repair: bool = False) -> list[str]:
        """Rebuild every checkpointed session under ``data_dir``.

        ``repair=True`` scrubs each store on open and falls back to
        its last verified checkpoint (see
        :func:`repro.storage.checkpoint.load_session`); without it a
        corrupt latest checkpoint refuses the whole resume.

        All or nothing: when any store fails to open or load, every
        store this call opened is closed, no session is added, and the
        error propagates.
        """
        if self.data_dir is None:
            raise ServeError("resume requires a data directory")
        from repro.storage import load_session

        opened = []
        resumed: list[ServeSession] = []
        try:
            for path in sorted(self.data_dir.glob("*.db")):
                storage = self._open_storage(path, resume=True)
                opened.append(storage)
                _miner, session, _info = load_session(storage, repair=repair)
                if not isinstance(session, ServeSession):
                    raise ServeError(
                        f"{path.name} is not a serve-session store; "
                        "resume it with `repro mine --resume` instead"
                    )
                resumed.append(session)
        except BaseException:
            for storage in opened:
                storage.close()
            raise
        for session in resumed:
            session.clock = self.clock
            self.sessions[session.session_id] = session
        return [session.session_id for session in resumed]

    def get(self, session_id: str) -> ServeSession:
        session = self.sessions.get(session_id)
        if session is None:
            raise KeyError(session_id)
        return session

    def delete(self, session_id: str) -> None:
        """Drain one session, close its storage, forget it."""
        session = self.sessions.pop(session_id)
        session.drain()
        if session.miner.storage is not None:
            session.miner.storage.close()

    def drain_all(self) -> int:
        """Final-checkpoint every session and close storages; count drained."""
        drained = 0
        for session in self.sessions.values():
            session.drain()
            if session.miner.storage is not None:
                session.miner.storage.close()
                session.miner.storage = None
            drained += 1
        return drained

    def abort_all(self) -> None:
        """Simulated process death: NO drain, NO final checkpoint.

        Every storage is told to discard its uncommitted batch (the
        exact state a SIGKILL leaves on disk) and the sessions are
        forgotten. The chaos harness crashes a live server with this,
        then proves ``resume_all`` rebuilds an equivalent world.
        """
        for session in self.sessions.values():
            storage = session.miner.storage
            if storage is not None:
                storage.abort()
                session.miner.storage = None
        self.sessions.clear()

    def list_doc(self) -> dict[str, Any]:
        return {
            "sessions": [
                session.status_doc() for session in self.sessions.values()
            ]
        }


__all__ = [
    "ServeConfig",
    "ServeError",
    "ServeSession",
    "SessionManager",
]
