"""A checkpoint capture grows with the rules known, not with the answers given.

A served session checkpoints every 25 answers on the shared event loop,
so what one capture pickles sets the served tail latency. The session
keeps its per-answer history as columns and float pairs (the question
log, the sample stores, the streaming estimators), so a capture pickles
a few arrays, lists and tuples for it rather than one object per
answer. These tests count the objects a capture reduces — every object
the pickler hands to a reducer, i.e. everything but plain containers,
strings and numbers — with no timing involved.
"""

import dataclasses
import io
import pickle
from collections import Counter

import pytest

from repro.miner import CrowdMiner
from repro.serve.differential import Scenario, run_session_inprocess
from repro.storage.checkpoint import CHECKPOINT_FORMAT

#: The benchmark's served scenario shape (``served_durable``).
SCENARIO = Scenario(n_members=8, transactions_per_member=40, budget=400)

#: Objects reduced per known rule: the rule, its knowledge record, its
#: sample store, the store's estimator and the latest assessment.
PER_RULE = 5


class _CountingPickler(pickle.Pickler):
    def __init__(self) -> None:
        super().__init__(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL)
        self.reduced: Counter[str] = Counter()

    def reducer_override(self, obj):
        self.reduced[type(obj).__name__] += 1
        return NotImplemented


def _reduced(miner, dispatch) -> Counter:
    """What a capture of ``miner`` in its ``dispatch`` seat reduces, by type name."""
    pickler = _CountingPickler()
    # The document capture_session pickles (before its checksum seal).
    pickler.dump({"format": CHECKPOINT_FORMAT, "miner": miner, "dispatch": dispatch})
    return pickler.reduced


def _drive_to(session, pool, questions: int) -> None:
    while session.miner.questions_asked < questions:
        doc = session.next_question()
        assert doc["status"] == "ok", doc
        question = doc["question"]
        session.post_answer(question["question_id"], pool.answer(question))


@pytest.fixture(scope="module")
def captures():
    """What captures at questions 200 and 400 reduce, with the rules known."""
    session, pool = run_session_inprocess(SCENARIO)
    _drive_to(session, pool, 200)
    early = (_reduced(session.miner, session), len(session.miner.state))
    _drive_to(session, pool, 400)
    late = (_reduced(session.miner, session), len(session.miner.state))
    return early, late


def test_capture_reduces_no_per_answer_objects(captures):
    (early, _), (late, _) = captures
    for reduced in (early, late):
        assert reduced["QuestionEvent"] == 0
        assert reduced["RuleStats"] == 0
        # The one array left is the pool of the miner's random stream
        # (numpy pickles a generator with its seed sequence).
        assert reduced["ndarray"] == reduced["SeedSequence"] == 1


def test_capture_grows_with_rules_known_not_answers_given(captures):
    (early, rules_early), (late, rules_late) = captures
    grown = sum(late.values()) - sum(early.values())
    # 200 more answers, and only the rules they brought in add objects.
    assert grown <= PER_RULE * (rules_late - rules_early)
    assert sum(late.values()) <= PER_RULE * rules_late + 100


@pytest.mark.parametrize("screen", [False, True])
def test_spammer_screening_keeps_no_answer_objects(screen):
    # The latent model behind screening keeps one (support, confidence)
    # pair of floats per answered rule, not the answer's RuleStats.
    scenario = Scenario(
        domain="culinary", n_members=25, budget=400, adversary_mix=(("spammer", 0.2),)
    )
    config = dataclasses.replace(scenario.miner_config(), screen_spammers=screen)
    miner = CrowdMiner(scenario.build_crowd(), config)
    miner.run()
    assert miner.questions_asked == 400
    assert _reduced(miner, None)["RuleStats"] == 0
