"""Crowd simulation substrate.

The answering side of crowd mining: question/answer value objects,
human answer models, open-answer behaviour, and the crowds that are
the *only* interface the mining algorithm may talk to: the one
simulated crowd, :class:`~repro.crowd.crowd.SimulatedCrowd`, which
answers from a population with per-member adversary behaviour as
sparse parameters, and :class:`~repro.crowd.crowd.MemberCrowd`, for
member objects that answer themselves (live text streams).
"""

from repro.crowd.answer_models import (
    LIKERT5,
    AnswerModel,
    ComposedAnswerModel,
    ExactAnswerModel,
    ForgetfulAnswerModel,
    LikertAnswerModel,
    NoisyAnswerModel,
    SpammerAnswerModel,
    coherent_stats,
    standard_answer_model,
)
# Another name for SimulatedCrowd, kept for the benchmark harness
# until its next change (see repro.crowd.array_crowd).
from repro.crowd.array_crowd import ArrayCrowd
from repro.crowd.crowd import CrowdStats, MemberCrowd, SimulatedCrowd
from repro.crowd.partition import CrowdPartition
from repro.crowd.nl import (
    LIKERT_LABELS,
    QuestionRenderer,
    culinary_renderer,
    folk_remedies_renderer,
    travel_renderer,
)
from repro.crowd.open_behavior import HabitPool, OpenAnswerPolicy
from repro.crowd.stream import (
    WORD_TO_VALUE,
    StreamMember,
    garbage_text,
    parse_open_answer,
    parse_stats,
)
from repro.crowd.questions import (
    Answer,
    AnyAnswer,
    ClosedAnswer,
    ClosedQuestion,
    InFlightAnswer,
    MalformedAnswer,
    OpenAnswer,
    OpenQuestion,
)

__all__ = [
    "Answer",
    "AnswerModel",
    "AnyAnswer",
    "ArrayCrowd",
    "ClosedAnswer",
    "ClosedQuestion",
    "ComposedAnswerModel",
    "CrowdPartition",
    "CrowdStats",
    "ExactAnswerModel",
    "ForgetfulAnswerModel",
    "HabitPool",
    "InFlightAnswer",
    "LIKERT5",
    "LIKERT_LABELS",
    "LikertAnswerModel",
    "MalformedAnswer",
    "MemberCrowd",
    "NoisyAnswerModel",
    "OpenAnswer",
    "OpenAnswerPolicy",
    "OpenQuestion",
    "QuestionRenderer",
    "SimulatedCrowd",
    "StreamMember",
    "WORD_TO_VALUE",
    "garbage_text",
    "parse_open_answer",
    "parse_stats",
    "SpammerAnswerModel",
    "coherent_stats",
    "culinary_renderer",
    "folk_remedies_renderer",
    "standard_answer_model",
    "travel_renderer",
]
