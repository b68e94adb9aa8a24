"""The crowd miner: the paper's primary contribution.

Adaptive, error-driven question selection over a crowd of virtual
personal databases, with open-question discovery, three-way
significance classification, and lattice-based inference.
"""

from repro.miner.analysis import MemberLoad, SessionAnalysis, analyze_log, analyze_result
from repro.miner.budgeting import BudgetForecast, RulePlan, forecast_budget, plan_rule, required_samples
from repro.miner.crowdminer import (
    CrowdMiner,
    CrowdMinerConfig,
    QuestionProposal,
    mine_crowd,
)
from repro.miner.explain import explain_report, explain_rule
from repro.miner.open_policy import (
    AdaptiveOpenPolicy,
    FixedRatioPolicy,
    OpenClosedPolicy,
    make_open_policy,
)
from repro.miner.oracle import GroundTruth, compute_ground_truth
from repro.miner.result import MiningResult, QuestionEvent, QuestionKind, QuestionLog
from repro.miner.session import AnswerCache, CacheStats, CachingCrowd, reevaluate
from repro.miner.state import MiningState, RuleIndex, RuleKnowledge, RuleOrigin
from repro.miner.termination import (
    StoppingRule,
    all_of,
    any_of,
    discovery_stalled,
    found_k_significant,
    nothing_settleable,
)
from repro.miner.strategy import (
    STRATEGIES,
    HorizontalStrategy,
    MaxUncertaintyStrategy,
    QuestionStrategy,
    RandomStrategy,
    RoundRobinStrategy,
    make_strategy,
)

__all__ = [
    "AdaptiveOpenPolicy",
    "AnswerCache",
    "BudgetForecast",
    "CacheStats",
    "CachingCrowd",
    "CrowdMiner",
    "CrowdMinerConfig",
    "FixedRatioPolicy",
    "GroundTruth",
    "HorizontalStrategy",
    "MaxUncertaintyStrategy",
    "MemberLoad",
    "SessionAnalysis",
    "StoppingRule",
    "MiningResult",
    "MiningState",
    "OpenClosedPolicy",
    "QuestionEvent",
    "QuestionKind",
    "QuestionLog",
    "QuestionProposal",
    "QuestionStrategy",
    "RandomStrategy",
    "RoundRobinStrategy",
    "RuleIndex",
    "RuleKnowledge",
    "RulePlan",
    "RuleOrigin",
    "all_of",
    "analyze_log",
    "any_of",
    "discovery_stalled",
    "found_k_significant",
    "nothing_settleable",
    "explain_report",
    "explain_rule",
    "forecast_budget",
    "plan_rule",
    "required_samples",
    "analyze_result",
    "reevaluate",
    "STRATEGIES",
    "compute_ground_truth",
    "make_open_policy",
    "make_strategy",
    "mine_crowd",
]
