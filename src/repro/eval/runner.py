"""The experiment runner: configured, repeated, checkpointed sessions.

One :class:`ExperimentConfig` describes a complete synthetic
experiment: the population (latent model parameters), the crowd's
answer behaviour, the query, and the miner configuration — plus the
checkpoint grid and repetition count. :func:`run_experiment` executes
it and returns averaged quality curves; :func:`run_variants` sweeps a
set of config overrides (the typical shape of every figure in the
evaluation: one curve per strategy / ratio / noise level / crowd size).
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro._util import as_rng, check_positive
from repro.crowd.answer_models import (
    AnswerModel,
    ComposedAnswerModel,
    ExactAnswerModel,
    LikertAnswerModel,
    NoisyAnswerModel,
)
from repro.crowd.crowd import SimulatedCrowd
from repro.crowd.open_behavior import OpenAnswerPolicy
from repro.errors import ConfigurationError
from repro.estimation.significance import Thresholds
from repro.eval.metrics import (
    QualityCurve,
    TimedCurve,
    TimedPoint,
    average_curves,
    precision_recall,
    score_report,
)
from repro.miner.crowdminer import CrowdMiner, CrowdMinerConfig
from repro.miner.open_policy import make_open_policy
from repro.miner.oracle import GroundTruth, compute_ground_truth
from repro.miner.strategy import make_strategy
from repro.obs import Instrumentation, ObsSnapshot
from repro.synth.array_population import ArrayPopulation
from repro.synth.factories import random_domain, random_habit_model
from repro.synth.latent import LatentHabitModel
from repro.synth.population import Population, build_population

if TYPE_CHECKING:  # the dispatch package imports the miner, never the reverse
    from repro.dispatch.dispatcher import DispatchConfig


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Everything one synthetic experiment needs.

    Population and crowd knobs map one-to-one onto the axes the
    evaluation sweeps (see ``DESIGN.md`` §4).
    """

    name: str = "experiment"
    # population
    n_items: int = 120
    n_patterns: int = 20
    n_members: int = 40
    transactions_per_member: int = 200
    background_rate: float = 0.01
    # crowd behaviour
    answer_sigma: float = 0.05
    likert: bool = True
    patience: int | None = None
    #: Adversary mix as ``(role, fraction)`` pairs (see
    #: :func:`repro.faults.parse_adversary_mix`); empty = honest crowd,
    #: built byte-identically to the pre-robustness harness.
    adversary_mix: tuple[tuple[str, float], ...] = ()
    # quality control (forwarded to the miner)
    quarantine: bool = False
    trust_floor: float = 0.45
    quarantine_min_answers: int = 4
    reestimate_every: int = 10
    # query
    support_threshold: float = 0.10
    confidence_threshold: float = 0.50
    # miner
    budget: int = 1_000
    strategy: str = "crowdminer"
    open_policy: str | float = "adaptive"
    min_samples: int = 5
    decision_confidence: float = 0.9
    use_covariance: bool = True
    lattice_pruning: bool = True
    expand_generalizations: bool = True
    expand_splits: bool = True
    # harness
    checkpoints: tuple[int, ...] = (100, 200, 400, 600, 800, 1_000)
    repetitions: int = 3
    seed: int = 0
    max_body_size: int = 4
    # persistence (see repro.storage / docs/persistence.md): when
    # ``checkpoint_path`` is set, sessions keep a write-ahead answer log
    # there and capture a whole-session checkpoint every
    # ``checkpoint_every`` questions — a killed run resumes via
    # :func:`resume_session` with a byte-identical final summary.
    checkpoint_path: str | None = None
    checkpoint_every: int = 0
    # scale (see docs/scaling.md): "array" backs the population with
    # columnar state instead of one personal database per member, and
    # ``shards`` splits dispatched sessions over that many crowd
    # partitions.
    population_backend: str = "object"
    shards: int = 1

    def __post_init__(self) -> None:
        check_positive(self.budget, "budget")
        check_positive(self.repetitions, "repetitions")
        check_positive(self.shards, "shards")
        if self.population_backend not in ("object", "array"):
            raise ConfigurationError(
                f"unknown population backend {self.population_backend!r} "
                "(expected 'object' or 'array')"
            )
        if not self.checkpoints:
            raise ConfigurationError("at least one checkpoint is required")
        if any(c <= 0 for c in self.checkpoints):
            raise ConfigurationError("checkpoints must be positive")
        if list(self.checkpoints) != sorted(self.checkpoints):
            raise ConfigurationError("checkpoints must be ascending")
        if max(self.checkpoints) > self.budget:
            raise ConfigurationError("checkpoints cannot exceed the budget")

    def thresholds(self) -> Thresholds:
        """The query thresholds as a value object."""
        return Thresholds(self.support_threshold, self.confidence_threshold)

    def answer_model(self) -> AnswerModel:
        """The member answer model implied by the noise knobs."""
        stages: list[AnswerModel] = []
        if self.answer_sigma > 0:
            stages.append(NoisyAnswerModel(self.answer_sigma))
        if self.likert:
            stages.append(LikertAnswerModel())
        if not stages:
            return ExactAnswerModel()
        if len(stages) == 1:
            return stages[0]
        return ComposedAnswerModel(stages)


@dataclass(frozen=True, slots=True)
class RepetitionOutcome:
    """Everything measured in a single repetition.

    ``obs`` carries the session's instrumentation snapshot — the
    knowledge-base and main-loop counters/timers plus the runner's own
    per-phase timers (``runner.mine``, ``runner.score``) — so harness
    runs expose where the wall-clock went.
    """

    curve: QualityCurve
    truth_size: int
    rules_discovered: int
    inferred_classifications: int
    open_questions: int
    wall_seconds: float
    obs: ObsSnapshot | None = None


@dataclass(frozen=True, slots=True)
class ExperimentResult:
    """Averaged outcome of one experiment."""

    config: ExperimentConfig
    curve: QualityCurve
    repetitions: tuple[RepetitionOutcome, ...]

    @property
    def mean_truth_size(self) -> float:
        """Average ground-truth size across repetitions."""
        return float(np.mean([r.truth_size for r in self.repetitions]))

    @property
    def mean_wall_seconds(self) -> float:
        """Average wall-clock time per repetition."""
        return float(np.mean([r.wall_seconds for r in self.repetitions]))


def build_world(
    config: ExperimentConfig, seed: int, ground_truth: bool = True
) -> tuple[LatentHabitModel, Population | ArrayPopulation, GroundTruth | None]:
    """Build one repetition's model, population and oracle.

    With ``population_backend="array"`` the population is columnar
    (its layout — and hence its random stream — differs from the
    object path's; array experiments are a scale axis, not a replay of
    object ones). ``ground_truth=False`` skips the oracle — at array
    scale computing it means scanning every member's transactions,
    which is exactly the cost the backend exists to avoid.
    """
    rng = as_rng(seed)
    domain = random_domain(config.n_items, seed=rng)
    model = random_habit_model(
        domain,
        config.n_patterns,
        seed=rng,
        background_rate=config.background_rate,
    )
    population: Population | ArrayPopulation
    if config.population_backend == "array":
        population = ArrayPopulation(
            model,
            config.n_members,
            config.transactions_per_member,
            seed=rng,
        )
    else:
        population = build_population(
            model,
            config.n_members,
            config.transactions_per_member,
            seed=rng,
        )
    truth = None
    if ground_truth:
        truth = compute_ground_truth(
            population, config.thresholds(), max_body_size=config.max_body_size
        )
    return model, population, truth


def build_crowd(
    config: ExperimentConfig,
    population: Population | ArrayPopulation,
    rng: np.random.Generator,
) -> SimulatedCrowd:
    """The session's crowd, honest or adversarial per the config.

    With an empty ``adversary_mix`` every member answers through the
    config's one answer model, drawing exactly the pre-robustness
    random stream; with a mix it delegates to
    :func:`repro.faults.build_adversarial_crowd`. Either kind of
    population backs the one simulated crowd.
    """
    open_policy = OpenAnswerPolicy(max_body_size=config.max_body_size)
    if not config.adversary_mix:
        return SimulatedCrowd(
            population,
            answer_model=config.answer_model(),
            open_policy=open_policy,
            patience=config.patience,
            seed=rng,
        )
    from repro.faults import build_adversarial_crowd

    crowd, _ = build_adversarial_crowd(
        population,
        config.adversary_mix,
        answer_model=config.answer_model(),
        open_policy=open_policy,
        patience=config.patience,
        seed=rng,
    )
    return crowd


def _miner_config(config: ExperimentConfig, rng: np.random.Generator) -> CrowdMinerConfig:
    return CrowdMinerConfig(
        thresholds=config.thresholds(),
        budget=config.budget,
        strategy=make_strategy(config.strategy),
        open_policy=make_open_policy(config.open_policy),
        min_samples=config.min_samples,
        decision_confidence=config.decision_confidence,
        use_covariance=config.use_covariance,
        lattice_pruning=config.lattice_pruning,
        expand_generalizations=config.expand_generalizations,
        expand_splits=config.expand_splits,
        quarantine=config.quarantine,
        trust_floor=config.trust_floor,
        quarantine_min_answers=config.quarantine_min_answers,
        reestimate_every=config.reestimate_every,
        checkpoint_every=config.checkpoint_every,
        seed=rng,
    )


def _score_session(
    config: ExperimentConfig,
    miner: CrowdMiner,
    truth: GroundTruth,
    grid: tuple[int, ...],
) -> RepetitionOutcome:
    """Mine to each question count of ``grid`` and score the report there.

    The miner's instrumentation times the runner's own phases: mining
    steps vs. checkpoint scoring. A session that ends early repeats its
    final quality at the remaining grid points.
    """
    obs = miner.obs
    points = []
    started = time.perf_counter()
    for checkpoint in grid:
        with obs.timer("runner.mine"):
            while miner.questions_asked < checkpoint and not miner.is_done:
                if miner.step() is None:
                    break
        with obs.timer("runner.score"):
            reported = miner.state.significant_rules(mode="point")
            points.append(score_report(reported, truth, miner.questions_asked))
    elapsed = time.perf_counter() - started

    normalized = tuple(
        replace(point, questions=checkpoint) for checkpoint, point in zip(grid, points)
    )
    result = miner.result()
    return RepetitionOutcome(
        curve=QualityCurve(label=config.name, points=normalized),
        truth_size=len(truth),
        rules_discovered=result.rules_discovered,
        inferred_classifications=result.inferred_classifications,
        open_questions=result.open_questions,
        wall_seconds=elapsed,
        obs=result.obs,
    )


def run_session(
    config: ExperimentConfig,
    population: Population,
    truth: GroundTruth,
    seed: int,
    obs: Instrumentation | None = None,
) -> RepetitionOutcome:
    """Run one mining session and measure it at every checkpoint.

    ``obs`` (a fresh instance when not given) is shared with the miner
    and knowledge base, and additionally times the runner's own phases:
    mining steps vs. checkpoint scoring.
    """
    rng = as_rng(seed)
    crowd = build_crowd(config, population, rng)
    storage = None
    if config.checkpoint_path is not None:
        from repro.storage import open_backend

        storage = open_backend(config.checkpoint_path)
    miner = CrowdMiner(crowd, _miner_config(config, rng), obs=obs, storage=storage)
    outcome = _score_session(config, miner, truth, config.checkpoints)
    if storage is not None:
        storage.close()
    return outcome


def resume_session(
    config: ExperimentConfig,
    truth: GroundTruth,
    storage=None,
) -> RepetitionOutcome:
    """Finish a killed :func:`run_session` from its latest checkpoint.

    Opens the experiment's checkpoint store (or takes an already-open
    ``storage`` backend), restores the session, and drives it through
    the *remaining* quality checkpoints — grid points the original run
    already passed were scored by that run and are skipped here. With
    the same seeds, the finished session's final summary (and
    :meth:`~repro.miner.result.MiningResult.fingerprint`) is
    byte-identical to an uninterrupted run's.

    Only synchronous sessions are resumable through this helper (the
    E-series harness drives miners synchronously); a checkpoint carrying
    dispatcher state is rejected.
    """
    from repro.storage import StorageError, load_session, open_backend

    owned = storage is None
    if storage is None:
        if config.checkpoint_path is None:
            raise ConfigurationError(
                "resume_session needs a checkpoint_path (or an open backend)"
            )
        storage = open_backend(config.checkpoint_path, resume=True)
    miner, dispatcher, _ = load_session(storage)
    if dispatcher is not None:
        from repro.serve.session import ServeSession

        if isinstance(dispatcher, ServeSession):
            raise StorageError(
                "this checkpoint carries live serve-session state; resume "
                "it with `repro serve --data-dir DIR --resume`, not the "
                "E-series harness"
            )
        raise StorageError(
            "this checkpoint carries dispatcher state; resume it with the "
            "dispatcher (repro.storage.load_session), not the E-series harness"
        )
    remaining = tuple(c for c in config.checkpoints if c >= miner.questions_asked)
    outcome = _score_session(config, miner, truth, remaining)
    if owned:
        storage.close()
    return outcome


def run_timed_session(
    config: ExperimentConfig,
    population: Population,
    truth: GroundTruth,
    seed: int,
    dispatch: "DispatchConfig | None" = None,
    time_checkpoints: tuple[float, ...] | None = None,
    obs: Instrumentation | None = None,
) -> TimedCurve:
    """Run one *dispatched* session, scored on a simulated-time grid.

    The asynchronous counterpart of :func:`run_session`: the miner is
    driven by a :class:`~repro.dispatch.dispatcher.Dispatcher`, and
    quality is sampled at simulated-time checkpoints instead of
    question counts — the makespan axis that in-flight batching
    improves. When ``time_checkpoints`` is ``None`` the session is
    drained and scored only at its own makespan, yielding a one-point
    curve (useful for end-state and makespan comparisons). The
    dispatcher schedules over ``config.shards`` crowd partitions.
    """
    from repro.dispatch.dispatcher import DispatchConfig, Dispatcher

    rng = as_rng(seed)
    obs = obs or Instrumentation()
    crowd = build_crowd(config, population, rng)
    miner = CrowdMiner(crowd, _miner_config(config, rng), obs=obs)
    dispatcher = Dispatcher(miner, dispatch or DispatchConfig(), shards=config.shards)

    points: list[TimedPoint] = []

    def sample(at: float) -> None:
        with obs.timer("runner.score"):
            reported = miner.state.significant_rules(mode="point")
            precision, recall = precision_recall(reported, truth)
        points.append(
            TimedPoint(
                time=at,
                questions=miner.questions_asked,
                precision=precision,
                recall=recall,
            )
        )

    with obs.timer("runner.mine"):
        if time_checkpoints is None:
            dispatcher.run()
        else:
            for checkpoint in time_checkpoints:
                dispatcher.advance_to(checkpoint)
                sample(checkpoint)
            if not dispatcher.is_idle():
                dispatcher.run()
    sample(dispatcher.stats().makespan)
    return TimedCurve(label=config.name, points=tuple(points))


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run all repetitions of one experiment and average the curves.

    Each repetition re-draws the world (model, population, crowd) from
    a distinct sub-seed, so the averaged curve reflects the configured
    *distribution* of worlds rather than one lucky draw.
    """
    outcomes = []
    for rep in range(config.repetitions):
        # Deterministic sub-seeds (Python's hash() is salted per process
        # and would make experiments unreproducible).
        world_seed = zlib.crc32(f"{config.seed}:{rep}:world".encode())
        session_seed = zlib.crc32(f"{config.seed}:{rep}:session".encode())
        _, population, truth = build_world(config, world_seed)
        outcomes.append(run_session(config, population, truth, session_seed))
    curve = average_curves(config.name, [o.curve for o in outcomes])
    return ExperimentResult(
        config=config, curve=curve, repetitions=tuple(outcomes)
    )


def run_variants(
    base: ExperimentConfig, variants: dict[str, dict]
) -> dict[str, ExperimentResult]:
    """Run ``base`` once per variant with the given field overrides.

    >>> base = ExperimentConfig(budget=100, checkpoints=(100,), repetitions=1)
    >>> out = run_variants(base, {"a": {"strategy": "random"}})  # doctest: +SKIP
    """
    results: dict[str, ExperimentResult] = {}
    for label, overrides in variants.items():
        config = replace(base, name=label, **overrides)
        results[label] = run_experiment(config)
    return results
