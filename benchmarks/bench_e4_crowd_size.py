"""E4 — crowd size (reconstructed figure), plus the large-crowd sweep.

The cost of mining is driven by *samples per rule*, not by how many
members exist: a larger crowd spreads the same number of questions over
more people (lower per-member burden) but the questions-to-quality
curve stays roughly crowd-size-invariant, until the crowd gets so small
that per-member patience (here: the sheer number of distinct answerers
available per rule) binds.

The large-crowd sweep exercises the array backend
(``docs/scaling.md``) at 10k/100k/1M members, reporting closed-question
throughput and peak RSS, with a CI floor in the style of
``bench_e7_runtime``: the 100k-member row must clear ten times the
PR 1 (object-path) throughput floor.
"""

import time

import numpy as np

from repro.core import Rule
from repro.crowd import ExactAnswerModel, SimulatedCrowd
from repro.estimation import Thresholds
from repro.eval import (
    ExperimentConfig,
    build_world,
    e4_crowd_size,
    format_experiment,
    format_rows,
    run_variants,
)
from repro.miner import CrowdMiner, CrowdMinerConfig, FixedRatioPolicy

from conftest import run_once

try:
    import resource
except ImportError:  # pragma: no cover - non-Unix
    resource = None


def test_e4_crowd_size(benchmark, scale):
    base, variants = e4_crowd_size(scale)

    def run():
        return run_variants(base, variants)

    results = run_once(benchmark, run)
    print()
    print(format_experiment(f"E4: crowd size ({scale})", results))

    # Per-member burden falls as the crowd grows.
    burdens = {}
    for label, result in results.items():
        n_members = result.config.n_members
        questions = result.curve.final().questions
        burdens[label] = questions / n_members
    ordered = [burdens[label] for label in sorted(burdens, key=lambda l: int(l.split("_")[1]))]
    assert ordered[0] >= ordered[-1]

    # Every crowd size achieves a nonzero result.
    for label, result in results.items():
        assert result.curve.final().f1 >= 0.0


#: The large-crowd sweep. ``floor_qps`` is ten times the PR 1
#: object-path floor from ``bench_e7_runtime.KB_SETTINGS`` (full 400,
#: smoke 600 q/s), asserted at the ``floor_at`` crowd size; the smoke
#: sweep stops at 100k to keep CI fast, full climbs to a million.
#: ``max_rss_mb`` is a loose guard against accidentally materializing
#: the crowd as objects (a million members as objects costs GBs).
LARGE_SETTINGS = {
    "full": dict(
        sizes=(10_000, 100_000, 1_000_000),
        seed_rules=500,
        budget=2_000,
        floor_qps=4_000.0,
        floor_at=100_000,
        max_rss_mb=1_500.0,
    ),
    "smoke": dict(
        sizes=(10_000, 100_000),
        seed_rules=300,
        budget=600,
        floor_qps=6_000.0,
        floor_at=100_000,
        max_rss_mb=1_500.0,
    ),
}


def _random_seed_rules(items, count, rng):
    """``count`` distinct random rules over ``items`` (2–4 item bodies)."""
    rules = set()
    while len(rules) < count:
        size = int(rng.integers(2, 5))
        chosen = [items[k] for k in rng.choice(len(items), size=size, replace=False)]
        cut = int(rng.integers(1, size))
        rules.add(Rule(chosen[:cut], chosen[cut:]))
    return tuple(rules)


def _peak_rss_mb() -> float:
    if resource is None:
        return float("nan")
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def test_e4_large_crowd_throughput(benchmark, scale):
    """Closed-question throughput on the array backend, 10k → 1M members.

    Measured with the same sync step-loop methodology as
    ``bench_e7_runtime.test_e7_kb_scale_closed_throughput`` (whose
    floors this sweep multiplies by ten), with the exact answer model,
    which draws nothing: the array crowd then builds no per-member
    generator, so the sweep times the columnar substrate rather than
    one generator construction per newly asked member, which at these
    crowd sizes is nearly every question, synchronous or dispatched.
    Per-member state is generated on demand, so throughput should be
    flat in crowd size and memory sublinear in it.
    """
    cfg = LARGE_SETTINGS[scale]

    def session(n_members):
        world = ExperimentConfig(
            name="e4-large",
            n_items=80,
            n_patterns=10,
            n_members=n_members,
            transactions_per_member=100,
            budget=cfg["budget"],
            checkpoints=(cfg["budget"],),
            repetitions=1,
            population_backend="array",
            seed=41,
        )
        model, population, _ = build_world(world, seed=41, ground_truth=False)
        rng = np.random.default_rng(42)
        seed_rules = _random_seed_rules(model.domain.items, cfg["seed_rules"], rng)
        crowd = SimulatedCrowd(population, answer_model=ExactAnswerModel(), seed=43)
        miner = CrowdMiner(
            crowd,
            CrowdMinerConfig(
                thresholds=Thresholds(0.10, 0.5),
                budget=cfg["budget"],
                seed_rules=seed_rules,
                open_policy=FixedRatioPolicy(0.0, fallback_to_open=False),
                expand_generalizations=False,
                expand_splits=False,
                seed=44,
            ),
        )
        started = time.perf_counter()
        asked = 0
        while asked < cfg["budget"] and not miner.is_done:
            if miner.step() is None:
                break
            asked += 1
        return asked, time.perf_counter() - started, _peak_rss_mb()

    def run():
        return [(n, *session(n)) for n in cfg["sizes"]]

    measured = run_once(benchmark, run)

    rows = []
    qps_at = {}
    for n, asked, elapsed, rss in measured:
        qps = asked / elapsed if elapsed > 0 else float("inf")
        qps_at[n] = qps
        rows.append(
            (f"{n:,}", asked, f"{qps:,.0f}", f"{1_000 * elapsed / max(1, asked):.3f}", f"{rss:.0f}")
        )
    print()
    print(f"=== E4: large-crowd closed-question throughput ({scale}) ===")
    print(
        format_rows(
            ("members", "questions", "q/s", "ms/q", "peak RSS MB"), rows
        )
    )

    for n, asked, _, _ in measured:
        assert asked > 0, f"{n}-member session asked no questions"
    floor_at = cfg["floor_at"]
    assert qps_at[floor_at] >= cfg["floor_qps"], (
        f"closed-question throughput {qps_at[floor_at]:.0f} q/s at "
        f"{floor_at:,} members fell below the {cfg['floor_qps']:.0f} q/s "
        f"floor (10x the PR 1 object-path floor)"
    )
    if resource is not None:
        peak = measured[-1][3]
        assert peak <= cfg["max_rss_mb"], (
            f"peak RSS {peak:.0f} MB exceeds the {cfg['max_rss_mb']:.0f} MB "
            f"guard — member state may be materializing eagerly"
        )
