"""Canonical experiment definitions E1–E9.

These are the reconstructed counterparts of the paper's evaluation
figures and tables (see DESIGN.md §4 for the full mapping and
EXPERIMENTS.md for measured outcomes). Each entry returns the base
config and the variant grid; the benchmark harness in ``benchmarks/``
executes them and prints the per-figure series.

Two size tiers are provided: ``scale="full"`` reproduces the headline
curves at meaningful sizes (minutes of wall-clock), ``scale="smoke"``
shrinks everything for CI-speed sanity runs (seconds). Both tiers run
the *same* code paths; only sizes change.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import ConfigurationError
from repro.eval.runner import ExperimentConfig


def _base(scale: str) -> ExperimentConfig:
    if scale == "full":
        return ExperimentConfig(
            n_items=120,
            n_patterns=20,
            n_members=40,
            transactions_per_member=200,
            budget=2_000,
            checkpoints=(100, 200, 400, 800, 1_200, 1_600, 2_000),
            repetitions=3,
            seed=7,
        )
    if scale == "smoke":
        return ExperimentConfig(
            n_items=60,
            n_patterns=8,
            n_members=15,
            transactions_per_member=80,
            budget=240,
            checkpoints=(60, 120, 240),
            repetitions=2,
            seed=7,
        )
    raise ConfigurationError(f"unknown scale: {scale!r}")


def e1_strategies(scale: str = "full") -> tuple[ExperimentConfig, dict[str, dict]]:
    """E1 — strategy comparison (quality vs questions per strategy)."""
    base = replace(_base(scale), name="e1_strategies")
    variants = {
        "crowdminer": {"strategy": "crowdminer"},
        "roundrobin": {"strategy": "roundrobin"},
        "random": {"strategy": "random"},
        "horizontal": {"strategy": "horizontal"},
    }
    return base, variants


def e2_open_ratio(scale: str = "full") -> tuple[ExperimentConfig, dict[str, dict]]:
    """E2 — open/closed mix (strict fixed ratios plus the adaptive policy)."""
    base = replace(_base(scale), name="e2_open_ratio")
    ratios = (0.05, 0.1, 0.25, 0.5, 1.0)
    variants: dict[str, dict] = {
        f"open_{int(r * 100):02d}%": {"open_policy": r} for r in ratios
    }
    variants["adaptive"] = {"open_policy": "adaptive"}
    return base, variants


def e3_noise(scale: str = "full") -> tuple[ExperimentConfig, dict[str, dict]]:
    """E3 — answer noise (σ sweep, with and without Likert coarsening)."""
    base = replace(_base(scale), name="e3_noise")
    variants = {
        "exact": {"answer_sigma": 0.0, "likert": False},
        "likert_only": {"answer_sigma": 0.0, "likert": True},
        "sigma_0.05": {"answer_sigma": 0.05, "likert": True},
        "sigma_0.10": {"answer_sigma": 0.10, "likert": True},
        "sigma_0.20": {"answer_sigma": 0.20, "likert": True},
    }
    return base, variants


def e4_crowd_size(scale: str = "full") -> tuple[ExperimentConfig, dict[str, dict]]:
    """E4 — crowd size (members sweep at fixed budget)."""
    base = replace(_base(scale), name="e4_crowd_size")
    sizes = (10, 30, 100) if scale == "smoke" else (10, 30, 100, 200)
    variants = {f"members_{n}": {"n_members": n} for n in sizes}
    return base, variants


def e5_scale(scale: str = "full") -> tuple[ExperimentConfig, dict[str, dict]]:
    """E5 — domain scale (items × planted habits grid).

    The paper's point: cost tracks the number of *significant* rules,
    not the item-domain size.
    """
    base = replace(_base(scale), name="e5_scale")
    if scale == "smoke":
        grid = ((60, 8), (200, 8), (200, 16))
    else:
        grid = ((50, 10), (200, 10), (800, 10), (200, 40))
    variants = {
        f"items_{items}_rules_{rules}": {"n_items": items, "n_patterns": rules}
        for items, rules in grid
    }
    return base, variants


def e8_thresholds(scale: str = "full") -> tuple[ExperimentConfig, dict[str, dict]]:
    """E8 — threshold sensitivity ((θ_s, θ_c) sweep)."""
    base = replace(_base(scale), name="e8_thresholds")
    grid = ((0.05, 0.4), (0.10, 0.5), (0.15, 0.6), (0.20, 0.7))
    variants = {
        f"th_{int(s * 100):02d}_{int(c * 100):02d}": {
            "support_threshold": s,
            "confidence_threshold": c,
        }
        for s, c in grid
    }
    return base, variants


def e8r_robustness(scale: str = "full") -> tuple[ExperimentConfig, dict[str, dict]]:
    """E8-R — adversarial robustness (degradation curve, quarantine on/off).

    Sweeps the colluding-spammer fraction with the quality-control loop
    disabled and enabled. Colluders — not independent spammers — are
    the sweep's adversary because their coordinated lies *bias*
    aggregates rather than just widening them, which is what actually
    moves F1. The off rows trace graceful degradation; the on rows
    measure what the latent-ability trust model (joint member/truth
    estimation, no gold reference to poison — see
    :mod:`repro.estimation.latent`) buys back. The floor asserted by
    ``benchmarks/bench_e8_robustness.py``: quality-on must be at least
    quality-off at *every* swept fraction — the poisoned-gold regime
    where enabling the defence made things worse is the bug this model
    fixed.
    """
    base = replace(
        _base(scale),
        name="e8r_robustness",
        quarantine=False,
    )
    fractions = (0.0, 0.1, 0.3, 0.5)
    variants: dict[str, dict] = {}
    for fraction in fractions:
        mix = (("colluder", fraction),) if fraction > 0 else ()
        label = f"spam_{int(fraction * 100):02d}"
        variants[f"{label}_q_off"] = {"adversary_mix": mix}
        variants[f"{label}_q_on"] = {"adversary_mix": mix, "quarantine": True}
    return base, variants


def e9_ablation(scale: str = "full") -> tuple[ExperimentConfig, dict[str, dict]]:
    """E9 — ablation of the miner's design choices."""
    base = replace(_base(scale), name="e9_ablation")
    variants = {
        "full": {},
        "no_covariance": {"use_covariance": False},
        "no_lattice_pruning": {"lattice_pruning": False},
        "no_expansion": {
            "expand_generalizations": False,
            "expand_splits": False,
        },
        "closed_only_lazy": {"open_policy": 0.0},
    }
    return base, variants


#: Registry of the sweep-style experiments (E6/E7 have bespoke harnesses).
EXPERIMENTS = {
    "e1": e1_strategies,
    "e2": e2_open_ratio,
    "e3": e3_noise,
    "e4": e4_crowd_size,
    "e5": e5_scale,
    "e8": e8_thresholds,
    "e8r": e8r_robustness,
    "e9": e9_ablation,
}
