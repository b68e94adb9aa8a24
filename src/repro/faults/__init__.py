"""Robustness layer: adversarial answers and fault injection.

Everything the happy-path miner assumes — honest-but-noisy members,
answers that parse, members that stay — is broken somewhere in here, on
purpose. The package splits into:

- :mod:`repro.faults.adversaries` — answer behaviour gone wrong
  (collusion rings, drifting noise, lazy extremes; garbled text is a
  per-member rate of the simulated crowd);
- :mod:`repro.faults.injector` — transport/membership faults on the
  dispatch timeline (crashes, churn waves, duplicate deliveries).

The defence lives in :mod:`repro.estimation.latent`: joint
latent-ability / rule-truth estimation over the full answer matrix
(Dawid–Skene-style), which weights members and decides quarantine when
the miner runs with ``quarantine=True``. It needs no gold reference,
so colluders have none to poison (EXPERIMENTS.md E8-R).

:func:`build_adversarial_crowd` assembles a crowd with a declared
adversary mix, as per-member parameters of the one simulated crowd;
:func:`parse_adversary_mix` reads the CLI's ``name:fraction,...`` spec.
"""

from __future__ import annotations

import numpy as np

from repro._util import as_rng
from repro.crowd.answer_models import AnswerModel, SpammerAnswerModel
from repro.crowd.crowd import SimulatedCrowd
from repro.crowd.open_behavior import OpenAnswerPolicy
from repro.errors import ConfigurationError
from repro.faults.adversaries import (
    CollusionRing,
    ColludingSpammerModel,
    DriftingAnswerModel,
    LazyExtremesModel,
)
from repro.faults.injector import FaultInjector, FaultPlan, periodic_plan
from repro.synth.array_population import ArrayPopulation
from repro.synth.population import Population

__all__ = [
    "ADVERSARY_ROLES",
    "CollusionRing",
    "ColludingSpammerModel",
    "DriftingAnswerModel",
    "FaultInjector",
    "FaultPlan",
    "LazyExtremesModel",
    "build_adversarial_crowd",
    "parse_adversary_mix",
    "periodic_plan",
]

#: Adversary role names accepted by the mix spec, in assignment order.
ADVERSARY_ROLES = ("spammer", "colluder", "drifter", "lazy", "garbled")


def parse_adversary_mix(spec: str) -> tuple[tuple[str, float], ...]:
    """Parse an adversary-mix spec like ``"spammer:0.2,colluder:0.1"``.

    Returns ``(role, fraction)`` pairs. Roles must come from
    :data:`ADVERSARY_ROLES`; fractions must be in [0, 1] and sum to at
    most 1 (the rest of the crowd stays honest). An empty/blank spec is
    the empty mix.
    """
    spec = spec.strip()
    if not spec:
        return ()
    mix: list[tuple[str, float]] = []
    seen: set[str] = set()
    for part in spec.split(","):
        role, sep, amount = part.strip().partition(":")
        role = role.strip().lower()
        if not sep:
            raise ConfigurationError(
                f"adversary mix entry {part.strip()!r} must be 'role:fraction'"
            )
        if role not in ADVERSARY_ROLES:
            raise ConfigurationError(
                f"unknown adversary role {role!r}; "
                f"expected one of {', '.join(ADVERSARY_ROLES)}"
            )
        if role in seen:
            raise ConfigurationError(f"adversary role {role!r} given twice")
        seen.add(role)
        try:
            fraction = float(amount)
        except ValueError:
            raise ConfigurationError(
                f"bad fraction {amount.strip()!r} for role {role!r}"
            ) from None
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError(
                f"fraction for role {role!r} must be in [0, 1], got {fraction}"
            )
        if fraction > 0.0:
            mix.append((role, fraction))
    total = sum(fraction for _, fraction in mix)
    if total > 1.0 + 1e-9:
        raise ConfigurationError(
            f"adversary fractions sum to {total:.3f} > 1; "
            "some of the crowd must stay honest"
        )
    return tuple(mix)


def build_adversarial_crowd(
    population: Population | ArrayPopulation,
    mix: tuple[tuple[str, float], ...] = (),
    *,
    answer_model: AnswerModel | None = None,
    open_policy: OpenAnswerPolicy | None = None,
    patience: int | None = None,
    seed: int | np.random.Generator | None = None,
    garbled_rate: float = 1.0,
) -> tuple[SimulatedCrowd, dict[str, str]]:
    """A crowd where a declared fraction of members are adversaries.

    ``mix`` is a tuple of ``(role, fraction)`` pairs (see
    :func:`parse_adversary_mix`); roles are assigned to crowd positions
    by a seeded permutation, everyone else keeps the honest
    ``answer_model``. Each adversary becomes a per-member parameter of
    the one :class:`~repro.crowd.crowd.SimulatedCrowd`, over an
    explicit or a columnar population alike: spammers, colluders and
    lazy members answer through their role's model (colluders all
    through one :class:`~repro.faults.adversaries.CollusionRing`), each
    drifter through its own (stateful) :class:`DriftingAnswerModel`,
    and garbled members through the honest model, garbled at
    ``garbled_rate``.

    Returns ``(crowd, roles)`` where ``roles`` maps member id →
    assigned role (``"honest"`` included) — the ground truth benchmarks
    score quarantine precision against.

    With an empty ``mix`` the construction draws exactly the same
    random stream as :meth:`SimulatedCrowd.from_population`, so the
    resulting crowd is byte-identical to the standard honest build.
    """
    rng = as_rng(seed)
    n = len(population)
    roles = ["honest"] * n
    member_models: dict[int, AnswerModel] = {}
    garbled: dict[int, float] = {}
    if mix:
        for role, fraction in mix:
            if role not in ADVERSARY_ROLES:
                raise ConfigurationError(f"unknown adversary role {role!r}")
            if not 0.0 <= fraction <= 1.0:
                raise ConfigurationError(
                    f"fraction for role {role!r} must be in [0, 1], got {fraction}"
                )
        order = rng.permutation(n).tolist()
        cursor = 0
        for role, fraction in mix:
            count = min(int(round(fraction * n)), n - cursor)
            for idx in order[cursor : cursor + count]:
                roles[idx] = role
            cursor += count
        shared: dict[str, AnswerModel] = {
            "spammer": SpammerAnswerModel(),
            "lazy": LazyExtremesModel(),
        }
        if "colluder" in roles:
            shared["colluder"] = CollusionRing(seed=int(rng.integers(2**63))).member_model()
        for k, role in enumerate(roles):
            if role == "drifter":
                member_models[k] = DriftingAnswerModel()
            elif role == "garbled":
                garbled[k] = garbled_rate
            elif role != "honest":
                member_models[k] = shared[role]
    crowd = SimulatedCrowd(
        population,
        answer_model=answer_model,
        open_policy=open_policy,
        patience=patience,
        seed=rng,
        member_models=member_models,
        garbled=garbled,
    )
    return crowd, {population.member_id_at(k): role for k, role in enumerate(roles)}
