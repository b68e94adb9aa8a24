"""Robustness layer: adversarial answers, fault injection, latent trust.

Everything the happy-path miner assumes — honest-but-noisy members,
answers that parse, members that stay — is broken somewhere in here, on
purpose. The package splits into:

- :mod:`repro.faults.adversaries` — answer behaviour gone wrong
  (collusion rings, drifting noise, lazy extremes, garbled text);
- :mod:`repro.faults.injector` — transport/membership faults on the
  dispatch timeline (crashes, churn waves, duplicate deliveries);
- :mod:`repro.faults.latent` — the defence: joint latent-ability /
  rule-truth estimation over the full answer matrix (Dawid–Skene-style),
  which weights members and decides quarantine when the miner runs with
  ``quarantine=True``. It needs no gold reference, so colluders have
  none to poison (EXPERIMENTS.md E8-R).

:func:`build_adversarial_crowd` assembles a crowd with a declared
adversary mix; :func:`parse_adversary_mix` reads the CLI's
``name:fraction,...`` spec.
"""

from __future__ import annotations

import numpy as np

from repro._util import as_rng
from repro.crowd.answer_models import AnswerModel, ExactAnswerModel, SpammerAnswerModel
from repro.crowd.crowd import SimulatedCrowd
from repro.crowd.member import SimulatedMember
from repro.crowd.open_behavior import OpenAnswerPolicy
from repro.errors import ConfigurationError
from repro.faults.adversaries import (
    CollusionRing,
    ColludingSpammerModel,
    DriftingAnswerModel,
    GarbledMember,
    LazyExtremesModel,
    garbage_text,
)
from repro.faults.injector import FaultInjector, FaultPlan, periodic_plan
from repro.faults.latent import LatentAbilityModel, MemberAbility
from repro.synth.population import Population

__all__ = [
    "ADVERSARY_ROLES",
    "CollusionRing",
    "ColludingSpammerModel",
    "DriftingAnswerModel",
    "FaultInjector",
    "FaultPlan",
    "GarbledMember",
    "LatentAbilityModel",
    "LazyExtremesModel",
    "MemberAbility",
    "build_adversarial_crowd",
    "garbage_text",
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
    population: Population,
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
    :func:`parse_adversary_mix`); roles are assigned to members by a
    seeded permutation, everyone else keeps the honest
    ``answer_model``. Colluders all share one
    :class:`~repro.faults.adversaries.CollusionRing`; each drifter gets
    its own (stateful) :class:`DriftingAnswerModel`; garbled members
    wrap the honest model and emit unparseable text at
    ``garbled_rate``.

    Returns ``(crowd, roles)`` where ``roles`` maps member id →
    assigned role (``"honest"`` included) — the ground truth benchmarks
    score quarantine precision against.

    With an empty ``mix`` the construction draws exactly the same
    random stream as :meth:`SimulatedCrowd.from_population`, so the
    resulting crowd is byte-identical to the standard honest build.
    """
    rng = as_rng(seed)
    open_policy = open_policy or OpenAnswerPolicy()
    pop_members = list(population)
    n = len(pop_members)
    roles = ["honest"] * n
    ring: CollusionRing | None = None
    if mix:
        mix = tuple(mix)
        for role, fraction in mix:
            if role not in ADVERSARY_ROLES:
                raise ConfigurationError(f"unknown adversary role {role!r}")
            if not 0.0 <= fraction <= 1.0:
                raise ConfigurationError(
                    f"fraction for role {role!r} must be in [0, 1], got {fraction}"
                )
        order = [int(i) for i in rng.permutation(n)]
        cursor = 0
        for role, fraction in mix:
            count = min(int(round(fraction * n)), n - cursor)
            for idx in order[cursor : cursor + count]:
                roles[idx] = role
            cursor += count
        if any(role == "colluder" for role in roles):
            ring = CollusionRing(seed=int(rng.integers(2**63)))

    honest_model = answer_model or ExactAnswerModel()
    members = []
    role_of: dict[str, str] = {}
    for k, pop_member in enumerate(pop_members):
        role = roles[k]
        role_of[pop_member.member_id] = role
        if role == "spammer":
            model = SpammerAnswerModel()
        elif role == "colluder":
            assert ring is not None
            model = ring.member_model()
        elif role == "drifter":
            model = DriftingAnswerModel()
        elif role == "lazy":
            model = LazyExtremesModel()
        else:  # honest and garbled both answer through the honest model
            model = honest_model
        member = SimulatedMember(
            member_id=pop_member.member_id,
            db=pop_member.db,
            answer_model=model,
            open_policy=open_policy,
            patience=patience,
            seed=rng.integers(2**63),
        )
        if role == "garbled":
            member = GarbledMember(
                member, rate=garbled_rate, seed=int(rng.integers(2**63))
            )
        members.append(member)
    return SimulatedCrowd(members, seed=rng), role_of
