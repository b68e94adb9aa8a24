"""Crowd populations: collections of materialized personal databases.

A :class:`Population` is the simulation-side stand-in for "the crowd":
for each member it holds the materialized personal database (and, when
generated from a latent model, the member's latent profile). The
simulated crowd of :mod:`repro.crowd` answers questions by consulting
these databases through ``member_id_at``, ``index_of``,
``rule_stats_at`` and ``db_at`` — the protocol the columnar
:class:`~repro.synth.array_population.ArrayPopulation` speaks too; the
ground-truth oracle of :mod:`repro.miner` scores mining output against
them.

Two builders are provided, mirroring the paper's two synthetic setups:

- :func:`build_population` — sample members from a
  :class:`~repro.synth.latent.LatentHabitModel` (planted habits, known
  structure);
- :func:`partition_global_db` — split a single "real" transaction
  database (e.g. Quest-generated) into per-member databases with
  controllable taste heterogeneity.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro._util import as_rng, check_nonnegative, check_positive
from repro.core.items import ItemDomain
from repro.core.measures import RuleStats
from repro.core.rule import Rule
from repro.core.transactions import TransactionDB
from repro.errors import ConfigurationError, EmptyDatabaseError
from repro.synth.latent import LatentHabitModel, UserProfile


@dataclass(frozen=True, slots=True)
class Member:
    """One crowd member's simulation-side data.

    ``profile`` is ``None`` for members built by partitioning a global
    database (there is no latent truth beyond the database itself).
    A pickled member keeps its id and database only.
    """

    member_id: str
    db: TransactionDB
    profile: UserProfile | None = None

    def __reduce__(self) -> tuple:
        # A session checkpoint pickles every member of the simulated
        # crowd's explicit population, and the crowd reads only ids and
        # databases: the latent profile is generation-time truth, and
        # pickling its habit objects cost a fifth of a checkpoint.
        return Member, (self.member_id, self.db)


@dataclass(frozen=True, slots=True)
class Population:
    """A fixed crowd of members over a common item domain."""

    domain: ItemDomain
    members: tuple[Member, ...]
    _id_index: dict[str, int] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if not self.members:
            raise ConfigurationError("a population needs at least one member")
        index = {m.member_id: i for i, m in enumerate(self.members)}
        if len(index) != len(self.members):
            raise ConfigurationError("member ids must be unique")
        object.__setattr__(self, "_id_index", index)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def member(self, member_id: str) -> Member:
        """Look up a member by id (raises ``KeyError`` when absent)."""
        return self.members[self._id_index[member_id]]

    # -- the per-member protocol the simulated crowd reads ---------------------

    def member_id_at(self, index: int) -> str:
        """The id of the member at ``index``."""
        return self.members[index].member_id

    def index_of(self, member_id: str) -> int:
        """The index of ``member_id``; raises ``KeyError`` when absent."""
        return self._id_index[member_id]

    def rule_stats_at(self, index: int, rule: Rule) -> RuleStats:
        """Exact ``(support, confidence)`` of ``rule`` for one member."""
        return self.members[index].db.rule_stats(rule)

    def db_at(self, index: int) -> TransactionDB:
        """Member ``index``'s personal database."""
        return self.members[index].db

    # -- exact crowd-level measures (the oracle's primitives) -----------------

    def mean_rule_stats(self, rule: Rule) -> tuple[float, float]:
        """Exact crowd-mean ``(support, confidence)`` of ``rule``.

        This reads the materialized databases directly — something the
        *miner* is never allowed to do; it exists for ground truth and
        evaluation only.
        """
        supports = []
        confidences = []
        for m in self.members:
            stats = m.db.rule_stats(rule)
            supports.append(stats.support)
            confidences.append(stats.confidence)
        return (float(np.mean(supports)), float(np.mean(confidences)))

    def mean_itemset_support(self, itemset) -> float:
        """Exact crowd-mean support of an itemset."""
        return float(np.mean([m.db.support(itemset) for m in self.members]))

    def union_db(self) -> TransactionDB:
        """All members' transactions in one database.

        When all personal databases have equal size, itemset support in
        the union equals the crowd-mean support — the property the
        ground-truth oracle exploits to enumerate candidates.
        """
        return TransactionDB.concatenate([m.db for m in self.members])

    @property
    def equal_sized(self) -> bool:
        """True when every member has the same number of transactions."""
        sizes = {len(m.db) for m in self.members}
        return len(sizes) == 1


def build_population(
    model: LatentHabitModel,
    n_members: int,
    transactions_per_member: int = 200,
    seed: int | np.random.Generator | None = None,
) -> Population:
    """Sample a crowd from a latent habit model.

    Every member gets an equal-sized personal database (which keeps the
    ground-truth oracle exact — see :meth:`Population.union_db`).
    """
    check_positive(n_members, "n_members")
    check_positive(transactions_per_member, "transactions_per_member")
    rng = as_rng(seed)
    members = []
    for k in range(n_members):
        profile = model.realize_user(rng)
        db = model.generate_personal_db(profile, transactions_per_member, rng)
        members.append(Member(member_id=f"u{k:04d}", db=db, profile=profile))
    return Population(domain=model.domain, members=tuple(members))


def partition_global_db(
    db: TransactionDB,
    domain: ItemDomain,
    n_members: int,
    transactions_per_member: int | None = None,
    heterogeneity: float = 1.0,
    seed: int | np.random.Generator | None = None,
) -> Population:
    """Split a global database into per-member personal databases.

    Models the paper's "crowd simulated from real data" setup: each
    member is given a personal database resampled from the global one
    according to individual *tastes*.

    Parameters
    ----------
    db:
        The global transaction database.
    domain:
        Item domain covering the database's items.
    n_members:
        Number of members to create.
    transactions_per_member:
        Size of each personal database; defaults to
        ``len(db) // n_members`` (at least 1).
    heterogeneity:
        Controls how different members' tastes are. 0 makes every
        member an unbiased bootstrap of the global database; larger
        values concentrate each member on fewer item preferences
        (implemented as a Dirichlet over items with concentration
        ``1 / (heterogeneity + eps)``).
    seed:
        Seed or generator.
    """
    check_positive(n_members, "n_members")
    check_nonnegative(heterogeneity, "heterogeneity")
    if len(db) == 0:
        raise EmptyDatabaseError("cannot partition an empty database")
    rng = as_rng(seed)
    if transactions_per_member is None:
        transactions_per_member = max(1, len(db) // n_members)
    check_positive(transactions_per_member, "transactions_per_member")

    rows: Sequence[frozenset[str]] = list(db)
    item_index = {item: i for i, item in enumerate(domain.items)}
    members = []
    for k in range(n_members):
        if heterogeneity == 0.0:
            weights = np.ones(len(rows))
        else:
            concentration = 1.0 / heterogeneity
            taste = rng.dirichlet(np.full(len(domain), concentration))
            weights = np.array(
                [
                    sum(taste[item_index[i]] for i in row if i in item_index)
                    for row in rows
                ]
            )
            # Empty or out-of-domain rows keep a tiny base weight so the
            # distribution stays proper.
            weights = weights + 1e-9
        weights = weights / weights.sum()
        chosen = rng.choice(len(rows), size=transactions_per_member, p=weights)
        personal = TransactionDB(rows[int(i)] for i in chosen)
        members.append(Member(member_id=f"u{k:04d}", db=personal, profile=None))
    return Population(domain=domain, members=tuple(members))
