"""Hand-built populations for crowd tests."""

from repro.core import ItemDomain, TransactionDB
from repro.synth.population import Member, Population


def population_of(*dbs: TransactionDB, ids=None) -> Population:
    """A population whose member ``k`` holds ``dbs[k]``, with ids ``u0``, ``u1``, …"""
    ids = ids or [f"u{k}" for k in range(len(dbs))]
    items = sorted({item for db in dbs for row in db for item in row})
    return Population(
        ItemDomain(items), tuple(Member(mid, db) for mid, db in zip(ids, dbs))
    )
