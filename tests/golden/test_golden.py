"""The tier-1 slice of the golden fingerprint registry.

``tests/golden/registry.py`` documents the sessions and the command
that regenerates or checks the full set.
"""

import pytest

from tests.golden import registry


@pytest.mark.parametrize("name", registry.TIER1)
def test_fingerprint_matches_the_registry(name):
    doc = registry.load()
    got = registry.SESSIONS[name]()
    assert got == doc["sessions"][name], (
        f"{name} moved: recorded {doc['sessions'][name]}, got {got}; "
        f"recorded with {doc['versions']}, running with {registry.versions()}"
    )


def test_columnar_twin_matches_the_object_crowd():
    sessions = registry.load()["sessions"]
    assert sessions["sharded_seeded_array/s1"] == sessions["sharded_seeded_object/s1"]


def test_registry_lists_every_session():
    assert set(registry.load()["sessions"]) == set(registry.SESSIONS)


def test_versions_are_recorded():
    assert set(registry.load()["versions"]) == {"python", "numpy", "scipy"}
