"""Quality control in whole sessions: quarantine and the no-op bar.

Two properties pin here, both on the latent-ability trust model that
``quarantine=True`` installs:

- with **no** adversaries, enabling quarantine must leave the miner's
  question selection byte-identical to the plain configuration (the
  quality loop must be free when nothing is wrong);
- with a 30% spammer mix, the loop must actually quarantine spammers
  and purge their evidence from the knowledge base; members who send
  nothing but garbage must be quarantined too.
"""

import pytest

from repro.estimation import Thresholds
from repro.faults import build_adversarial_crowd
from repro.miner import CrowdMiner, CrowdMinerConfig
from tests.dispatch.test_equivalence import kb_fingerprint, log_fingerprint

THRESHOLDS = Thresholds(0.10, 0.5)


class TestConfigValidation:
    def test_bad_fractions_rejected(self):
        with pytest.raises(Exception):
            CrowdMinerConfig(
                thresholds=THRESHOLDS, quarantine=True, trust_floor=-0.1
            )

    def test_min_answers_positive(self):
        with pytest.raises(Exception):
            CrowdMinerConfig(
                thresholds=THRESHOLDS, quarantine=True, quarantine_min_answers=0
            )


def run_miner(crowd, budget=200, **overrides):
    config = CrowdMinerConfig(
        thresholds=THRESHOLDS, budget=budget, seed=6, **overrides
    )
    miner = CrowdMiner(crowd, config)
    miner.run()
    return miner


class TestCleanCrowdNoOp:
    def test_quarantine_alone_is_byte_identical(self, folk_population):
        # Acceptance bar: 0% adversaries + quarantine enabled must
        # select byte-identically to the plain miner.
        plain_crowd, _ = build_adversarial_crowd(folk_population, (), seed=5)
        plain = run_miner(plain_crowd)

        guarded_crowd, _ = build_adversarial_crowd(folk_population, (), seed=5)
        guarded = run_miner(guarded_crowd, quarantine=True)

        assert log_fingerprint(guarded) == log_fingerprint(plain)
        assert kb_fingerprint(guarded) == kb_fingerprint(plain)
        assert guarded.latent is not None  # quarantine installs the latent model
        assert guarded.latent.estimates > 0  # ...and it actually ran
        assert guarded.latent.quarantined == set()


class TestAdversarialSession:
    @pytest.fixture
    def spammed(self, folk_population):
        crowd, roles = build_adversarial_crowd(
            folk_population, (("spammer", 0.3),), seed=5
        )
        miner = run_miner(crowd, budget=400, quarantine=True, trust_floor=0.45)
        return miner, roles

    def test_spammers_get_quarantined(self, spammed):
        miner, roles = spammed
        quarantined = miner.latent.quarantined
        assert quarantined, "no member quarantined in a 30% spammer crowd"
        spammers = {mid for mid, role in roles.items() if role == "spammer"}
        # The catch must be mostly spammers, and most spammers must be
        # caught.
        true_positives = len(quarantined & spammers)
        assert true_positives / len(quarantined) >= 0.6
        assert true_positives / len(spammers) >= 0.5

    def test_quarantined_evidence_is_purged(self, spammed):
        miner, _ = spammed
        quarantined = miner.latent.quarantined
        for knowledge in miner.state.rules():
            assert not (set(knowledge.samples.member_ids) & quarantined), (
                f"purged member still has evidence on {knowledge.rule}"
            )

    def test_quarantined_members_not_routed(self, spammed):
        miner, _ = spammed
        assert not (
            set(miner.crowd.available_members()) & miner.latent.quarantined
        )

    def test_garbled_members_get_quarantined_too(self, folk_population):
        # A member who only ever sends unparseable text produces no
        # evidence to score — the malformed strike must still count
        # against them, or they hold a routing slot forever. Their trust
        # never moves after the first fit, so quarantine must not wait
        # for a re-estimation that changes it.
        crowd, roles = build_adversarial_crowd(
            folk_population, (("garbled", 0.2),), seed=5
        )
        miner = run_miner(crowd, budget=300, quarantine=True)
        garbled = {mid for mid, role in roles.items() if role == "garbled"}
        assert garbled and garbled <= miner.latent.quarantined
        # Caught after a handful of strikes each, not after the session
        # has absorbed every garbage reply they could send.
        malformed = miner.obs.snapshot().counters.get("answers.malformed", 0)
        assert malformed <= 6 * len(garbled)

    def test_counters_tell_the_story(self, spammed):
        miner, _ = spammed
        counters = miner.obs.snapshot().counters
        assert counters.get("quality.reestimates", 0) > 0
        assert counters.get("quality.quarantined", 0) == len(
            miner.latent.quarantined
        )
        assert counters.get("kb.members_purged", 0) >= 0
