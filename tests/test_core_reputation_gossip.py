"""Tests for the distributed (gossip) reputation system."""

import pytest

from repro.core.reputation import InteractionTag
from repro.core.reputation_gossip import GossipNode, GossipReputationNetwork


def tag(reporter, subject, frame=0, success=True, confidence=1.0):
    return InteractionTag(
        reporter_id=reporter,
        subject_id=subject,
        frame=frame,
        success=success,
        confidence=confidence,
    )


class TestGossipNode:
    def test_first_hand_only(self):
        node = GossipNode(1)
        with pytest.raises(ValueError):
            node.observe(tag(2, 3))

    def test_observation_updates_local_system(self):
        node = GossipNode(1)
        before = node.reputation_of(5)
        for frame in range(10):
            node.observe(tag(1, 5, frame=frame, success=False))
        assert node.reputation_of(5) < before

    def test_digest_roundtrip(self):
        a, b = GossipNode(1), GossipNode(2)
        for frame in range(5):
            a.observe(tag(1, 9, frame=frame, success=False))
        new = b.receive_digest(a.make_digest())
        assert new == 5
        assert b.reputation_of(9) < 1.0

    def test_duplicates_not_double_counted(self):
        a, b = GossipNode(1), GossipNode(2)
        a.observe(tag(1, 9, frame=0, success=False))
        digest = a.make_digest()
        assert b.receive_digest(digest) == 1
        assert b.receive_digest(digest) == 0
        assert len(b.make_digest()) == 1

    def test_digest_limit(self):
        node = GossipNode(1)
        for frame in range(100):
            node.observe(tag(1, 5, frame=frame))
        assert len(node.make_digest(limit=10)) == 10


class TestGossipNetwork:
    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            GossipReputationNetwork([1])

    def test_bad_fanout_rejected(self):
        network = GossipReputationNetwork([1, 2])
        with pytest.raises(ValueError):
            network.run_round(fanout=0)

    def test_tags_spread_to_everyone(self):
        network = GossipReputationNetwork(list(range(8)), seed=1)
        for frame in range(20):
            network.node(0).observe(tag(0, 7, frame=frame, success=False))
        rounds = network.run_until_quiet()
        assert rounds < 30
        for node in network.nodes.values():
            assert len(node.make_digest()) == 20  # all of it fits one digest

    def test_convergent_reputations(self):
        network = GossipReputationNetwork(list(range(8)), seed=2)
        for reporter in range(4):
            for frame in range(15):
                network.node(reporter).observe(
                    tag(reporter, 7, frame=frame, success=False)
                )
        network.run_until_quiet()
        assert network.reputation_spread(7) < 0.05

    def test_distributed_ban_agreement(self):
        """Every node independently reaches the same ban verdict."""
        network = GossipReputationNetwork(list(range(6)), seed=3)
        for reporter in range(5):
            for frame in range(20):
                network.node(reporter).observe(
                    tag(reporter, 5, frame=frame, success=False)
                )
            for frame in range(20):
                network.node(reporter).observe(
                    tag(reporter, 1 + (reporter % 3), frame=frame + 100,
                        success=True)
                )
        network.run_until_quiet()
        agreement = network.ban_agreement()
        assert agreement[5] >= 0.99
        assert {s for s, share in agreement.items() if share >= 0.5} == {5}

    def test_badmouthing_minority_fails(self):
        """Two colluders spamming failure tags cannot get an honest player
        banned network-wide: honest observations outweigh them and the
        colluders' own credibility sinks as they get reported."""
        network = GossipReputationNetwork(list(range(8)), seed=4)
        colluders = (6, 7)
        victim = 0
        # Colluders spam bad tags about the victim.
        for colluder in colluders:
            for frame in range(30):
                network.node(colluder).observe(
                    tag(colluder, victim, frame=frame, success=False)
                )
        # Honest players report normal interactions with the victim and
        # flag the colluders' own (cheating) behaviour.
        for reporter in range(1, 6):
            for frame in range(30):
                network.node(reporter).observe(
                    tag(reporter, victim, frame=frame, success=True)
                )
                for colluder in colluders:
                    network.node(reporter).observe(
                        tag(reporter, colluder, frame=frame, success=False)
                    )
        network.run_until_quiet()
        agreement = network.ban_agreement()
        assert agreement.get(victim, 0.0) < 0.3
        assert all(agreement.get(colluder, 0.0) >= 0.5 for colluder in colluders)

    def test_exchange_accounting(self):
        network = GossipReputationNetwork([1, 2, 3], seed=5)
        network.node(1).observe(tag(1, 2, success=False))
        network.run_round()
        assert network.rounds_run == 1
        assert network.tags_exchanged > 0
