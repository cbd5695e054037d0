"""Distributed reputation: gossip aggregation of interaction tags.

Section V-B offers two collection points for detection results: "(1) a
centralized game lobby ... or (2) a distributed reputation system".  The
central lobby is :class:`~repro.core.reputation.ReputationBoard`; this
module is the distributed alternative: every player keeps a local
reputation system and periodically gossips digests of his *own*
observations to random peers.  Tags are deduplicated by origin, so
relaying cannot double-count, and the underlying
:class:`~repro.core.reputation.BetaReputation` credibility weighting keeps
bad-mouthing by identified cheaters ineffective — "more elaborate
reputation systems incorporate the notions of confidence and credibility
... resulting in an improved robustness".

The exchange itself is transport-agnostic (tags are tiny, signed records
in a real deployment); :class:`GossipReputationNetwork` drives rounds over
an in-memory peer set, which is what the convergence experiments need.
"""

from __future__ import annotations

from random import Random
from dataclasses import dataclass, field

from typing import Callable

from repro.core.reputation import BetaReputation, InteractionTag

__all__ = ["GossipNode", "GossipReputationNetwork"]

#: Rounds after which an epidemic that has not gone quiet is cut off.
MAX_GOSSIP_ROUNDS = 64


def _tag_key(tag: InteractionTag) -> tuple:
    """Identity of an observation (for exactly-once accounting)."""
    return (tag.reporter_id, tag.subject_id, tag.frame, tag.check, tag.success)


@dataclass
class GossipNode:
    """One player's local reputation state plus his gossip log."""

    node_id: int
    system: BetaReputation = field(default_factory=BetaReputation)
    _log: list[InteractionTag] = field(default_factory=list)
    _seen: set = field(default_factory=set)

    def observe(self, tag: InteractionTag) -> None:
        """Record a first-hand observation (this node is the reporter)."""
        if tag.reporter_id != self.node_id:
            raise ValueError("observe() is for first-hand tags only")
        self._absorb(tag)

    def make_digest(self, limit: int = 64) -> list[InteractionTag]:
        """The most recent known tags to share with a peer."""
        return self._log[-limit:]

    def receive_digest(self, tags: list[InteractionTag]) -> int:
        """Merge a peer's digest; returns how many tags were new."""
        new = 0
        for tag in tags:
            if self._absorb(tag):
                new += 1
        return new

    def _absorb(self, tag: InteractionTag) -> bool:
        key = _tag_key(tag)
        if key in self._seen:
            return False
        self._seen.add(key)
        self._log.append(tag)
        self.system.report(tag)
        return True

    def reputation_of(self, subject_id: int) -> float:
        return self.system.reputation_of(subject_id)

    def banned(self) -> set[int]:
        return self.system.banned()


class GossipReputationNetwork:
    """Drives gossip rounds among a set of nodes."""

    def __init__(self, node_ids: list[int], seed: int = 0,
                 system_factory: Callable[[], BetaReputation] | None = None) -> None:
        if len(node_ids) < 2:
            raise ValueError("gossip needs at least two nodes")
        factory = system_factory or BetaReputation
        self.nodes = {
            node_id: GossipNode(node_id, system=factory())
            for node_id in node_ids
        }
        self.rng = Random(seed)
        self.rounds_run = 0
        self.tags_exchanged = 0

    def node(self, node_id: int) -> GossipNode:
        return self.nodes[node_id]

    def run_round(self, fanout: int = 1, digest_size: int = 64) -> int:
        """One gossip round: every node pushes a digest to ``fanout`` peers."""
        if fanout < 1:
            raise ValueError("fanout must be positive")
        new_total = 0
        ids = sorted(self.nodes)
        for node_id in ids:
            node = self.nodes[node_id]
            peers = [p for p in ids if p != node_id]
            for peer_id in self.rng.sample(peers, min(fanout, len(peers))):
                digest = node.make_digest(digest_size)
                new_total += self.nodes[peer_id].receive_digest(digest)
                self.tags_exchanged += len(digest)
        self.rounds_run += 1
        return new_total

    def run_until_quiet(self, fanout: int = 2, digest_size: int = 128) -> int:
        """Gossip until a round spreads nothing new; returns rounds used
        (at most ``MAX_GOSSIP_ROUNDS``)."""
        for round_index in range(MAX_GOSSIP_ROUNDS):
            if self.run_round(fanout=fanout, digest_size=digest_size) == 0:
                return round_index + 1
        return MAX_GOSSIP_ROUNDS

    # ---- convergence queries ------------------------------------------------

    def ban_agreement(self) -> dict[int, float]:
        """For each ever-banned subject, the fraction of nodes banning him."""
        votes: dict[int, int] = {}
        for node in self.nodes.values():
            for subject in node.banned():
                votes[subject] = votes.get(subject, 0) + 1
        return {
            subject: count / len(self.nodes) for subject, count in votes.items()
        }

    def reputation_spread(self, subject_id: int) -> float:
        """Max disagreement between nodes about one subject's reputation."""
        values = [n.reputation_of(subject_id) for n in self.nodes.values()]
        return max(values) - min(values)
