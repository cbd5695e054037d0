"""Membership management: churn detection and agreed removals.

Section VI ("Churn & NAT"): "updates sent between players also act as a
heartbeat mechanism that easily identifies the players that have been
disconnected or left.  These nodes are removed in the next round, through
an agreement protocol, from the proxy pool."

This module implements that round:

1. **Heartbeat tracking** — every update a node consumes about player X
   refreshes ``last_heard[X]``; the 1 Hz position updates guarantee every
   node hears about every live player at least once a second.
2. **Proposal broadcast** — a node that has heard nothing about X for
   ``silence_threshold_frames`` broadcasts a signed
   :class:`RemovalProposal`.
3. **Quorum** — when a node has seen proposals about X from a majority of
   the (remaining) roster, the removal is *agreed*; it becomes effective
   at a deterministic future epoch boundary (``REMOVAL_DELAY_EPOCHS``
   after the quorum epoch), giving stragglers time to reach the same
   quorum — proposals propagate within a frame or two, so one epoch of
   delay suffices — and every honest node swaps to the same reduced
   :class:`~repro.core.proxy.ProxySchedule` at the same frame.

A malicious minority cannot evict an honest player: proposals are signed,
counted once per proposer, and a quorum requires a majority — while a
genuinely departed player is proposed by everyone, because everyone stops
hearing from him (Watchmen's default position updates are unforgeable
heartbeats).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import MEMBERSHIP_SILENCE_FRAMES, REMOVAL_DELAY_EPOCHS
from repro.crypto.signatures import Signature

__all__ = ["RemovalProposal", "MembershipView"]


@dataclass(frozen=True, slots=True)
class RemovalProposal:
    """A signed vote that ``subject_id`` has left the game."""

    sender_id: int
    subject_id: int
    frame: int
    sequence: int
    signature: Signature | None = None  # same envelope as every signed message


@dataclass
class MembershipView:
    """One node's view of who is (still) in the game."""

    roster: list[int]
    silence_threshold_frames: int = MEMBERSHIP_SILENCE_FRAMES  # 3 s without any update
    _last_heard: dict[int, int] = field(default_factory=dict)
    _proposals: dict[int, set[int]] = field(default_factory=dict)  # subject -> proposers
    _own_proposals: set[int] = field(default_factory=set)
    _scheduled_removals: dict[int, int] = field(default_factory=dict)  # subject -> epoch
    removed: set[int] = field(default_factory=set)
    #: Players scheduled for removal on *verified misbehavior evidence*
    #: (signed equivocation) rather than silence.  Unlike silence-based
    #: removals, a conviction is never rescinded by hearing from the
    #: subject — an equivocator keeps publishing, that is the attack.
    convicted: set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        if len(self.roster) < 2:
            raise ValueError("membership needs at least two players")
        for player in self.roster:
            self._last_heard[player] = 0

    # ---- heartbeats --------------------------------------------------------

    def heard_from(self, player_id: int, frame: int) -> None:
        """Any consumed update about a player refreshes his heartbeat.

        A fresh, verified message also *rescinds* accumulated silence
        evidence: proposals are votes that a player has left, and his own
        live voice refutes them.  Without this, a healed partition leaves
        quorums armed against players whose traffic merely routed through
        the cut — the false-eviction failure the chaos suite gates on.
        A removal already applied is never undone (roster changes stay
        deterministic); only pending suspicion is cleared.
        """
        last_heard = self._last_heard.get(player_id)
        if last_heard is None:
            return
        if frame > last_heard:
            self._last_heard[player_id] = frame
        if (
            # nothing pending (every heartbeat of a clean run): nothing to rescind
            (self._proposals or self._own_proposals or self._scheduled_removals)
            and player_id not in self.removed
            and player_id not in self.convicted
        ):
            self._proposals.pop(player_id, None)
            self._own_proposals.discard(player_id)
            self._scheduled_removals.pop(player_id, None)

    def last_heard_frame(self, player_id: int) -> int | None:
        """Latest frame any update about a player was consumed (None if
        the player is not tracked).  Frame 0 means "never heard" — every
        roster member starts there.  The proxy-failover layer reads this
        to detect a crashed proxy well before the removal threshold."""
        return self._last_heard.get(player_id)

    def silent_players(self, frame: int, self_id: int) -> list[int]:
        """Players this node has heard nothing about for too long."""
        return [
            player
            for player, last in self._last_heard.items()
            if player not in (self_id,)
            and player not in self.removed
            and frame - last > self.silence_threshold_frames
        ]

    # ---- proposals & quorum ---------------------------------------------------

    def should_propose(self, subject_id: int) -> bool:
        """Propose each departed player at most once."""
        return (
            subject_id not in self._own_proposals
            and subject_id not in self.removed
        )

    def note_own_proposal(self, subject_id: int) -> None:
        self._own_proposals.add(subject_id)

    def record_proposal(
        self, proposer_id: int, subject_id: int, frame: int, epoch: int
    ) -> bool:
        """Count a (verified) proposal; True when quorum was just reached.

        A quorum only *schedules* the removal when this node's own view
        corroborates the silence: under heavy correlated loss (all of a
        player's updates route through one proxy) a majority can cross
        the silence threshold while this node still hears the subject —
        votes alone must not evict a player the local heartbeat refutes.
        The votes stay counted; the next proposal re-checks, and a
        genuinely dead player keeps failing the liveness test.
        """
        if subject_id in self.removed or subject_id in self._scheduled_removals:
            return False
        if proposer_id not in self.current_roster():
            return False
        voters = self._proposals.setdefault(subject_id, set())
        if proposer_id in voters:
            return False
        voters.add(proposer_id)
        locally_silent = (
            frame - self._last_heard.get(subject_id, 0)
            > self.silence_threshold_frames
        )
        if len(voters) >= self.quorum_size() and locally_silent:
            self._scheduled_removals[subject_id] = epoch + REMOVAL_DELAY_EPOCHS
            return True
        return False

    def convict(self, subject_id: int, epoch_due: int) -> bool:
        """Schedule a quorum-free removal backed by self-certifying evidence.

        Silence proposals need a majority because any minority could lie;
        equivocation evidence carries its own proof (two valid signatures,
        one sequence, two payloads), so a single verified message suffices.
        Idempotent per subject: the first conviction pins the due epoch and
        repeats are ignored, so duplicate or reordered evidence cannot
        move the removal.  Returns True when the conviction was recorded.
        """
        if subject_id in self.removed or subject_id in self.convicted:
            return False
        if subject_id not in self.roster:
            return False
        self.convicted.add(subject_id)
        self._scheduled_removals[subject_id] = epoch_due
        return True

    def quorum_size(self) -> int:
        """Majority of the players still considered present."""
        return len(self.current_roster()) // 2 + 1

    def current_roster(self) -> list[int]:
        return [p for p in self.roster if p not in self.removed]

    # ---- epoch processing ----------------------------------------------------

    def removals_due(self, epoch: int) -> set[int]:
        """Agreed removals whose effective epoch has arrived."""
        return {
            subject
            for subject, due_epoch in self._scheduled_removals.items()
            if epoch >= due_epoch
        }

    def apply_removals(self, epoch: int) -> set[int]:
        """Apply due removals; returns the set applied (may be empty)."""
        due = self.removals_due(epoch)
        for subject in due:
            self.removed.add(subject)
            del self._scheduled_removals[subject]
            self._proposals.pop(subject, None)
        return due

    def proposal_count(self, subject_id: int) -> int:
        return len(self._proposals.get(subject_id, ()))
