"""The Byzantine tier: what counts as evidence, and who takes the blame.

The witness role beyond the game-state checks (docs/PROTOCOL.md §10): the
detection record — equivocations, quarantines, circumstantial suspicions —
and the blame policies; the node rates, convicts and broadcasts.  On
the ``paper`` rung it is inert: scans yield nothing, evidence is
ignored, an unanswered retry ladder suspects no one.  Signature blame is
not a rung's policy: on every rung it falls on the hop that handed the
frame over.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.core.config import (
    BYZANTINE_STARVATION_FRAMES,
    FRAMES_PER_SECOND,
    REMOVAL_DELAY_EPOCHS,
)
from repro.core.membership import MembershipView
from repro.core.messages import MisbehaviorEvidence
from repro.core.proxy import ProxySchedule
from repro.core.wire import encode_signable
from repro.crypto.signatures import HmacSigner

#: :meth:`EvidenceLog.weigh` verdicts.
VALID, FORGED, IGNORED = "valid", "forged", "ignored"


class EvidenceLog:
    """One node's record of Byzantine misbehaviour it detected or was shown."""

    def __init__(
        self,
        player_id: int,
        signer: HmacSigner,
        epoch_of_frame: Callable[[int], int],
        hardened: bool,
    ) -> None:
        self.player_id = player_id
        self._signer = signer
        self._epoch_of_frame = epoch_of_frame
        self._hardened = hardened
        #: accused players this node already broadcast evidence about
        self._evidence_emitted: set[int] = set()
        #: (proxy, subject, epoch) starvation suspicions already rated
        self._starvation_rated: set[tuple[int, int, int]] = set()
        #: (frame, src) per quarantine imposed — the chaos harness gates
        #: ``honest_quarantines == 0`` on these
        self.quarantine_events: list[tuple[int, int]] = []
        #: (frame, accused) per cryptographically detected equivocation
        self.equivocation_events: list[tuple[int, int]] = []
        #: (frame, subject, kind) circumstantial byzantine suspicions
        #: (kind: "tamper_hop" | "starvation" | "ack_withhold")
        self.suspicion_events: list[tuple[int, int, str]] = []

    # ---- blame policies ---------------------------------------------------

    def blame_bad_signature(self, frame: int, src: int, sender: int) -> str:
        """Why ``src`` is rated for a message that fails its signature.

        The blame is always the hop that handed it over: a frame that fails
        its named sender's key is not that sender's doing (its signing path
        produces valid bytes or nothing), so whoever delivered it made it
        or mutated it in flight.  When that hop is not the named sender it
        is also a tampering-hop suspicion.
        """
        if src != sender:
            self.suspicion_events.append((frame, src, "tamper_hop"))
            return "relayed message fails its signature (tampering hop)"
        return "invalid or missing signature"

    def withholds_acks(self, frame: int, destination: int, alive: bool) -> bool:
        """Is an exhausted retry ladder worth a suspicion rating?

        The whole ladder went unanswered while the destination kept
        heartbeating: it processes traffic but never acknowledges (ack
        withholding) — or the path is asymmetrically cut, hence the low
        confidence the node rates it with.
        """
        if not (self._hardened and alive):
            return False
        self.suspicion_events.append((frame, destination, "ack_withhold"))
        return True

    def quarantined(self, frame: int, src: int) -> None:
        self.quarantine_events.append((frame, src))

    def equivocated(self, frame: int, accused: int) -> bool:
        """Record a detected equivocation; true the first time per accused
        (evidence is broadcast once, every detection is rated)."""
        self.equivocation_events.append((frame, accused))
        first = accused not in self._evidence_emitted
        self._evidence_emitted.add(accused)
        return first

    # ---- evidence from others ---------------------------------------------

    def weigh(self, evidence: MisbehaviorEvidence) -> str:
        """Re-verify a self-certifying proof; trust nothing about it.

        ``FORGED`` evidence is itself an accusation forgery attempt (or
        corruption): the node rates the reporter, not the accused.
        """
        if not self._hardened:
            return IGNORED
        first, second = evidence.first, evidence.second
        if (
            first.sender_id != evidence.accused_id
            or second.sender_id != evidence.accused_id
        ):
            return FORGED
        if evidence.accused_id == self.player_id:
            return FORGED  # nodes do not convict themselves on hearsay
        if first.sequence != second.sequence:
            return FORGED
        # The nested updates have no buffer of their own: the evidence
        # frame carries them as fields, so their signed bytes are rebuilt.
        signed_first, signed_second = encode_signable(first), encode_signable(second)
        if signed_first == signed_second:
            return FORGED  # identical retransmission, not equivocation
        for update, signed in ((first, signed_first), (second, signed_second)):
            if update.signature is None or not self._signer.verify(
                update.sender_id, signed, update.signature
            ):
                return FORGED
        return VALID

    def due_epoch(self, evidence: MisbehaviorEvidence) -> int:
        """When a conviction on ``evidence`` takes effect.

        A pure function of the *evidence* frame, so every node that
        accepts the same evidence schedules the same removal epoch and
        membership views stay in agreement at quiescence.
        """
        return self._epoch_of_frame(evidence.frame) + REMOVAL_DELAY_EPOCHS

    # ---- selective forwarding ---------------------------------------------

    def scan_starvation(
        self,
        frame: int,
        epoch: int,
        membership: MembershipView,
        schedule: ProxySchedule,
    ) -> Iterator[tuple[int, int, int]]:
        """``(proxy, subject, frames dark)``: a peer is dark while its proxy is live.

        If we have not heard *anything* attributable to a subject for
        ``BYZANTINE_STARVATION_FRAMES`` but the subject's proxy is
        demonstrably alive (heard within one publishing interval), the
        likeliest explanation is the proxy eating the subject's traffic.
        Worth a low-confidence rating only — partitions look the same from
        here, and the defense-burst machinery is what actually protects
        the victim from eviction.
        """
        if not self._hardened or frame == 0 or frame % FRAMES_PER_SECOND != 0:
            return
        for subject in membership.current_roster():
            if subject == self.player_id:
                continue
            last = membership.last_heard_frame(subject)
            if last is None or frame - last <= BYZANTINE_STARVATION_FRAMES:
                continue
            if membership.proposal_count(subject) > 0:
                continue  # removal machinery already has the case
            # Blame the proxy that held the subject when he went dark, not
            # the current one: the detection lag spans an epoch boundary,
            # and after rotation the starving proxy is the *previous* hop.
            proxy = schedule.proxy_of(subject, self._epoch_of_frame(last + 1))
            if proxy in (self.player_id, subject):
                continue
            proxy_last = membership.last_heard_frame(proxy)
            if proxy_last is None or frame - proxy_last > FRAMES_PER_SECOND:
                continue  # proxy not demonstrably alive; could be a partition
            key = (proxy, subject, epoch)
            if key in self._starvation_rated:
                continue
            self._starvation_rated.add(key)
            self.suspicion_events.append((frame, proxy, "starvation"))
            yield proxy, subject, frame - last
