"""Central configuration for the Watchmen protocol.

All paper-given constants live here with their provenance:

- 50 ms frames (Quake III event loop);
- frequent IS updates every frame, guidance/position updates every second;
- proxy renewal "every couple of seconds" — 40 frames = 2 s by default;
- handoff follow-up two predecessors deep;
- IS of size 5, ±60° vision cone (slack-enlarged);
- ~100-bit signatures, ~700-bit average state updates;
- 150 ms tolerable latency ⇒ updates older than 3 frames count as loss.

The module-level ``Final`` names below are the single source of truth for
these numbers; other modules must import them rather than re-state the
literals (enforced by lint rule C601).  This module is an import leaf —
it depends on the stdlib only — so any module in ``repro.{core,game,net}``
can import it without creating a package cycle (``repro.core.__init__``
resolves its re-exports lazily for the same reason).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Final

if TYPE_CHECKING:
    from repro.game.interest import InterestConfig

#: 50 ms frame — the Quake III event-loop period (Section II).
FRAME_SECONDS: Final[float] = 0.05

#: Frames per wall-clock second; the 1 Hz dissemination tiers (guidance,
#: position-only) fire once per this many frames (Section III-A).
FRAMES_PER_SECOND: Final[int] = 20

#: IS tier: a frequent update every frame (50 ms).
FREQUENT_INTERVAL_FRAMES: Final[int] = 1

#: Proxy renewal "every couple of seconds" — 40 frames = 2 s (Section IV).
PROXY_PERIOD_FRAMES: Final[int] = 40

#: Handoff follow-up depth: two previous proxies (Section IV).
HANDOFF_DEPTH: Final[int] = 2

#: "the size of the IS can be fixed (e.g., 5)" (Section III-A).
INTEREST_SET_SIZE: Final[int] = 5

#: Quake III ±60° vision cone half-angle (Section III-A, Figure 2).
VISION_HALF_ANGLE: Final[float] = math.radians(60.0)

#: Cone enlargement so rapid spins do not miss avatars (Section III-A).
VISION_SLACK: Final[float] = math.radians(15.0)

#: ~100-bit lightweight signatures (Section IV).
SIGNATURE_BITS: Final[int] = 100

#: ~700-bit average full (non-delta) state update (Section IV).
STATE_UPDATE_BITS: Final[int] = 700

#: Nominal payload sizes of the remaining message classes, and the
#: UDP/IP + game header every datagram pays.
POSITION_UPDATE_BITS: Final[int] = 220
GUIDANCE_BITS: Final[int] = 420
SUBSCRIPTION_BITS: Final[int] = 160
HEADER_BITS: Final[int] = 224

#: Frames of observed movement a guidance prediction is checked against.
GUIDANCE_CHECK_FRAMES: Final[int] = 8

#: 150 ms tolerable latency ⇒ updates older than 3 frames count as loss.
MAX_USEFUL_AGE_FRAMES: Final[int] = 3

# -- robustness (graceful degradation under crashes / partitions) ----------

#: Client-side proxy-death detection: if a proxy's own publisher heartbeat
#: (its 1 Hz position updates double as liveness beacons, Section VI) has
#: been silent this long, the node presumes it crashed and fails over.
#: Must sit above one position-update interval (20 frames, so one lost
#: heartbeat is tolerated) and below the 60-frame membership silence
#: threshold, so failover always precedes eviction.
PROXY_SILENCE_THRESHOLD_FRAMES: Final[int] = 30

#: Bound on the failover walk along the verifiable candidate schedule
#: (candidate 0 is the scheduled proxy itself).
MAX_FAILOVER_ATTEMPTS: Final[int] = 3

#: Reliable-delivery retry ladder for the critical low-rate messages:
#: first retry after this many frames, doubling per attempt ...
ACK_RETRY_BASE_FRAMES: Final[int] = 4

#: ... capped at this backoff (frames) ...
ACK_RETRY_MAX_BACKOFF_FRAMES: Final[int] = 32

#: ... and abandoned after this many retransmissions.
ACK_RETRY_MAX_ATTEMPTS: Final[int] = 4

#: Membership silence threshold: a peer unheard-from for this many frames
#: becomes eligible for a removal proposal (three 1 Hz heartbeat periods;
#: Section VI).  Must sit above PROXY_SILENCE_THRESHOLD_FRAMES so client
#: failover always precedes eviction.
MEMBERSHIP_SILENCE_FRAMES: Final[int] = 60

#: While under a removal challenge a live player heartbeats directly to
#: the roster (bypassing its possibly-dead proxy) at this cadence.  Always
#: on: it costs nothing until someone is actually accused.
DEFENSE_INTERVAL_FRAMES: Final[int] = 5

#: A remote view older than two 1 Hz heartbeat periods cannot be explained
#: by the dissemination tiers — the publisher's path is black-holed.  The
#: chaos harness samples this per (observer, subject) pair to measure
#: staleness during/after an injected fault.
STALE_VIEW_AGE_FRAMES: Final[int] = 2 * FRAMES_PER_SECOND

# -- Byzantine hardening (repro.faults.byzantine; gated, default OFF) ------

#: Token-bucket refill per (receiver, transmitting hop) link per frame.
#: Honest sustained traffic on one link is a handful of messages per
#: frame (a proxy fanning out the frequent tier for the clients it
#: hosts); the refill sits well above that so honest links never strike.
BYZANTINE_RATE_MSGS_PER_FRAME: Final[int] = 8

#: Token-bucket capacity.  Must absorb legitimate one-frame bursts —
#: epoch-boundary subscription fan-out, handoff summaries and liveness
#: defense bursts all land together — which stay under a couple dozen
#: messages on one link even at chaos-matrix scale.
BYZANTINE_RATE_BURST: Final[int] = 80

#: Empty-bucket strikes before a link is quarantined.  More than one, so
#: a single freak burst is forgiven; a flood drains the bucket every
#: frame and crosses this within a few frames.
BYZANTINE_QUARANTINE_STRIKES: Final[int] = 3

#: Quarantine duration: one proxy period, after which the link gets a
#: fresh bucket — bounded, so a false positive can never silence a
#: player for good.
BYZANTINE_QUARANTINE_FRAMES: Final[int] = PROXY_PERIOD_FRAMES

#: Selective-forwarding suspicion: a roster member dark for this long
#: while his proxy demonstrably keeps speaking is circumstantial
#: evidence against the *proxy* (it cannot be the publisher's own
#: silence — the proxy's liveness proves the path out of that corner of
#: the network works).  Two 1 Hz heartbeat periods, matching the
#: staleness definition.
BYZANTINE_STARVATION_FRAMES: Final[int] = 2 * FRAMES_PER_SECOND

# -- bursty-loss network model (NetworkConfig.loss_model) -------------------

#: Two-state Gilbert–Elliott chain per link: per packet the state flips
#: good→bad / bad→good with these probabilities, then the packet is lost
#: at the new state's rate.  ~5 % stationary loss concentrated in bursts
#: (stationary P[bad] = 0.05/(0.05+0.25) ≈ 0.167 at 30 % bad-state loss).
GE_P_GOOD_TO_BAD: Final[float] = 0.05
GE_P_BAD_TO_GOOD: Final[float] = 0.25
GE_LOSS_GOOD: Final[float] = 0.0
GE_LOSS_BAD: Final[float] = 0.3


#: The robustness ladder, lowest rung first (docs/ROBUSTNESS.md).
#: ``"paper"``: the protocol as published.  ``"resilient"`` adds graceful
#: degradation under crashes and loss: failover to the next verifiable
#: candidate proxy, and ack/retry for the critical low-rate messages (state
#: updates stay fire-and-forget).  ``"hardened"`` adds the Byzantine tier:
#: equivocation cross-check and signed evidence, tamper attribution to the
#: relaying hop, per-hop rate limiting with bounded quarantine, starvation
#: and ack-withholding suspicion.  A mechanism is on from its rung upward,
#: so ``PROFILES.index(config.profile)`` compares.
PROFILES: Final[tuple[str, ...]] = ("paper", "resilient", "hardened")


def _default_interest() -> "InterestConfig":
    # Imported lazily so this module stays an import leaf (game.interest
    # itself imports the vision-cone constants from here).
    from repro.game.interest import InterestConfig

    return InterestConfig()


@dataclass(frozen=True)
class WatchmenConfig:
    """What a caller varies about a Watchmen session.

    Everything else the protocol fixes is a module constant above.
    """

    frame_seconds: float = FRAME_SECONDS
    # -- proxy architecture (Sections III-B, IV) -----------------------------
    proxy_period_frames: int = PROXY_PERIOD_FRAMES
    common_seed: bytes = b"watchmen-session"
    # -- subscriptions (Section VI latency optimizations) --------------------
    subscription_retention_frames: int = PROXY_PERIOD_FRAMES  # keep subs alive
    predict_ahead: bool = True  # subscribe for the *coming* frame
    relax_first_hop: bool = False  # send updates directly (lower security)
    # -- interest management --------------------------------------------------
    interest: InterestConfig = field(default_factory=_default_interest)
    # -- key width (Section IV: ~100-bit lightweight signatures) --------------
    signature_bits: int = SIGNATURE_BITS
    # -- verification depth ----------------------------------------------------
    #: Enable the high-cost action-repetition replay check at proxies
    #: (Section V-A's "more accuracy but higher costs" option).
    action_repetition: bool = False
    # -- robustness ladder (repro.faults; docs/ROBUSTNESS.md) ----------------
    #: One of :data:`PROFILES`.  The default rung is the paper's protocol,
    #: so fault-free runs stay bit-identical to it; each later rung keeps
    #: everything the one before it switched on.
    profile: str = "paper"
    #: The model checker shrinks the two silence thresholds (together with
    #: ``proxy_period_frames``) so failover and eviction rounds fit inside
    #: a bounded-exploration horizon.
    proxy_silence_threshold_frames: int = PROXY_SILENCE_THRESHOLD_FRAMES
    membership_silence_frames: int = MEMBERSHIP_SILENCE_FRAMES

    def __post_init__(self) -> None:
        if self.frame_seconds <= 0:
            raise ValueError("frame_seconds must be positive")
        if self.proxy_period_frames <= 0:
            raise ValueError("proxy_period_frames must be positive")
        if self.signature_bits <= 0:
            raise ValueError("signature_bits must be positive")
        if self.profile not in PROFILES:
            raise ValueError(f"profile must be one of {PROFILES}")
        if self.proxy_silence_threshold_frames <= 0:
            raise ValueError("proxy_silence_threshold_frames must be positive")
        if self.membership_silence_frames <= self.proxy_silence_threshold_frames:
            raise ValueError(
                "membership_silence_frames must exceed the proxy silence "
                "threshold so failover precedes eviction"
            )

    def epoch_of_frame(self, frame: int) -> int:
        """The proxy epoch a frame belongs to."""
        if frame < 0:
            raise ValueError("frame must be non-negative")
        return frame // self.proxy_period_frames
