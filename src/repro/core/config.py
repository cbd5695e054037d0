"""Central configuration for the Watchmen protocol.

All paper-given constants live here with their provenance:

- 50 ms frames (Quake III event loop);
- frequent IS updates every frame, guidance/position updates every second;
- proxy renewal "every couple of seconds" — 40 frames = 2 s by default;
- handoff follow-up two predecessors deep;
- IS of size 5, ±60° vision cone (slack-enlarged);
- ~100-bit signatures, ~700-bit average state updates;
- 150 ms tolerable latency ⇒ updates older than 3 frames count as loss;
- the detector's operating point — every allowance, threshold, confidence
  factor and fixed rating a verdict depends on — in the "detection
  calibration" section (tabulated in docs/PROTOCOL.md §5).

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

#: Quake III ground run speed, units/s — the default of the engine's
#: ``PhysicsConfig.max_ground_speed``.
MAX_GROUND_SPEED: Final[float] = 320.0

#: Quake III view turn rate, rad/s (human mouse flicks are fast) — the
#: default of the engine's ``PhysicsConfig.max_turn_rate``.
MAX_TURN_RATE: Final[float] = 12.0

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

#: 150 ms tolerable latency ⇒ updates older than 3 frames count as loss.
MAX_USEFUL_AGE_FRAMES: Final[int] = 3

# -- robustness (graceful degradation under crashes / partitions) ----------

#: Client-side proxy-death detection: if a proxy's own publisher heartbeat
#: (its 1 Hz position updates double as liveness beacons, Section VI) has
#: been silent this long, the node presumes it crashed and fails over.
#: It sits above one heartbeat interval (20 frames) but below two, so one
#: lost heartbeat — a 40-frame silence — can fail a node over away from a
#: live proxy.  That costs a duplicate first-hop send, not an update:
#: during a failover ``FirstHops.publish_proxies`` keeps the scheduled
#: proxy beside the stand-in.  It stays below the starvation scan and the
#: membership silence threshold, so failover precedes both, and below one
#: proxy period, the bound on how long a crash may strand a publisher.
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

# -- detection calibration (Section V; tabulated in docs/PROTOCOL.md §5) ------
#
# The detector's operating point: every number a verdict depends on, read by
# name where it is used — no constructor takes one, no class stores a copy —
# so re-calibrating is a diff here plus one corpus refresh.  "calibrated"
# = tuned on honest runs to the paper's ≤ 5 % false-positive operating point.

#: §V-A: "from 1 to 10 with regards to cheating probability", 1 most likely normal.
MIN_RATING: Final[float] = 1.0
#: §V-A: 10 most likely cheating; also what a self-proving violation rates.
MAX_RATING: Final[float] = 10.0
#: Relative excess over the allowance at which a rating saturates (~3×); calibrated.
RATING_SATURATION_EXCESS: Final[float] = 2.0

#: §V-A, c_P > c_IS > c_VS > c_O: the proxy sees every update of its client.
CONFIDENCE_PROXY: Final[float] = 1.0
#: §V-A: an IS subscriber gets frequent updates, every frame.
CONFIDENCE_INTEREST: Final[float] = 0.75
#: §V-A: a VS subscriber gets 1 Hz guidance plus dead reckoning.
CONFIDENCE_VISION: Final[float] = 0.55
#: §V-A: everyone else gets 1 Hz position updates only.
CONFIDENCE_OTHER: Final[float] = 0.30
#: §V-A "very old ... very low confidence": halved per proxy period of staleness.
STALENESS_HALFLIFE_FRAMES: Final[int] = 40

#: An honest avatar's run per frame (320 u/s × 50 ms = 16 u): every motion slack.
RUN_UNITS_PER_FRAME: Final[float] = MAX_GROUND_SPEED * FRAME_SECONDS
#: Position: travel tolerated, as a factor of the physics envelope; calibrated.
POSITION_TOLERANCE: Final[float] = 1.10
#: Position: slack never below this (frame-phase, quantization), units; calibrated.
POSITION_SLACK_FLOOR: Final[float] = 2.0
#: Position: abstain past one proxy period between updates (a respawn hides there).
POSITION_MAX_GAP_FRAMES: Final[int] = 40
#: Aim: yaw change tolerated, as a factor of the engine turn rate; calibrated.
AIM_TOLERANCE: Final[float] = 1.3
#: Aim: only short gaps are judged; yaw wraps make longer ones ambiguous.
AIM_MAX_GAP_FRAMES: Final[int] = 5
#: Action repetition (§V-A "more accuracy but higher costs"): headings replayed.
REPLAY_DIRECTIONS: Final[int] = 12
#: Action repetition: distance to the closest legal end tolerated, units; calibrated.
REPLAY_TOLERANCE: Final[float] = 2.5

#: Guidance: frames of observed movement a prediction is checked against; calibrated.
GUIDANCE_CHECK_FRAMES: Final[int] = 8
#: Guidance (§V-A ā + σ_a): σ_a multiples of honest deviation accepted; calibrated.
GUIDANCE_SIGMAS: Final[float] = 2.0
#: Guidance: honest samples needed before ā + kσ_a is trusted; calibrated.
GUIDANCE_MIN_SAMPLES: Final[int] = 8
#: Guidance: the permissive allowance used until then, units; calibrated.
GUIDANCE_FALLBACK_ALLOWANCE: Final[float] = 60.0
#: Guidance: the envelope never drops below one frame of running.
GUIDANCE_ALLOWANCE_FLOOR: Final[float] = RUN_UNITS_PER_FRAME
#: Guidance (§V-A "accuracy is obviously reduced"): sparser trackers abstain.
GUIDANCE_BRACKET_GAP_FRAMES: Final[int] = 4

#: Kill (§V-A "a rocket was effectively fired"): spawns kept two proxy periods.
PROJECTILE_MAX_AGE_FRAMES: Final[int] = 80
#: Kill: announced projectile speed may miss the weapon's by this fraction; calibrated.
PROJECTILE_SPEED_ERROR: Final[float] = 0.1
#: Kill: a projectile spawns within this radius of its shooter, units; calibrated.
SPAWN_ORIGIN_RADIUS: Final[float] = 64.0
#: Kill: frames of running granted on top of the shooter view's age; calibrated.
SPAWN_SLACK_FRAMES: Final[int] = 2
#: Kill (§V-A rocket-to-target distance): the splash radius, units.
PROJECTILE_HIT_RADIUS: Final[float] = 160.0
#: Kill: distance tolerated, as a factor of the weapon's effective range; calibrated.
KILL_RANGE_TOLERANCE: Final[float] = 1.15
#: Kill: deviations are rated against this fraction of the range; calibrated.
KILL_DEVIATION_FRACTION: Final[float] = 0.05
#: Kill: line of sight is judged only on views this fresh; calibrated.
LOS_FRESHNESS_FRAMES: Final[int] = 8
#: Kill: a projectile claim waits this long for its spawn (two hops + a frame).
CLAIM_DEFERRAL_FRAMES: Final[int] = 4

#: Subscription: frames of target movement outside the cone forgiven; calibrated.
SUBSCRIPTION_SLACK_FRAMES: Final[int] = 8
#: Subscription: ... plus this fraction of the vision radius; calibrated.
CONE_SLACK_FRACTION: Final[float] = 0.15
#: Subscription: the target is rewound this far (the 1 Hz tiers: ½ s and 1 s).
TARGET_REWIND_FRAMES: Final[tuple[int, ...]] = (10, 20)
#: Subscription: occlusion (the maphack signature) needs views this fresh, and a
#: pose's age (its turn allowance and discount) stops here; calibrated.
OCCLUSION_FRESHNESS_FRAMES: Final[int] = 4
#: Subscription: lateral offset of the occlusion probe's outer rays, units; calibrated.
OCCLUSION_PROBE_OFFSET: Final[float] = 40.0
#: Subscription: an occluded target deviates by this fraction of its distance; calibrated.
OCCLUSION_DEVIATION_FRACTION: Final[float] = 0.3
#: IS subscription (§V-A "sufficient accuracy"): rank allowed, in IS sizes.
IS_RANK_ALLOWANCE_FACTOR: Final[int] = 2
#: Subscription (Table I "repetitions"): repeats inside this window escalate ...
SUBSCRIPTION_REPEAT_WINDOW_FRAMES: Final[int] = 200
#: Subscription: ... by this much per repeat past the first two; calibrated.
SUBSCRIPTION_REPEAT_STEP: Final[float] = 1.5
#: Subscription: ... and only ratings above this count as repeats; calibrated.
ESCALATION_RATING_FLOOR: Final[float] = 2.0

#: Rate (Table I fast-rate): arrivals are counted over one proxy period.
RATE_WINDOW_FRAMES: Final[int] = 40
#: Rate: extra arrivals per window tolerated (jitter); calibrated.
RATE_BURST_SLACK: Final[int] = 2
#: Rate: missing updates tolerated per half window, as a fraction (loss); calibrated.
RATE_DEFICIT_SLACK_FRACTION: Final[float] = 0.2
#: Rate: ... and never fewer than this many; calibrated.
RATE_DEFICIT_SLACK_FLOOR: Final[float] = 2.0
#: Rate (Table I suppress-correct; twice it, escaping): stamp gap tolerated; calibrated.
RATE_SILENCE_ALLOWANCE_FRAMES: Final[int] = 8
#: Rate (Table I time cheat): twice the 150 ms (3-frame) tolerable latency.
RATE_SKEW_ALLOWANCE_FRAMES: Final[int] = 6
#: Rate: dead air tolerated at the start of a tenure (handoff + first hop).
SILENCE_GRACE_FRAMES: Final[int] = 16
#: Rate: a tenure silent past the grace rates this (under suspicion) ...; calibrated.
DEAD_AIR_BASE_RATING: Final[float] = 5.0
#: Rate: ... and this much more per further frame (suspicious after 5); calibrated.
DEAD_AIR_RATING_PER_FRAME: Final[float] = 0.2

#: Violation: circumstantial (starvation, exhausted retries) — the suspicion threshold.
CIRCUMSTANTIAL_RATING: Final[float] = 6.0
#: Violation: channel abuse — a struck-out token bucket, forged evidence.
ABUSE_RATING: Final[float] = 8.0
#: Violation (Table I consistency cheat): a state update sent around the proxy.
BYPASS_RATING: Final[float] = 9.0

#: Reputation (§V-B): a rating at or above this tags the interaction as failed.
SUSPICION_RATING_THRESHOLD: Final[float] = 6.0
#: Reputation: reports under this confidence are ignored (below CONFIDENCE_OTHER).
MIN_REPORT_CONFIDENCE: Final[float] = 0.25
#: Reputation (§V-B "set based on the success and false positive rates"); calibrated.
BAN_THRESHOLD: Final[float] = 0.85
#: Reputation (§V-B "a single detection ... does not result in banning").
BAN_MIN_REPORTS: Final[int] = 20
#: Membership (§VI "removed in the next round"): epochs from quorum to removal.
REMOVAL_DELAY_EPOCHS: Final[int] = 1

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
#: ``"paper"``: the protocol as published.  ``"hardened"`` adds graceful
#: degradation under crashes and loss — failover to the next verifiable
#: candidate proxy, ack/retry for the critical low-rate messages (state
#: updates stay fire-and-forget) — and the Byzantine tier: equivocation
#: cross-check and signed evidence, per-hop rate limiting with bounded
#: quarantine, starvation and ack-withholding suspicion.  Signature blame
#: (the delivering hop) and silent repeat screening are no rung's: they
#: hold on both.
PROFILES: Final[tuple[str, ...]] = ("paper", "hardened")


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

    # -- proxy architecture (Sections III-B, IV) -----------------------------
    proxy_period_frames: int = PROXY_PERIOD_FRAMES
    common_seed: bytes = b"watchmen-session"
    # -- subscriptions (Section VI latency optimizations) --------------------
    subscription_retention_frames: int = PROXY_PERIOD_FRAMES  # keep subs alive
    predict_ahead: bool = True  # subscribe for the *coming* frame
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
    #: so fault-free runs stay bit-identical to it.
    profile: str = "paper"
    #: The model checker shrinks the two silence thresholds (together with
    #: ``proxy_period_frames``) so failover and eviction rounds fit inside
    #: a bounded-exploration horizon.
    proxy_silence_threshold_frames: int = PROXY_SILENCE_THRESHOLD_FRAMES
    membership_silence_frames: int = MEMBERSHIP_SILENCE_FRAMES

    def __post_init__(self) -> None:
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
