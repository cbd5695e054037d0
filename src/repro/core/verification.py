"""Mutual verification: sanity checks, ratings and confidence (Section V-A).

Every player can verify every other player; accuracy depends on vantage
point.  Each check rates an observed action "from 1 to 10 with regards to
cheating probability (10 most likely cheating, 1 most likely normal)":
behaviour inside the expected envelope rates 1, and the rating grows with
the deviation.  Ratings are modulated by a **confidence factor** — proxies
highest, then IS witnesses, VS witnesses, and others
(c_P > c_IS > c_VS > c_O) — further discounted by update staleness.

The expected envelopes come from the same code the simulator runs
(physics, weapons, interest), plus calibration against honest behaviour:
e.g. a guidance message is acceptable while the area between predicted and
actual trajectory stays below ā + σ_a observed for honest players, which
keeps the false-positive rate at the paper's ≤5 % operating point.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Callable, Iterator, NamedTuple, Sequence

from repro.core.config import (
    AIM_MAX_GAP_FRAMES,
    AIM_TOLERANCE,
    CONE_SLACK_FRACTION,
    CONFIDENCE_INTEREST,
    CONFIDENCE_OTHER,
    CONFIDENCE_PROXY,
    CONFIDENCE_VISION,
    ESCALATION_RATING_FLOOR,
    FRAME_SECONDS,
    FREQUENT_INTERVAL_FRAMES,
    GUIDANCE_ALLOWANCE_FLOOR,
    GUIDANCE_BRACKET_GAP_FRAMES,
    GUIDANCE_CHECK_FRAMES,
    GUIDANCE_FALLBACK_ALLOWANCE,
    GUIDANCE_MIN_SAMPLES,
    GUIDANCE_SIGMAS,
    IS_RANK_ALLOWANCE_FACTOR,
    KILL_DEVIATION_FRACTION,
    KILL_RANGE_TOLERANCE,
    LOS_FRESHNESS_FRAMES,
    MAX_RATING,
    MAX_TURN_RATE,
    MIN_RATING,
    OCCLUSION_DEVIATION_FRACTION,
    OCCLUSION_FRESHNESS_FRAMES,
    OCCLUSION_PROBE_OFFSET,
    POSITION_MAX_GAP_FRAMES,
    POSITION_SLACK_FLOOR,
    POSITION_TOLERANCE,
    PROJECTILE_HIT_RADIUS,
    PROJECTILE_MAX_AGE_FRAMES,
    PROJECTILE_SPEED_ERROR,
    RATE_BURST_SLACK,
    RATE_DEFICIT_SLACK_FLOOR,
    RATE_DEFICIT_SLACK_FRACTION,
    RATE_SILENCE_ALLOWANCE_FRAMES,
    RATE_SKEW_ALLOWANCE_FRAMES,
    RATE_WINDOW_FRAMES,
    RATING_SATURATION_EXCESS,
    RUN_UNITS_PER_FRAME,
    SPAWN_ORIGIN_RADIUS,
    SPAWN_SLACK_FRAMES,
    STALENESS_HALFLIFE_FRAMES,
    SUBSCRIPTION_REPEAT_STEP,
    SUBSCRIPTION_REPEAT_WINDOW_FRAMES,
    SUBSCRIPTION_SLACK_FRAMES,
    TARGET_REWIND_FRAMES,
)
from repro.game.avatar import AvatarSnapshot
from repro.game.deadreckoning import (
    GuidancePrediction,
)
from repro.game.gamemap import EYE_HEIGHT, GameMap, eye_position
from repro.game.interest import InterestConfig, ObserverFrame
from repro.game.physics import Physics
from repro.game.vector import Vec3
from repro.game.weapons import WEAPONS
from repro.obs.registry import get_registry

__all__ = [
    "Confidence",
    "CheckKind",
    "CheatRating",
    "DetailTemplate",
    "SUSPICIOUS_ABOVE",
    "RatingLog",
    "DeviationCalibration",
    "PositionVerifier",
    "AimVerifier",
    "GuidanceVerifier",
    "KillVerifier",
    "ProjectileTracker",
    "SubscriptionVerifier",
    "RateVerifier",
    "rating_from_deviation",
]

class Confidence:
    """Confidence factors by vantage point: c_P > c_IS > c_VS > c_O."""

    PROXY = CONFIDENCE_PROXY
    INTEREST = CONFIDENCE_INTEREST
    VISION = CONFIDENCE_VISION
    OTHER = CONFIDENCE_OTHER

    @staticmethod
    def staleness_discount(staleness_frames: int) -> float:
        """Old evidence gets low confidence ("discrepancy of a new update
        with a very old guidance message is assigned a very low confidence")."""
        if staleness_frames <= 0:
            return 1.0
        return 0.5 ** (staleness_frames / STALENESS_HALFLIFE_FRAMES)


class CheckKind:
    """The verification families of Section V-A / Figure 6."""

    POSITION = "position"
    GUIDANCE = "guidance"
    KILL = "kill"
    IS_SUBSCRIPTION = "is-sub"
    VS_SUBSCRIPTION = "vs-sub"
    RATE = "rate"
    AIM = "aim"

    ALL = (POSITION, GUIDANCE, KILL, IS_SUBSCRIPTION, VS_SUBSCRIPTION, RATE, AIM)


#: A verdict is suspicious when its rating is above this (``MIN_RATING`` up
#: to float noise): :attr:`CheatRating.suspicious` and the node's filing path.
SUSPICIOUS_ABOVE = MIN_RATING + 1e-9


class CheatRating(NamedTuple):
    """One verifier's verdict on one observed action."""

    verifier_id: int
    subject_id: int
    frame: int
    check: str
    rating: float  # 1 (normal) .. 10 (most likely cheating)
    confidence: float  # vantage-point confidence after staleness discount
    deviation: float  # the raw metric (u, u·s, rank, rate ratio, ...)
    detail: str = ""

    @property
    def score(self) -> float:
        """Confidence-weighted suspicion used for detection decisions."""
        return self.rating * self.confidence

    @property
    def suspicious(self) -> bool:
        return self.rating > SUSPICIOUS_ABOVE


#: A detail that is text around the verdict's own deviation: called with the
#: ``deviation`` column's value, it returns the ``detail`` (a ``str.format``).
DetailTemplate = Callable[[float], str]


class RatingLog(Sequence[CheatRating]):
    """Every verdict one verifier filed, in filing order, as typed columns.

    A row spans six ``array`` columns: ints as wide as the wire's, the three
    floats, and one ``kind`` index into this log's table of distinct kinds.
    A kind is a check with either a literal detail or a
    :data:`DetailTemplate`, which is formatted from the row's own
    ``deviation`` when the row is read, so filing writes numbers only.
    Nothing is tracked per row (its size: docs/OBSERVABILITY.md, "Where
    the verdicts are").  Reading rebuilds an equal ``CheatRating``.
    """

    def __init__(self, verifier_id: int) -> None:
        #: Whose log this is: a whole verdict in another's name is refused.
        self.verifier_id = verifier_id
        #: subject, frame, kind, rating, confidence, deviation
        self._columns = (array("q"), array("q"), array("I"), array("d"), array("d"), array("d"))
        #: check -> detail or template -> kind: the index into the two lists below
        self._kinds: dict[str, dict[str | DetailTemplate, int]] = {}
        self._checks: list[str] = []
        self._details: list[str | DetailTemplate] = []
        #: One object per distinct literal ``detail``.
        self._interned: dict[str, str] = {}

    def file(
        self,
        subject: int,
        frame: int,
        check: str,
        rating: float,
        confidence: float,
        deviation: float,
        detail: str | DetailTemplate,
    ) -> None:
        """File one verdict of this log's verifier, as numbers."""
        try:
            kind = self._kinds[check][detail]
        except KeyError:  # once per kind: a few dozen times a log
            kind = self._kinds.setdefault(check, {})[detail] = len(self._checks)
            self._checks.append(check)
            self._details.append(
                self._interned.setdefault(detail, detail) if isinstance(detail, str) else detail
            )
        subjects, frames, kinds, values, confidences, deviations = self._columns
        subjects.append(subject)  # an int beyond the column raises, never wraps
        frames.append(frame)
        kinds.append(kind)
        values.append(rating)
        confidences.append(confidence)
        deviations.append(deviation)

    def fields_of(self, rating: CheatRating) -> tuple:
        """A whole verdict's fields after ``verifier_id`` — :meth:`file`'s
        arguments.  A verdict in another verifier's name raises ``ValueError``."""
        if rating.verifier_id != self.verifier_id:
            raise ValueError(
                f"verifier {rating.verifier_id} filing in {self.verifier_id}'s log"
            )
        return rating[1:]

    def __len__(self) -> int:
        return len(self._columns[-1])

    def __iter__(self) -> Iterator[CheatRating]:
        return self._read(*self._columns)

    def __getitem__(self, index: int | slice) -> CheatRating | list[CheatRating]:
        cells = [column[index] for column in self._columns]
        if isinstance(index, slice):
            return list(self._read(*cells))
        subject, frame, kind, value, confidence, deviation = cells
        return CheatRating(
            self.verifier_id, subject, frame, self._checks[kind],
            value, confidence, deviation, self._detail(kind, deviation),
        )

    def of_check(self, check: str) -> Iterator[CheatRating]:
        """The verdicts filed under ``check``, in filing order; no other row
        is rebuilt (nor its detail formatted)."""
        wanted = [filed == check for filed in self._checks]
        keep = list(map(wanted.__getitem__, self._columns[2]))
        return self._read(*(list(compress(column, keep)) for column in self._columns))

    def _detail(self, kind: int, deviation: float) -> str:
        detail = self._details[kind]
        return detail if isinstance(detail, str) else detail(deviation)

    def _read(
        self, subjects: Sequence[int], frames: Sequence[int], kinds: Sequence[int],
        values: Sequence[float], confidences: Sequence[float], deviations: Sequence[float],
    ) -> Iterator[CheatRating]:
        """Rows rebuilt from (slices or selections of) the columns, each kind
        resolved."""
        return map(
            CheatRating, repeat(self.verifier_id), subjects, frames,
            map(self._checks.__getitem__, kinds), values, confidences, deviations,
            map(self._detail, kinds, deviations),
        )


def rating_from_deviation(deviation: float, allowed: float) -> float:
    """Map a deviation metric to the 1..10 rating scale.

    ≤ allowed → 1 (normal).  Beyond that the rating climbs linearly with
    the *relative* excess, saturating at 10 when the behaviour is ~3× the
    allowance.
    """
    if allowed <= 0:
        allowed = 1e-9
    if deviation <= allowed:
        return MIN_RATING
    excess = (deviation - allowed) / allowed
    climb = (MAX_RATING - MIN_RATING) * min(1.0, excess / RATING_SATURATION_EXCESS)
    return min(MAX_RATING, MIN_RATING + climb)


@dataclass
class DeviationCalibration:
    """Streaming mean/σ of a deviation metric over honest behaviour.

    Welford's algorithm; ``allowance`` returns ā + k·σ_a, the acceptance
    envelope the paper uses for guidance verification.
    """

    count: int = 0
    mean: float = 0.0
    _m2: float = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    @property
    def std(self) -> float:
        if self.count < 2:
            return 0.0
        return math.sqrt(self._m2 / (self.count - 1))

    def allowance(self) -> float:
        if self.count < GUIDANCE_MIN_SAMPLES:  # too little honest data: be permissive
            return GUIDANCE_FALLBACK_ALLOWANCE
        return self.mean + GUIDANCE_SIGMAS * self.std


# ---------------------------------------------------------------------------
# Individual verifiers
# ---------------------------------------------------------------------------


class PositionVerifier:
    """Checks successive position/state updates against game physics.

    "they can easily compare successive updates and control whether the
    movements follow game physics (e.g., gravity, limited velocity,
    angular speed, permitted position)".
    """

    def __init__(self, physics: Physics) -> None:
        self.physics = physics
        self._last_seen: dict[int, AvatarSnapshot] = {}
        #: frame gap -> the allowance it is rated against and its verdicts'
        #: detail (at most ``POSITION_MAX_GAP_FRAMES`` entries: longer gaps
        #: abstain)
        self._allowed: dict[int, tuple[float, DetailTemplate]] = {}

    def observe(self, snapshot: AvatarSnapshot) -> tuple[float, float, DetailTemplate] | None:
        """Feed one received update; once history exists, returns the
        verdict as numbers: ``(rating, envelope excess, detail template)``.
        Its check is ``CheckKind.POSITION``."""
        subject = snapshot.player_id
        previous = self._last_seen.get(subject)
        self._last_seen[subject] = snapshot
        if previous is None or snapshot.frame <= previous.frame:
            return None
        frames = snapshot.frame - previous.frame
        # Respawns teleport avatars legitimately; skip the death transition.
        if not previous.alive or not snapshot.alive:
            return None
        # Very old history cannot distinguish a hidden death/respawn pair
        # from a teleport hack; abstain rather than guess (low-staleness
        # evidence would get near-zero confidence anyway).
        if frames > POSITION_MAX_GAP_FRAMES:
            return None
        excess = self.physics.displacement_excess(
            previous.position, snapshot.position, frames
        )
        memo = self._allowed.get(frames)
        if memo is None:
            # Slack absorbs frame-phase and quantization noise so honest
            # movement never rates above 1 (the FP ≤ 5 % operating point).
            slack = self.physics.max_horizontal_travel(frames) * (POSITION_TOLERANCE - 1.0)
            memo = self._allowed[frames] = (
                max(POSITION_SLACK_FLOOR, slack),
                f"envelope excess {{:.0f}}u over {frames} frame(s)".format,
            )
        allowed, detail = memo
        return (
            # ``allowed`` > 0, so this is rating_from_deviation's first branch
            MIN_RATING if excess <= allowed else rating_from_deviation(excess, allowed),
            excess, detail,
        )


class AimVerifier:
    """Angular-speed statistical check — the aimbot detector of Table I.

    Human (and honest-bot) view rotation is bounded by the engine's turn
    rate; an aimbot snapping instantly onto targets produces yaw jumps far
    beyond it.  Only short frame gaps are judged (yaw wraps make longer
    gaps ambiguous).
    """

    def __init__(self) -> None:
        self._last_seen: dict[int, AvatarSnapshot] = {}
        #: frame gap -> the turn allowance it is rated against and its
        #: verdicts' detail (at most ``AIM_MAX_GAP_FRAMES`` entries: longer
        #: gaps are not judged)
        self._allowed: dict[int, tuple[float, DetailTemplate]] = {}

    def observe(self, snapshot: AvatarSnapshot) -> tuple[float, float, DetailTemplate] | None:
        """Feed one received update; once history exists, returns the
        verdict as numbers: ``(rating, turn in rad, detail template)``.  Its
        check is ``CheckKind.AIM``."""
        subject = snapshot.player_id
        previous = self._last_seen.get(subject)
        self._last_seen[subject] = snapshot
        if previous is None or snapshot.frame <= previous.frame:
            return None
        frames = snapshot.frame - previous.frame
        if frames > AIM_MAX_GAP_FRAMES:
            return None
        if not previous.alive or not snapshot.alive:
            return None
        delta = abs(
            (snapshot.yaw - previous.yaw + math.pi) % (2.0 * math.pi) - math.pi
        )
        memo = self._allowed.get(frames)
        if memo is None:
            memo = self._allowed[frames] = (
                MAX_TURN_RATE * FRAME_SECONDS * frames * AIM_TOLERANCE,
                f"turned {{:.2f}} rad in {frames} frame(s)".format,
            )
        allowed, detail = memo
        return (
            # ``allowed`` > 0 (``frames`` >= 1): rating_from_deviation's first branch
            MIN_RATING if delta <= allowed else rating_from_deviation(delta, allowed),
            delta, detail,
        )


class GuidanceVerifier:
    """Compares guidance predictions against subsequently observed motion.

    The deviation metric is the area between predicted and actual
    trajectories; the acceptance envelope ā + σ_a is calibrated online
    from honest observations.
    """

    def __init__(self) -> None:
        self.calibration = DeviationCalibration()
        self._predictions: dict[int, GuidancePrediction] = {}
        self._observed: dict[int, list[tuple[int, Vec3]]] = {}

    def observe_guidance(
        self, subject_id: int, prediction: GuidancePrediction
    ) -> None:
        self._predictions[subject_id] = prediction
        self._observed[subject_id] = []

    def observe_position(
        self,
        verifier_id: int,
        snapshot: AvatarSnapshot,
        confidence: float,
    ) -> CheatRating | None:
        """Feed an observed position; rate once the horizon is covered.

        Every judged gap also updates the calibration before it is rated."""
        prediction = self._predictions.get(snapshot.player_id)
        if prediction is None or snapshot.frame < prediction.frame:
            return None
        if not snapshot.alive:
            # Deaths/respawns teleport the avatar; the comparison is void.
            self._predictions.pop(snapshot.player_id, None)
            self._observed.pop(snapshot.player_id, None)
            return None
        track = self._observed.setdefault(snapshot.player_id, [])
        track.append((snapshot.frame, snapshot.position))
        # Judge only the first frames after a prediction: honest constant-
        # velocity predictions are accurate there, while a fabricated
        # velocity diverges immediately — that is where the lie shows.
        horizon_end = prediction.frame + min(
            prediction.horizon_frames, GUIDANCE_CHECK_FRAMES
        )
        if snapshot.frame < horizon_end:
            return None

        frames = [f for f, _ in track]
        start = min(frames)
        staleness = max(0, start - prediction.frame)
        # A meaningful endpoint comparison needs observations tightly
        # bracketing the check endpoint; sparse (1 Hz) trackers abstain —
        # "the accuracy is obviously reduced" for players outside IS/VS.
        before = [f for f in frames if f <= horizon_end]
        after = [f for f in frames if f >= horizon_end]
        if not before or not after or min(after) - max(before) > GUIDANCE_BRACKET_GAP_FRAMES:
            del self._predictions[snapshot.player_id]
            del self._observed[snapshot.player_id]
            return None
        # Deviation: where the prediction says the avatar should be at the
        # end of the check window versus where it actually is.
        actual_end = self._interpolate(track, horizon_end)
        predicted_end = prediction.position_at(horizon_end, FRAME_SECONDS)
        gap = predicted_end.distance_to(actual_end)

        del self._predictions[snapshot.player_id]
        del self._observed[snapshot.player_id]

        self.calibration.observe(gap)
        allowed = max(self.calibration.allowance(), GUIDANCE_ALLOWANCE_FLOOR)
        rating = rating_from_deviation(gap, allowed)
        return CheatRating(
            verifier_id=verifier_id,
            subject_id=snapshot.player_id,
            frame=snapshot.frame,
            check=CheckKind.GUIDANCE,
            rating=rating,
            confidence=confidence * Confidence.staleness_discount(staleness),
            deviation=gap,
            detail=f"prediction off by {gap:.0f}u vs allowance {allowed:.0f}u",
        )

    @staticmethod
    def _interpolate(track: list[tuple[int, Vec3]], frame: int) -> Vec3:
        track = sorted(track, key=lambda point: point[0])
        before = [(f, p) for f, p in track if f <= frame]
        after = [(f, p) for f, p in track if f >= frame]
        if before and after:
            f0, p0 = before[-1]
            f1, p1 = after[0]
            if f0 == f1:
                return p0
            t = (frame - f0) / (f1 - f0)
            return p0.lerp(p1, t)
        return (before or after)[0][1]


class ProjectileTracker:
    """Remembers announced short-lived objects per owner.

    Verifiers use it two ways: validate the announcement itself (origin at
    the shooter, speed matching the weapon) and later corroborate kill
    claims ("a rocket was effectively fired").
    """

    def __init__(self) -> None:
        self._spawns: dict[int, list] = {}  # owner -> [(frame, weapon, origin, velocity)]

    def record(
        self, owner_id: int, frame: int, weapon: str, origin: Vec3, velocity: Vec3
    ) -> None:
        spawns = self._spawns.setdefault(owner_id, [])
        spawns.append((frame, weapon, origin, velocity))
        cutoff = frame - PROJECTILE_MAX_AGE_FRAMES
        self._spawns[owner_id] = [s for s in spawns if s[0] >= cutoff]

    def verify_spawn(
        self,
        verifier_id: int,
        spawn_frame: int,
        owner_id: int,
        weapon: str,
        origin: Vec3,
        velocity: Vec3,
        owner_snapshot: AvatarSnapshot | None,
        confidence: float,
    ) -> CheatRating:
        """Sanity-check an announcement before recording it."""
        spec = WEAPONS.get(weapon)
        deviation = 0.0
        details = []
        if spec is None or spec.projectile_speed is None:
            return CheatRating(
                verifier_id=verifier_id,
                subject_id=owner_id,
                frame=spawn_frame,
                check=CheckKind.KILL,
                rating=MAX_RATING,
                confidence=confidence,
                deviation=math.inf,
                detail=f"projectile announcement for non-projectile {weapon!r}",
            )
        speed = velocity.length()
        speed_error = abs(speed - spec.projectile_speed)
        if speed_error > spec.projectile_speed * PROJECTILE_SPEED_ERROR:
            deviation = max(deviation, speed_error)
            details.append(f"speed {speed:.0f} vs spec {spec.projectile_speed:.0f}")
        if owner_snapshot is not None:
            staleness = max(0, spawn_frame - owner_snapshot.frame)
            slack = RUN_UNITS_PER_FRAME * (staleness + SPAWN_SLACK_FRAMES)
            origin_gap = origin.distance_to(owner_snapshot.position)
            if origin_gap > SPAWN_ORIGIN_RADIUS + slack:
                deviation = max(deviation, origin_gap)
                details.append(f"origin {origin_gap:.0f}u from the shooter")
        rating = (
            MIN_RATING
            if not details
            else rating_from_deviation(deviation, SPAWN_ORIGIN_RADIUS)
        )
        return CheatRating(
            verifier_id=verifier_id,
            subject_id=owner_id,
            frame=spawn_frame,
            check=CheckKind.KILL,
            rating=rating,
            confidence=confidence,
            deviation=deviation,
            detail="; ".join(details) or "consistent projectile spawn",
        )

    def closest_approach(
        self,
        owner_id: int,
        weapon: str,
        claim_frame: int,
        target_position: Vec3,
    ) -> tuple[float, int] | None:
        """(min distance, flight frames) of the best matching spawn.

        None when the owner announced no matching projectile recently —
        the rocket was never fired.  The flight age matters to the caller:
        the victim keeps moving while the rocket flies, so the acceptance
        radius grows with it.
        """
        spawns = [
            s
            for s in self._spawns.get(owner_id, [])
            if s[1] == weapon and 0 <= claim_frame - s[0] <= PROJECTILE_MAX_AGE_FRAMES
        ]
        if not spawns:
            return None
        best = math.inf
        best_age = 0
        for spawn_frame, weapon_name, origin, velocity in spawns:
            # Sample the whole plausible flight: claims may be issued the
            # instant of impact, so the elapsed frames alone do not bound
            # how far the projectile travelled.
            spec = WEAPONS.get(weapon_name)
            speed = max(1.0, velocity.length())
            max_range = (
                spec.effective_range if spec is not None else speed
            )
            steps = max(1, int(max_range / (speed * FRAME_SECONDS)))
            for step in range(steps + 1):
                point = origin + velocity * (step * FRAME_SECONDS)
                gap = point.distance_to(target_position)
                if gap < best:
                    best = gap
                    best_age = claim_frame - spawn_frame
        return best, best_age


class KillVerifier:
    """Verifies kill claims: weapon, distance, visibility, rate, IS dwell.

    "The verification consists of checking that, e.g., a rocket was
    effectively fired and the distance between the position of the rocket
    and that of the target is used as a metric of the deviation."
    """

    def __init__(self, game_map: GameMap, projectiles: ProjectileTracker) -> None:
        self.game_map = game_map
        self.projectiles = projectiles
        self._last_kill_frame: dict[int, int] = {}

    def verify(
        self,
        verifier_id: int,
        claim_frame: int,
        killer_id: int,
        weapon: str,
        killer_snapshot: AvatarSnapshot | None,
        victim_snapshot: AvatarSnapshot | None,
        confidence: float,
        has_full_object_view: bool = True,
    ) -> CheatRating:
        spec = WEAPONS.get(weapon)
        suspicion: list[str] = []
        deviation = 0.0

        if spec is None:
            return CheatRating(
                verifier_id=verifier_id,
                subject_id=killer_id,
                frame=claim_frame,
                check=CheckKind.KILL,
                rating=MAX_RATING,
                confidence=confidence,
                deviation=math.inf,
                detail=f"unknown weapon {weapon!r}",
            )

        staleness = 0
        if killer_snapshot is not None and victim_snapshot is not None:
            staleness = max(
                0,
                claim_frame - killer_snapshot.frame,
                claim_frame - victim_snapshot.frame,
            )
            # Both parties may have moved since our snapshots; widen the
            # distance allowance accordingly (both could close the gap).
            motion_slack = 2.0 * RUN_UNITS_PER_FRAME * staleness
            distance = killer_snapshot.position.distance_to(victim_snapshot.position)
            max_range = spec.effective_range * KILL_RANGE_TOLERANCE + motion_slack
            if distance > max_range:
                suspicion.append(f"distance {distance:.0f}u > range {max_range:.0f}u")
                deviation = max(deviation, distance - max_range)
            # Visibility flips with small movements; only judge it on
            # fresh views ("a very old guidance message is assigned a very
            # low confidence" — we abstain instead of guessing).
            if staleness <= LOS_FRESHNESS_FRAMES and not self.game_map.line_of_sight(
                eye_position(killer_snapshot.position),
                eye_position(victim_snapshot.position),
            ):
                suspicion.append("no line of sight")
                deviation = max(deviation, spec.effective_range)
            if killer_snapshot.weapon and killer_snapshot.weapon != weapon:
                suspicion.append(
                    f"claimed {weapon} but carries {killer_snapshot.weapon}"
                )
                deviation = max(deviation, spec.effective_range / 2.0)

        # Refire-rate sanity: kills cannot arrive faster than the weapon cycles.
        last = self._last_kill_frame.get(killer_id)
        self._last_kill_frame[killer_id] = claim_frame
        if last is not None and 0 <= claim_frame - last < spec.refire_frames:
            suspicion.append("kill faster than weapon refire")
            deviation = max(deviation, spec.effective_range)

        # Projectile corroboration: a rocket kill needs an announced rocket
        # whose path actually reaches the victim.  Only the proxy sees
        # every announcement; witnesses may miss spawns (subscriber churn),
        # so absence of evidence is evidence only with the full view.
        if (
            spec.projectile_speed is not None
            and victim_snapshot is not None
            and has_full_object_view
        ):
            match = self.projectiles.closest_approach(
                killer_id, weapon, claim_frame, victim_snapshot.position
            )
            if match is None:
                suspicion.append("no matching projectile was ever fired")
                deviation = max(deviation, spec.effective_range)
            else:
                approach, flight_frames = match
                # The victim runs while the rocket flies; the acceptance
                # radius grows with the flight (and view staleness).
                allowed = PROJECTILE_HIT_RADIUS + RUN_UNITS_PER_FRAME * (flight_frames + staleness)
                if approach > allowed:
                    suspicion.append(
                        f"closest announced projectile passed "
                        f"{approach:.0f}u away (allowed {allowed:.0f}u)"
                    )
                    deviation = max(deviation, approach)

        if not suspicion:
            rating = MIN_RATING
        else:
            rating = rating_from_deviation(
                deviation, spec.effective_range * KILL_DEVIATION_FRACTION
            )
        return CheatRating(
            verifier_id=verifier_id,
            subject_id=killer_id,
            frame=claim_frame,
            check=CheckKind.KILL,
            rating=rating,
            confidence=confidence * Confidence.staleness_discount(staleness),
            deviation=deviation,
            detail="; ".join(suspicion) or "consistent kill",
        )


class SubscriptionVerifier:
    """Proxy-side check that a client's subscriptions are justified.

    "A VS subscription is only valid if q is in p's vision cone.  For
    incorrect VS subscriptions, the distance between q and p's vision cone
    is used as a metric ... For IS-subscriptions, a proxy computes interest
    with sufficient accuracy based on the attention metric."
    """

    def __init__(self, game_map: GameMap, interest: InterestConfig) -> None:
        self.game_map = game_map
        self.interest = interest
        self._suspicious_frames: dict[int, list[int]] = {}
        #: subscriber -> the ObserverFrame of the pose last judged.  It is a
        #: pure function of that snapshot object (which it keeps alive), so
        #: it is reused while the caller passes the very same object.
        self._observers: dict[int, ObserverFrame] = {}

    def _observer(self, subscriber: AvatarSnapshot) -> ObserverFrame:
        oframe = self._observers.get(subscriber.player_id)
        if oframe is None or oframe.snapshot is not subscriber:
            oframe = ObserverFrame(subscriber, self.interest)
            self._observers[subscriber.player_id] = oframe
        return oframe

    def forget_observers(self) -> None:
        """Drop every held ObserverFrame (the next request rebuilds its own)."""
        self._observers.clear()

    def verify_vision_subscription(
        self,
        verifier_id: int,
        frame: int,
        subscriber: AvatarSnapshot,
        target: AvatarSnapshot,
        confidence: float,
    ) -> CheatRating:
        """Rate a VS subscription against the subscriber's vision cone.

        ``subscriber`` is the latest pose the proxy holds, ``frame`` the
        request's planning frame, which the proxy caps at its own clock (a
        request is planned no later than it arrives; the verifier cannot see
        that clock).  The cone may have turned for the pose's age at the
        engine's turn rate (the aim check's bound), and the verdict is
        staleness-discounted by it (the guidance and kill checks' rule).
        """
        get_registry().counter("interest.classifications").inc()
        oframe = self._observer(subscriber)
        age = _pose_age(frame, subscriber)
        rating, deviation, detail = self._rate_vision(oframe, frame, target, age)
        return CheatRating(
            verifier_id=verifier_id,
            subject_id=subscriber.player_id,
            frame=frame,
            check=CheckKind.VS_SUBSCRIPTION,
            rating=rating,
            confidence=confidence * Confidence.staleness_discount(age),
            deviation=deviation,
            detail=detail,
        )

    def _rate_vision(
        self,
        oframe: ObserverFrame,
        frame: int,
        target: AvatarSnapshot,
        age: int,
    ) -> tuple[float, float, str]:
        """(rating, deviation, detail) of the cone check both kinds share."""
        subscriber = oframe.snapshot
        run_slack = RUN_UNITS_PER_FRAME * SUBSCRIPTION_SLACK_FRAMES
        if oframe.in_vision_cone(target):
            rating, deviation, detail = MIN_RATING, 0.0, "target inside cone"
            # Maphack signature: inside the cone but behind a wall — "the
            # avatars that are in a player's vision range, but behind a
            # wall do not appear in his vision set".  Occlusion flips with
            # small movements, so only fresh views are judged.
            staleness = max(
                0, frame - subscriber.frame, frame - target.frame
            )
            fresh = staleness <= OCCLUSION_FRESHNESS_FRAMES
            if fresh and self._solidly_occluded(oframe, target):
                gap = subscriber.position.distance_to(target.position)
                deviation = OCCLUSION_DEVIATION_FRACTION * gap
                rating = rating_from_deviation(deviation, run_slack)
                rating = self._escalate(subscriber.player_id, frame, rating)
                detail = "target inside cone but occluded"
        else:
            # The subscriber may have planned on a position-update-old view
            # of the target (up to ~1 s).  Rewind the target along its
            # velocity and take the most charitable reading: an honest
            # subscription matches some recent target position, a bogus one
            # (never-visible target) matches none.
            deviation = self._cone_deviation(oframe, target.position, age)
            for rewind_frames in TARGET_REWIND_FRAMES:
                rewound = target.position - target.velocity * (
                    FRAME_SECONDS * rewind_frames
                )
                if oframe.cone_contains(
                    rewound.x, rewound.y, rewound.z + EYE_HEIGHT
                ) and self.game_map.line_of_sight(
                    oframe.eye, eye_position(rewound)
                ):
                    deviation = 0.0
                    break
                deviation = min(deviation, self._cone_deviation(oframe, rewound, age))
            # Allow the target to be a few frames of movement outside the
            # cone: subscriptions are predicted/retained, not instantaneous.
            allowed = run_slack + CONE_SLACK_FRACTION * self.interest.vision_radius
            rating = rating_from_deviation(deviation, allowed)
            rating = self._escalate(subscriber.player_id, frame, rating)
            detail = f"target {deviation:.0f}u outside cone"
        return rating, deviation, detail

    def verify_interest_subscription(
        self,
        verifier_id: int,
        frame: int,
        subscriber: AvatarSnapshot,
        target: AvatarSnapshot,
        known: dict[int, AvatarSnapshot],
        confidence: float,
    ) -> CheatRating:
        """Rate an IS subscription by the target's attention rank (``frame``
        and the pose's age as for :meth:`verify_vision_subscription`)."""
        get_registry().counter("interest.classifications").inc()
        oframe = self._observer(subscriber)
        age = _pose_age(frame, subscriber)
        rating, deviation, _ = self._rate_vision(oframe, frame, target, age)
        confidence *= Confidence.staleness_discount(age)
        if rating > MIN_RATING:
            # Not even visible: inherit the cone deviation but tag as IS.
            # (Escalation already applied inside the vision check.)
            return CheatRating(
                verifier_id=verifier_id,
                subject_id=subscriber.player_id,
                frame=frame,
                check=CheckKind.IS_SUBSCRIPTION,
                rating=rating,
                confidence=confidence,
                deviation=deviation,
                detail="IS target outside vision cone",
            )
        rank = oframe.attention_rank(target, known)
        allowed_rank = self.interest.interest_size * IS_RANK_ALLOWANCE_FACTOR
        rating = rating_from_deviation(float(rank), float(allowed_rank))
        rating = self._escalate(subscriber.player_id, frame, rating)
        return CheatRating(
            verifier_id=verifier_id,
            subject_id=subscriber.player_id,
            frame=frame,
            check=CheckKind.IS_SUBSCRIPTION,
            rating=rating,
            confidence=confidence,
            deviation=float(rank),
            detail=f"target attention rank {rank} (IS size {self.interest.interest_size})",
        )

    def _escalate(self, subscriber_id: int, frame: int, rating: float) -> float:
        """Raise the rating with each recent suspicious subscription.

        Honest "ghost" subscriptions (planned on stale target info) are
        sporadic and self-correcting; a maphack consumer re-subscribes to
        invisible targets *persistently* — "repetitions" are their own
        cheat signature (Table I).
        """
        if rating <= ESCALATION_RATING_FLOOR:
            return rating
        history = self._suspicious_frames.setdefault(subscriber_id, [])
        cutoff = frame - SUBSCRIPTION_REPEAT_WINDOW_FRAMES
        history[:] = [f for f in history if f >= cutoff]
        repeats = len(history)
        history.append(frame)
        # The first couple of suspicious subscriptions are within honest
        # ghosting rates; escalation starts from the third in the window.
        return min(MAX_RATING, rating + SUBSCRIPTION_REPEAT_STEP * max(0, repeats - 1))

    def _solidly_occluded(
        self, oframe: ObserverFrame, target: AvatarSnapshot
    ) -> bool:
        """Blocked along the direct line *and* laterally offset lines.

        Verifier views lag the subscriber's by a frame or two; near wall
        edges that flips single-ray visibility and would convict honest
        subscriptions.  A maphack target sits deep behind geometry, where
        every sampled ray is blocked.  The rays are tried in that order and
        the first clear one ends the probe; the offsets are built only once
        the direct ray is blocked.
        """
        line_of_sight = self.game_map.line_of_sight
        eye_a = oframe.eye
        eye_b = eye_position(target.position)
        if line_of_sight(eye_a, eye_b):
            return False
        direction = (eye_b - eye_a).with_z(0.0).normalized()
        perp = Vec3(-direction.y, direction.x, 0.0) * OCCLUSION_PROBE_OFFSET
        return not line_of_sight(eye_a + perp, eye_b + perp) and not line_of_sight(
            eye_a - perp, eye_b - perp
        )

    def _cone_deviation(
        self, oframe: ObserverFrame, position: Vec3, age: int
    ) -> float:
        """Distance-like metric from ``position`` (feet) to the subscriber's
        cone, widened by what it can turn in ``age`` frames."""
        offset = position - oframe.snapshot.position
        distance = offset.length()
        radial_excess = max(0.0, distance - oframe.vision_radius)
        angle_excess = max(
            0.0,
            oframe.aim.angle_to(offset)
            - oframe.half_angle_slack
            - MAX_TURN_RATE * FRAME_SECONDS * age,
        )
        # Arc-length conversion puts the angular excess in world units.
        return radial_excess + angle_excess * min(distance, oframe.vision_radius)


def _pose_age(frame: int, subscriber: AvatarSnapshot) -> int:
    """Frames from the subscriber's pose to the request, at most
    ``OCCLUSION_FRESHNESS_FRAMES``.

    A request stamped before the pose gets no allowance.  By the cap the
    turn allowance already spans the whole circle, so capping only keeps
    an old pose stamp from discounting a verdict's confidence to nothing.
    """
    return min(max(0, frame - subscriber.frame), OCCLUSION_FRESHNESS_FRAMES)


def _rate_rating(
    verifier_id: int,
    subject_id: int,
    frame: int,
    confidence: float,
    deviation: float,
    allowed: float,
    detail: str,
) -> CheatRating:
    """A rate-family verdict: ``deviation`` rated against what is ``allowed``."""
    return CheatRating(
        verifier_id, subject_id, frame, CheckKind.RATE,
        rating_from_deviation(deviation, allowed), confidence, deviation, detail,
    )


class RateVerifier:
    """Proxy-side dissemination-rate monitoring.

    Catches fast-rate cheats (more updates per window than the game can
    generate), suppress-correct / escaping (long silences followed by a
    burst), and look-ahead/time cheats (updates stamped with frames that
    lag or lead the wall-clock frame beyond plausible network delay).
    """

    def __init__(self) -> None:
        self._arrivals: dict[int, list[int]] = {}  # subject -> stamped frames
        self._arrival_wallclock: dict[int, list[int]] = {}
        self._first_arrival: dict[int, int] = {}

    def observe(
        self,
        verifier_id: int,
        subject_id: int,
        stamped_frame: int,
        wallclock_frame: int,
        confidence: float,
    ) -> list[CheatRating]:
        """Feed one arrival; returns zero or more rate-family ratings."""
        stamps = self._arrivals.setdefault(subject_id, [])
        walls = self._arrival_wallclock.setdefault(subject_id, [])
        # A long interruption means the stream (tenure) restarted: deficit
        # accounting must restart with it, or a re-elected proxy flags the
        # warm-up of a perfectly healthy stream.  The interruption itself
        # is the silence check's job.
        if not walls or wallclock_frame - walls[-1] > RATE_SILENCE_ALLOWANCE_FRAMES * 2:
            self._first_arrival[subject_id] = wallclock_frame
        else:
            self._first_arrival.setdefault(subject_id, wallclock_frame)
        stamps.append(stamped_frame)
        walls.append(wallclock_frame)
        cutoff = wallclock_frame - RATE_WINDOW_FRAMES
        while walls and walls[0] < cutoff:
            walls.pop(0)
            stamps.pop(0)

        ratings: list[CheatRating] = []
        about = (verifier_id, subject_id, wallclock_frame, confidence)

        # Deficit: too FEW updates over a half-window — a blind-opponent
        # cheat thins the stream without ever leaving a long single gap.
        deficit_window = max(2, RATE_WINDOW_FRAMES // 2)
        first = self._first_arrival[subject_id]
        if wallclock_frame - first >= deficit_window:
            recent = sum(
                1 for w in walls if w > wallclock_frame - deficit_window
            )
            expected = deficit_window // FREQUENT_INTERVAL_FRAMES
            allowed_deficit = max(RATE_DEFICIT_SLACK_FLOOR, expected * RATE_DEFICIT_SLACK_FRACTION)
            deficit = float(expected - recent)
            if deficit > allowed_deficit:
                detail = f"only {recent} of ~{expected} expected updates in {deficit_window} frames"
                ratings.append(_rate_rating(*about, deficit, allowed_deficit, detail))

        # Fast-rate: more arrivals in the window than frames allow.
        expected_max = RATE_WINDOW_FRAMES // FREQUENT_INTERVAL_FRAMES + RATE_BURST_SLACK
        if len(walls) > expected_max:
            detail = f"{len(walls)} updates in {RATE_WINDOW_FRAMES} frames"
            ratings.append(_rate_rating(*about, float(len(walls)), float(expected_max), detail))

        # Time skew: stamped frame far from arrival frame (look-ahead delays
        # or future-stamped updates).
        skew = abs(wallclock_frame - stamped_frame)
        if skew > RATE_SKEW_ALLOWANCE_FRAMES:
            detail = f"update stamped {stamped_frame} arrived at {wallclock_frame}"
            allowed = float(RATE_SKEW_ALLOWANCE_FRAMES)
            ratings.append(_rate_rating(*about, float(skew), allowed, detail))

        # Silence: a gap between consecutive stamps beyond the allowance —
        # suppress-correct, blind-opponent or escaping behaviour.
        if len(stamps) >= 2:
            gap = stamps[-1] - stamps[-2]
            if gap > RATE_SILENCE_ALLOWANCE_FRAMES:
                allowed = float(RATE_SILENCE_ALLOWANCE_FRAMES)
                detail = f"silent for {gap} frames then resumed"
                ratings.append(_rate_rating(*about, float(gap), allowed, detail))
        return ratings

    def last_arrival_wallclock(self, subject_id: int) -> int | None:
        """Wallclock frame of the subject's most recent arrival, if any."""
        walls = self._arrival_wallclock.get(subject_id)
        return walls[-1] if walls else None

    def check_silence(
        self,
        verifier_id: int,
        subject_id: int,
        wallclock_frame: int,
        confidence: float,
        not_before_frame: int = 0,
    ) -> CheatRating | None:
        """Poll for ongoing silence (escaping detection without a new arrival).

        ``not_before_frame`` lets a freshly (re-)elected proxy ignore stamps
        that predate its tenure.
        """
        stamps = self._arrivals.get(subject_id)
        if not stamps:
            return None
        walls = self._arrival_wallclock.get(subject_id)
        if walls and walls[-1] < not_before_frame:
            return None
        gap = wallclock_frame - stamps[-1]
        if gap <= RATE_SILENCE_ALLOWANCE_FRAMES * 2:
            return None
        return _rate_rating(
            verifier_id, subject_id, wallclock_frame, confidence,
            float(gap), float(RATE_SILENCE_ALLOWANCE_FRAMES),
            f"no update for {gap} frames (escaping?)",
        )
