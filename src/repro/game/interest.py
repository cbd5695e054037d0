"""Interest management: vision cones, attention metric, IS/VS/Others.

This implements Section III-A of the paper (Figure 2):

- **Vision Set (VS)** — avatars inside a spherical cone centred on the
  avatar's aim (±60° in Quake III), made *slightly larger* than the actual
  field of view to survive rapid spins, and occlusion-culled against map
  geometry ("avatars ... behind a wall do not appear in his vision set").
- **Interest Set (IS)** — the top-5 avatars of the VS by an attention
  metric combining proximity, aim and interaction recency (Donnybrook's
  metric).  IS members are removed from the VS.
- **Others** — everyone else; they only ever yield 1 Hz position updates.

Performance architecture (see docs/PERFORMANCE.md): the classification
runs every 50 ms frame for every player, so the hot path is organised as

- :class:`ObserverFrame` — per-observer hoisted state (eye position, aim
  vector, squared-distance cull bound) and the scalar cone / attention
  kernels over it, built once per plan and once per proxy-side
  subscription check instead of once per (observer, target) pair;
- :class:`LosCache` — a per-frame symmetric memo over
  :meth:`GameMap.line_of_sight` (LOS(a, b) == LOS(b, a) because the map
  canonicalises endpoint order), shared across all observers of a frame;
- :func:`compute_all_sets` — the batched entry point sessions, analyses
  and baselines use: target eye positions, alive filtering and the LOS
  cache are computed once for the whole roster;
- top-k selection by :func:`heapq.nlargest`, which the stdlib guarantees
  equivalent to ``sorted(..., reverse=True)[:k]`` (stable ties included).

Every fast path is **exactness-gated**: ``tests/reference/game.py``
retains the naive per-pair implementation verbatim
(``compute_sets_reference``), and property tests assert bit-identical
:class:`InterestSets` across random maps, yaws and player counts.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from repro.core.config import INTEREST_SET_SIZE, VISION_HALF_ANGLE, VISION_SLACK
from repro.game.avatar import AvatarSnapshot
from repro.game.gamemap import EYE_HEIGHT, GameMap, eye_position
from repro.game.vector import Vec3, clamp
from repro.obs.registry import get_registry

__all__ = [
    "InterestConfig",
    "InterestSets",
    "ObserverFrame",
    "LosCache",
    "attention_score",
    "in_vision_cone",
    "compute_sets",
    "compute_all_sets",
    "InteractionRecency",
]


@dataclass(frozen=True, slots=True)
class InterestConfig:
    """Tunables of the subscription model (paper defaults)."""

    vision_half_angle: float = VISION_HALF_ANGLE  # Quake III ±60°
    vision_slack: float = VISION_SLACK  # enlargement for fast spins
    vision_radius: float = 2500.0
    interest_size: int = INTEREST_SET_SIZE  # "can be fixed (e.g., 5)"
    recency_halflife_frames: int = 60  # interaction recency decay
    proximity_scale: float = 800.0  # distance at which proximity ~ 0.5

    def __post_init__(self) -> None:
        if self.interest_size < 0:
            raise ValueError("interest_size must be non-negative")
        if not 0 < self.vision_half_angle <= math.pi:
            raise ValueError("vision_half_angle out of range")

    @property
    def effective_half_angle(self) -> float:
        return min(math.pi, self.vision_half_angle + self.vision_slack)


@dataclass(frozen=True, slots=True)
class InterestSets:
    """One player's partition of all other players for one frame."""

    player_id: int
    frame: int
    interest: frozenset[int]
    vision: frozenset[int]
    others: frozenset[int]


class InteractionRecency:
    """Tracks the last frame each pair of players interacted (shot/damage).

    The attention metric uses "interaction recency": a player who just shot
    at you (or you at him) stays interesting for a while even if he moves
    away or behind you.
    """

    def __init__(self) -> None:
        self._last: dict[tuple[int, int], int] = {}

    def record(self, a: int, b: int, frame: int) -> None:
        """Record an interaction between players ``a`` and ``b`` at ``frame``."""
        key = (a, b) if a <= b else (b, a)
        self._last[key] = frame

    def frames_since(self, a: int, b: int, frame: int) -> int | None:
        key = (a, b) if a <= b else (b, a)
        last = self._last.get(key)
        if last is None or last > frame:
            return None
        return frame - last

    def score(self, a: int, b: int, frame: int, halflife: int) -> float:
        """Exponentially decayed recency in [0, 1]."""
        since = self.frames_since(a, b, frame)
        if since is None:
            return 0.0
        return 0.5 ** (since / max(1, halflife))


class LosCache:
    """Per-frame symmetric line-of-sight memo shared across observers.

    LOS depends only on the two eye positions and the (static) solids, and
    :meth:`GameMap.line_of_sight` canonicalises endpoint order, so one
    cached boolean serves both LOS(a, b) and LOS(b, a).  The cache is
    cleared at each :meth:`begin_frame` to bound memory; entries would
    actually stay valid as long as the map's solids are untouched.
    """

    __slots__ = ("game_map", "hits", "misses", "_frame", "_memo")

    def __init__(self, game_map: GameMap) -> None:
        self.game_map = game_map
        self.hits = 0
        self.misses = 0
        self._frame: int | None = None
        self._memo: dict[
            tuple[tuple[float, float, float], tuple[float, float, float]], bool
        ] = {}

    def begin_frame(self, frame: int) -> None:
        """Start a new frame: drop the previous frame's entries."""
        if frame != self._frame:
            self._frame = frame
            self._memo.clear()

    def line_of_sight(self, eye: Vec3, target: Vec3) -> bool:
        key_a = (eye.x, eye.y, eye.z)
        key_b = (target.x, target.y, target.z)
        key = (key_a, key_b) if key_a <= key_b else (key_b, key_a)
        cached = self._memo.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        result = self.game_map.line_of_sight(eye, target)
        self._memo[key] = result
        return result


class ObserverFrame:
    """Hoisted per-observer state for one classification or verification.

    The naive path rebuilds ``eye_position(observer.position)`` and
    ``Vec3.from_yaw(observer.yaw)`` for *every* target; this computes them
    once.  It is the one place the cone / attention arithmetic runs: the
    planner (:func:`compute_sets`) builds one per plan and the proxy-side
    :class:`~repro.core.verification.SubscriptionVerifier` one per
    subscriber pose, kept while the subscriber's snapshot is the same
    object (the ``interest.observer_frames`` counter over
    ``interest.classifications`` is that ratio, gated at <= 1: one per
    plan or subscriber pose, at most one per classification).  The scalar
    methods below mirror the reference arithmetic operation-for-operation
    (same order, same intermediate expressions) so their results are
    bit-identical — the property tests enforce it.
    """

    __slots__ = (
        "snapshot",
        "config",
        "eye",
        "aim",
        "aim_length",
        "vision_radius",
        "cull_radius_sq",
        "half_angle_slack",
        "half_angle_strict",
    )

    def __init__(self, observer: AvatarSnapshot, config: InterestConfig) -> None:
        self.snapshot = observer
        self.config = config
        self.eye = eye_position(observer.position)
        self.aim = Vec3.from_yaw(observer.yaw)
        self.aim_length = self.aim.length()
        self.vision_radius = config.vision_radius
        # Conservative squared-distance cull: anything beyond this is
        # certainly outside vision_radius, so the exact sqrt-based check
        # only runs for pairs that might be visible.  The 1e-6 slack keeps
        # the cull strictly weaker than the exact comparison.
        cull = config.vision_radius * 1.000001
        self.cull_radius_sq = cull * cull
        self.half_angle_slack = config.effective_half_angle
        self.half_angle_strict = config.vision_half_angle
        get_registry().counter("interest.observer_frames").inc()

    def in_vision_cone(self, target: AvatarSnapshot, slack: bool = True) -> bool:
        """Exact mirror of :func:`in_vision_cone` with hoisted observer state."""
        position = target.position
        return self.cone_contains(
            position.x, position.y, position.z + EYE_HEIGHT, slack
        )

    def cone_contains(self, x: float, y: float, z: float, slack: bool = True) -> bool:
        """Cone test against a target *eye* at ``(x, y, z)``, in scalars.

        ``eye_position(feet)`` is ``feet.with_z(feet.z + EYE_HEIGHT)``, so a
        caller holding feet passes ``feet.z + EYE_HEIGHT`` and gets the
        same floats without building the eye ``Vec3``.
        """
        eye = self.eye
        dx = x - eye.x
        dy = y - eye.y
        dz = z - eye.z
        dist_sq = dx * dx + dy * dy + dz * dz
        if dist_sq > self.cull_radius_sq:
            return False  # early-out; exact check below is strictly stronger
        distance = math.sqrt(dist_sq)
        if distance > self.vision_radius or distance == 0.0:
            return False
        half_angle = self.half_angle_slack if slack else self.half_angle_strict
        aim = self.aim
        denom = self.aim_length * distance
        if denom == 0.0:
            return True  # angle_to() defines the degenerate angle as 0
        cosine = clamp((aim.x * dx + aim.y * dy + aim.z * dz) / denom, -1.0, 1.0)
        return math.acos(cosine) <= half_angle

    def attention_score(
        self,
        target: AvatarSnapshot,
        frame: int,
        recency: InteractionRecency | None = None,
    ) -> float:
        """Exact mirror of :func:`attention_score` with hoisted observer state."""
        observer = self.snapshot
        config = self.config
        dx = target.position.x - observer.position.x
        dy = target.position.y - observer.position.y
        dz = target.position.z - observer.position.z
        distance = math.sqrt(dx * dx + dy * dy + dz * dz)
        proximity = 1.0 / (1.0 + distance / config.proximity_scale)
        # aim_error = aim.angle_to(offset.with_z(0.0)), unrolled.
        aim = self.aim
        horizontal = math.sqrt(dx * dx + dy * dy + 0.0 * 0.0)
        denom = self.aim_length * horizontal
        if denom == 0.0:
            aim_error = 0.0
        else:
            cosine = clamp(
                (aim.x * dx + aim.y * dy + aim.z * 0.0) / denom, -1.0, 1.0
            )
            aim_error = math.acos(cosine)
        aim_term = max(0.0, 1.0 - aim_error / math.pi)
        recent = 0.0
        if recency is not None:
            recent = recency.score(
                observer.player_id,
                target.player_id,
                frame,
                config.recency_halflife_frames,
            )
        return proximity + aim_term + recent

    def attention_scores(
        self,
        everyone: dict[int, AvatarSnapshot],
        candidate_ids: list[int],
        frame: int,
        recency: InteractionRecency | None = None,
    ) -> dict[int, float]:
        """Batched :meth:`attention_score` over a flat candidate list.

        One pass with every observer constant (position components, aim
        vector, config scalars, math functions) hoisted into locals — the
        per-target arithmetic mirrors the scalar method expression for
        expression, so each score is bit-identical to
        :meth:`attention_score` (property tests enforce it).
        """
        observer = self.snapshot
        config = self.config
        position = observer.position
        opx, opy, opz = position.x, position.y, position.z
        aim = self.aim
        ax, ay, az = aim.x, aim.y, aim.z
        aim_length = self.aim_length
        proximity_scale = config.proximity_scale
        halflife = config.recency_halflife_frames
        observer_id = observer.player_id
        sqrt = math.sqrt
        acos = math.acos
        pi = math.pi
        scores: dict[int, float] = {}
        for other_id in candidate_ids:
            target = everyone[other_id]
            target_position = target.position
            dx = target_position.x - opx
            dy = target_position.y - opy
            dz = target_position.z - opz
            distance = sqrt(dx * dx + dy * dy + dz * dz)
            proximity = 1.0 / (1.0 + distance / proximity_scale)
            horizontal = sqrt(dx * dx + dy * dy + 0.0 * 0.0)
            denom = aim_length * horizontal
            if denom == 0.0:
                aim_error = 0.0
            else:
                cosine = (ax * dx + ay * dy + az * 0.0) / denom
                cosine = (
                    -1.0 if cosine < -1.0 else 1.0 if cosine > 1.0 else cosine
                )
                aim_error = acos(cosine)
            aim_term = max(0.0, 1.0 - aim_error / pi)
            recent = 0.0
            if recency is not None:
                recent = recency.score(
                    observer_id, target.player_id, frame, halflife
                )
            scores[other_id] = proximity + aim_term + recent
        return scores

    def attention_rank(
        self, target: AvatarSnapshot, everyone: dict[int, AvatarSnapshot]
    ) -> int:
        """1 + the live in-cone avatars of ``everyone`` out-scoring ``target``.

        The proxy-side IS check: where ``target`` stands in the observer's
        attention order, recency-free (a proxy holds no interaction
        history).  One flat pass: per candidate the cone test of
        :meth:`cone_contains`, then — only for the few inside the cone —
        the score of :meth:`attention_score`, each expression for
        expression (they share ``dx``, ``dy`` and the left-associated
        ``dx * dx + dy * dy`` prefix; the two ``dz`` differ, eye to eye
        against feet to feet, and are both kept).
        """
        observer = self.snapshot
        observer_id = observer.player_id
        target_id = target.player_id
        threshold = self.attention_score(target, 0)
        position = observer.position
        opx, opy, opz = position.x, position.y, position.z
        eye_z = self.eye.z
        aim = self.aim
        ax, ay, az = aim.x, aim.y, aim.z
        aim_length = self.aim_length
        vision_radius = self.vision_radius
        cull_radius_sq = self.cull_radius_sq
        half_angle = self.half_angle_slack
        proximity_scale = self.config.proximity_scale
        sqrt = math.sqrt
        acos = math.acos
        pi = math.pi
        rank = 1
        for other_id, other in everyone.items():
            if other_id == observer_id or other_id == target_id or not other.alive:
                continue
            other_position = other.position
            dx = other_position.x - opx
            dy = other_position.y - opy
            dxy_sq = dx * dx + dy * dy
            dot_xy = ax * dx + ay * dy
            # -- cone_contains, eye to eye
            dz = (other_position.z + EYE_HEIGHT) - eye_z
            dist_sq = dxy_sq + dz * dz
            if dist_sq > cull_radius_sq:
                continue
            distance = sqrt(dist_sq)
            if distance > vision_radius or distance == 0.0:
                continue
            denom = aim_length * distance
            if denom != 0.0:
                cosine = (dot_xy + az * dz) / denom
                cosine = (
                    -1.0 if cosine < -1.0 else 1.0 if cosine > 1.0 else cosine
                )
                # ``not <=``, never ``>``: a NaN pose stays outside the cone
                if not acos(cosine) <= half_angle:
                    continue
            # -- attention_score, feet to feet, no recency
            dz = other_position.z - opz
            distance = sqrt(dxy_sq + dz * dz)
            proximity = 1.0 / (1.0 + distance / proximity_scale)
            horizontal = sqrt(dxy_sq + 0.0 * 0.0)
            denom = aim_length * horizontal
            if denom == 0.0:
                aim_error = 0.0
            else:
                cosine = (dot_xy + az * 0.0) / denom
                cosine = (
                    -1.0 if cosine < -1.0 else 1.0 if cosine > 1.0 else cosine
                )
                aim_error = acos(cosine)
            if proximity + max(0.0, 1.0 - aim_error / pi) + 0.0 > threshold:
                rank += 1
        return rank


def in_vision_cone(
    observer: AvatarSnapshot,
    target: AvatarSnapshot,
    config: InterestConfig,
    slack: bool = True,
    observer_frame: ObserverFrame | None = None,
) -> bool:
    """Is ``target`` inside ``observer``'s (possibly enlarged) vision cone?

    Callers classifying many targets for one observer should build one
    :class:`ObserverFrame` and pass it (or call its method directly) so the
    observer's eye position and aim vector are not rebuilt per target.
    """
    frame = observer_frame or ObserverFrame(observer, config)
    return frame.in_vision_cone(target, slack)


def attention_score(
    observer: AvatarSnapshot,
    target: AvatarSnapshot,
    frame: int,
    config: InterestConfig,
    recency: InteractionRecency | None = None,
    observer_frame: ObserverFrame | None = None,
) -> float:
    """Donnybrook-style attention: proximity + aim + interaction recency."""
    oframe = observer_frame or ObserverFrame(observer, config)
    return oframe.attention_score(target, frame, recency)


def _classify(
    oframe: ObserverFrame,
    everyone: dict[int, AvatarSnapshot],
    los: GameMap | LosCache,
    frame: int,
    config: InterestConfig,
    recency: InteractionRecency | None,
    eyes: dict[int, Vec3] | None,
) -> InterestSets:
    """Shared classification core of the single and batched entry points.

    The cone test is :meth:`ObserverFrame.cone_contains` inlined over
    hoisted locals (expression for expression), so without a precomputed
    ``eyes`` table a target's eye ``Vec3`` is built only for the pairs
    that pass the cone and go on to line of sight.
    """
    visible: list[int] = []
    observer_id = oframe.snapshot.player_id
    observer_eye = oframe.eye
    ex, ey, ez = observer_eye.x, observer_eye.y, observer_eye.z
    aim = oframe.aim
    ax, ay, az = aim.x, aim.y, aim.z
    aim_length = oframe.aim_length
    vision_radius = oframe.vision_radius
    cull_radius_sq = oframe.cull_radius_sq
    half_angle = oframe.half_angle_slack
    sqrt = math.sqrt
    acos = math.acos
    line_of_sight = los.line_of_sight
    for other_id, snap in everyone.items():
        if other_id == observer_id or not snap.alive:
            continue
        if eyes is not None:
            target_eye = eyes[other_id]
            tx, ty, tz = target_eye.x, target_eye.y, target_eye.z
        else:
            target_eye = None
            position = snap.position
            tx, ty, tz = position.x, position.y, position.z + EYE_HEIGHT
        dx = tx - ex
        dy = ty - ey
        dz = tz - ez
        dist_sq = dx * dx + dy * dy + dz * dz
        if dist_sq > cull_radius_sq:
            continue
        distance = sqrt(dist_sq)
        if distance > vision_radius or distance == 0.0:
            continue
        denom = aim_length * distance
        if denom != 0.0:
            cosine = (ax * dx + ay * dy + az * dz) / denom
            cosine = -1.0 if cosine < -1.0 else 1.0 if cosine > 1.0 else cosine
            # ``not <=``, never ``>``: a NaN pose stays outside the cone
            if not acos(cosine) <= half_angle:
                continue
        if target_eye is None:
            target_eye = Vec3(tx, ty, tz)  # == eye_position(snap.position)
        if line_of_sight(observer_eye, target_eye):
            visible.append(other_id)
    # Others: everyone who is neither the observer nor visible.
    others = set(everyone)
    others.discard(observer_id)
    others.difference_update(visible)

    if len(visible) <= config.interest_size:
        # Fewer visible players than IS slots: everyone visible is in the
        # IS, no scoring needed (the reference's top-k of <= k items).
        interest = frozenset(visible)
        vision: frozenset[int] = frozenset()
    else:
        # Scores come from the flat batch kernel (bit-identical to the
        # per-target method); heapq.nlargest is documented equivalent to
        # sorted(iterable, key=key, reverse=True)[:n] — ties included — so
        # the selected top-k set matches the reference full sort exactly.
        scores = oframe.attention_scores(everyone, visible, frame, recency)
        top = heapq.nlargest(
            config.interest_size,
            visible,
            key=scores.__getitem__,
        )
        interest = frozenset(top)
        vision = frozenset(oid for oid in visible if oid not in interest)
    return InterestSets(
        player_id=observer_id,
        frame=frame,
        interest=interest,
        vision=vision,
        others=frozenset(others),
    )


def compute_sets(
    observer: AvatarSnapshot,
    everyone: dict[int, AvatarSnapshot],
    game_map: GameMap,
    frame: int,
    config: InterestConfig | None = None,
    recency: InteractionRecency | None = None,
    los: LosCache | None = None,
) -> InterestSets:
    """Partition all other players into IS / VS / Others for ``observer``.

    Only avatars in the vision set are IS candidates ("preventing the player
    to obtain frequent and accurate information about avatars he cannot
    see"), and IS members are removed from the VS ("automatically removed
    from its vision set").

    ``los`` optionally supplies a per-frame :class:`LosCache` shared with
    other observers of the same frame (the session and simulator loops pass
    one); results are identical either way.
    """
    config = config or InterestConfig()
    get_registry().counter("interest.classifications").inc()
    oframe = ObserverFrame(observer, config)
    return _classify(
        oframe, everyone, los if los is not None else game_map, frame, config,
        recency, eyes=None,
    )


def compute_all_sets(
    everyone: dict[int, AvatarSnapshot],
    game_map: GameMap,
    frame: int,
    config: InterestConfig | None = None,
    recency: InteractionRecency | None = None,
    observers: list[int] | None = None,
    los: LosCache | None = None,
) -> dict[int, InterestSets]:
    """Batched classification: IS/VS/Others for every observer of a frame.

    The shared work — target eye positions, the symmetric LOS cache, the
    per-observer hoisting — is done once for the whole roster instead of
    once per :func:`compute_sets` call.  Returns exactly
    ``{oid: compute_sets(everyone[oid], everyone, ...) for oid in observers}``
    (observers defaults to every player in ``everyone``, in dict order).
    """
    config = config or InterestConfig()
    if los is None:
        los = LosCache(game_map)
        los.begin_frame(frame)
    hits_before, misses_before = los.hits, los.misses
    eyes = {pid: eye_position(snap.position) for pid, snap in everyone.items()}
    ids = observers if observers is not None else list(everyone)
    result: dict[int, InterestSets] = {}
    for observer_id in ids:
        oframe = ObserverFrame(everyone[observer_id], config)
        result[observer_id] = _classify(
            oframe, everyone, los, frame, config, recency, eyes
        )
    obs = get_registry()
    obs.counter("interest.classifications").inc(len(ids))
    obs.counter("interest.pairs").inc(len(ids) * max(0, len(everyone) - 1))
    obs.counter("interest.los_cache_hits").inc(los.hits - hits_before)
    obs.counter("interest.los_cache_misses").inc(los.misses - misses_before)
    return result
