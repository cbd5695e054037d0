"""Exactness gate for the proxy-side subscription verifier.

:class:`SubscriptionVerifier` runs every cone test, both rewound-target
tests and the whole attention-rank scan of one call on a single
:class:`ObserverFrame`.  It must rate exactly as the per-pair verifier it
replaced, which is retained verbatim in
``tests/reference/subscription_verifier.py``:

- a hypothesis property drives both over random maps, rosters, yaws,
  velocities, stale frames, pose ages 0-8 and a pre-loaded escalation
  history, and
  compares every :class:`CheatRating` field for field plus the escalation
  state they leave behind;
- a branch census proves the generator reaches every arm of the check
  (in-cone, occluded, rewind-rescued, outside, IS rank), so the property
  is not vacuously green;
- one full paper-profile session pins the sha256 of its complete rating
  stream to the value recorded before the verifier was hoisted, and holds
  planner and verifier together to one ``ObserverFrame`` per
  classification;
- a second property drives both the way a proxy does — a few subscribers
  asking repeatedly with the roster's current snapshot objects, some
  replaced between requests — so the fast verifier's held
  ``ObserverFrame`` is compared on hits and on misses;
- a counter test holds the hoisting itself: one ``ObserverFrame`` per
  distinct subscriber pose, at most one per verified subscription.
"""

import hashlib
import json
import math
from dataclasses import replace as dataclass_replace
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.verification import CheatRating, Confidence, SubscriptionVerifier
from repro.game.avatar import AvatarSnapshot
from repro.game.gamemap import GameMap
from repro.game.interest import InterestConfig
from repro.game.vector import Vec3
from repro.obs import MetricsRegistry, use_registry
from repro.replay import TapeScenario

from tests.reference.subscription_verifier import ReferenceSubscriptionVerifier
from tests.test_game_interest_fast import _random_world

#: sha256 over every field of every rating of the pinned session below,
#: recorded once and moved twice since: when the
#: subscription check began judging the latest pose with the turn bound and
#: the staleness discount, 73 of its 912 checks rated suspicious before and
#: 40 after (``090b46d1…`` -> ``320a864b…``); when each player began sending
#: its 1 Hz tiers on its own phase (every frame ``≡ player_id`` mod 20, frame
#: 0 no longer for everyone), the verdicts moved with the traffic: 28 269
#: ratings -> 28 432, 40 suspicious -> 36 (``320a864b…`` -> ``0020f759…``)
PINNED_SESSION_RATINGS = 28432
PINNED_SESSION_SHA256 = (
    "0020f75958aa7b61af0adc5662b4cc83ba8aa42e8d63a4c3389cd73bed7f883b"
)
#: the same session's registry snapshot (counters, simulated-time histograms),
#: re-recorded with the phased 1 Hz tiers above
PINNED_SESSION_REGISTRY = Path(__file__).with_name("pinned_session_registry.json")


def rating_stream_sha256(ratings: list[CheatRating]) -> str:
    digest = hashlib.sha256()
    for r in ratings:
        digest.update(repr((
            r.verifier_id, r.subject_id, r.frame, r.check,
            r.rating, r.confidence, r.deviation, r.detail,
        )).encode())
    return digest.hexdigest()


def _random_roster(rng: Random, players: int, now: int) -> dict[int, AvatarSnapshot]:
    """A proxy's ``known`` view: some dead, some stacked on one spot (so a
    subscriber meets ``distance == 0.0``), some fast enough that the 10-
    and 20-frame rewinds land somewhere else entirely, some views stale."""
    roster: dict[int, AvatarSnapshot] = {}
    for pid in range(players):
        if pid and rng.random() < 0.1:
            position = roster[rng.randrange(pid)].position  # co-located
        else:
            position = Vec3(
                rng.uniform(-2200, 2200), rng.uniform(-2200, 2200),
                rng.uniform(-100, 300),
            )
        speed = rng.choice((0.0, 320.0, 320.0, 1500.0))
        heading = rng.uniform(-math.pi, math.pi)
        roster[pid] = AvatarSnapshot(
            player_id=pid,
            frame=now - rng.choice((0, 0, 1, 2, 6, 30)),
            position=position,
            velocity=Vec3(math.cos(heading) * speed, math.sin(heading) * speed, 0.0),
            yaw=rng.uniform(-math.pi, math.pi),
            health=100, armor=0, weapon="machinegun", ammo=10,
            alive=rng.random() > 0.12,
        )
    return roster


def _verifier_pair(rng: Random, game_map: GameMap, players: int, now: int):
    """The fast and the reference verifier, escalation history pre-loaded."""
    config = InterestConfig()
    fast = SubscriptionVerifier(game_map, config)
    reference = ReferenceSubscriptionVerifier(game_map, config)
    for pid in range(players):
        if rng.random() < 0.3:
            history = sorted(
                now - rng.randrange(0, 400) for _ in range(rng.randrange(1, 6))
            )
            fast._suspicious_frames[pid] = list(history)
            reference._suspicious_frames[pid] = list(history)
    return fast, reference


def _drive(seed: int, players: int, boxes: int, checks: int) -> list[CheatRating]:
    """Run ``checks`` random subscriptions through both verifiers, asserting
    equality after each; returns the ratings (for the branch census)."""
    rng = Random(seed)
    now = 50 + seed % 400
    game_map, _, _ = _random_world(seed, 0, boxes)  # the map only
    roster = _random_roster(rng, players, now)
    fast, reference = _verifier_pair(rng, game_map, players, now)
    ratings = []
    for _ in range(checks):
        subscriber_id, target_id = rng.sample(range(players), 2)
        subscriber, target = roster[subscriber_id], roster[target_id]
        if rng.random() < 0.5:
            # an honest subscriber is usually looking somewhere near the target
            offset = target.position - subscriber.position
            subscriber = AvatarSnapshot(
                player_id=subscriber.player_id, frame=subscriber.frame,
                position=subscriber.position, velocity=subscriber.velocity,
                yaw=offset.yaw() + rng.uniform(-1.3, 1.3),
                health=100, armor=0, weapon="machinegun", ammo=10, alive=True,
            )
        verifier_id = rng.randrange(players)
        confidence = rng.choice((Confidence.PROXY, Confidence.INTEREST))
        # the pose's age, 0..8 frames: both sides of the cap
        subscriber = dataclass_replace(subscriber, frame=now - rng.randrange(9))
        if rng.random() < 0.5:
            args = (verifier_id, now, subscriber, target, confidence)
            got = fast.verify_vision_subscription(*args)
            want = reference.verify_vision_subscription(*args)
        else:
            args = (verifier_id, now, subscriber, target, roster, confidence)
            got = fast.verify_interest_subscription(*args)
            want = reference.verify_interest_subscription(*args)
        assert got == want
        assert fast._suspicious_frames == reference._suspicious_frames
        ratings.append(got)
    return ratings


def _drive_held_poses(
    seed: int, players: int, boxes: int, checks: int
) -> tuple[list[CheatRating], int]:
    """Like :func:`_drive`, but the way a proxy calls: a few subscribers ask
    again and again, each request passes the roster's *current* snapshot
    object, and between requests some snapshots are replaced by a new pose
    (moved, turned, aged).  The fast verifier reuses its held
    ``ObserverFrame`` exactly while the object is the same, so both hits
    and misses are compared with the reference.  Returns the ratings and
    the number of distinct subscriber poses judged."""
    rng = Random(seed)
    now = 50 + seed % 400
    game_map, _, _ = _random_world(seed, 0, boxes)
    roster = _random_roster(rng, players, now)
    fast, reference = _verifier_pair(rng, game_map, players, now)
    askers = rng.sample(range(players), min(players, rng.randrange(1, 4)))
    #: every pose judged, by identity (held here, so no id is reused)
    poses: dict[int, AvatarSnapshot] = {}
    ratings = []
    for _ in range(checks):
        if rng.random() < 0.3:
            moved_id = rng.choice(askers) if rng.random() < 0.8 else rng.randrange(players)
            moved = roster[moved_id]
            toward = roster[rng.randrange(players)].position - moved.position
            roster[moved_id] = dataclass_replace(
                moved,
                frame=now - rng.randrange(9),
                position=moved.position + Vec3(
                    rng.uniform(-60, 60), rng.uniform(-60, 60), 0.0
                ),
                yaw=toward.yaw() + rng.uniform(-1.3, 1.3),
            )
        subscriber_id = rng.choice(askers)
        target_id = rng.choice([p for p in range(players) if p != subscriber_id])
        subscriber, target = roster[subscriber_id], roster[target_id]
        poses[id(subscriber)] = subscriber
        verifier_id = rng.randrange(players)
        confidence = rng.choice((Confidence.PROXY, Confidence.INTEREST))
        if rng.random() < 0.5:
            args = (verifier_id, now, subscriber, target, confidence)
            got = fast.verify_vision_subscription(*args)
            want = reference.verify_vision_subscription(*args)
        else:
            args = (verifier_id, now, subscriber, target, roster, confidence)
            got = fast.verify_interest_subscription(*args)
            want = reference.verify_interest_subscription(*args)
        assert got == want
        assert fast._suspicious_frames == reference._suspicious_frames
        ratings.append(got)
    return ratings, len(poses)


class TestFastVerifierEqualsReference:
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=2, max_value=64),
        st.integers(min_value=0, max_value=14),
    )
    @settings(max_examples=60, deadline=None)
    def test_ratings_and_escalation_state_match(self, seed, players, boxes):
        _drive(seed, players, boxes, checks=12)

    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=2, max_value=48),
        st.integers(min_value=0, max_value=14),
    )
    @settings(max_examples=60, deadline=None)
    def test_held_observer_frames_match_on_hits_and_misses(self, seed, players, boxes):
        _drive_held_poses(seed, players, boxes, checks=24)

    def test_generator_reaches_every_branch(self):
        seen: dict[str, int] = {}
        for seed in range(40):
            for rating in _drive(seed, players=24, boxes=10, checks=20):
                if rating.detail.startswith("target attention rank"):
                    key = "rank>1" if rating.deviation > 1.0 else "rank=1"
                elif rating.detail.endswith("outside cone"):
                    # VS arm; deviation 0.0 there means a rewind was rescued
                    # by cone + line of sight
                    key = "rescued" if rating.deviation == 0.0 else "outside"
                else:
                    key = rating.detail
                seen[key] = seen.get(key, 0) + 1
                if rating.rating >= 10.0:
                    seen["saturated"] = seen.get("saturated", 0) + 1
        for branch in (
            "target inside cone",
            "target inside cone but occluded",
            "rescued",
            "outside",
            "IS target outside vision cone",
            "rank=1",
            "rank>1",
            "saturated",
        ):
            assert seen.get(branch, 0) >= 3, (branch, seen)

    def test_one_observer_frame_per_verified_subscription(self):
        """One per distinct subscriber pose, at most one per verified
        subscription (the reference goes through the naive helpers and
        counts nothing)."""
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            _drive(seed=11, players=32, boxes=8, checks=30)
        counters = registry.snapshot()["counters"]
        # every request of ``_drive`` carries a pose object of its own
        assert counters["interest.classifications"] == 30
        assert counters["interest.observer_frames"] == 30

        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            _, poses = _drive_held_poses(seed=11, players=32, boxes=8, checks=60)
        counters = registry.snapshot()["counters"]
        assert counters["interest.classifications"] == 60
        assert counters["interest.observer_frames"] == poses < 60


@pytest.mark.slow
def test_paper_profile_session_rating_stream_is_pinned():
    """24 players x 40 frames, paper profile, seed 7: every rating of the
    run — subscription checks and all the others — hashes to the value
    recorded at the parent of PR 15.  A fast path that drops, reorders or
    perturbs one rating by one ulp changes it.  The same run counts the
    hoisting end to end: planner and proxy-side verifier together build at
    most one ``ObserverFrame`` per plan / verified subscription, and a
    caller that goes back to per-candidate helpers pushes that to ~n."""
    scenario = TapeScenario(
        players=24, frames=40, seed=7,
        failover=False, reliable=False, hardening=False,
    )
    game_map = scenario.make_map()
    trace = scenario.make_trace(game_map)
    registry = MetricsRegistry(enabled=True)
    with use_registry(registry):
        report = scenario.make_session(trace, None, game_map).run()
    assert len(report.ratings) == PINNED_SESSION_RATINGS
    assert rating_stream_sha256(report.ratings) == PINNED_SESSION_SHA256
    counters = registry.snapshot()["counters"]
    assert counters["interest.classifications"] > 0
    assert counters["interest.observer_frames"] <= counters["interest.classifications"]
    # One route to the registry: ``use_registry`` around build + run reaches
    # every layer's books.  Names and values are the parent of PR 19's (which
    # needed ``registry=`` *and* ``use_registry`` to fill them), minus its two
    # always-zero ``net.dropped.budget`` / ``.nat`` rows; the histograms that
    # are left are the two in simulated time — no ``*_seconds`` host timer.
    # Two values moved since, on purpose: ``proxy.schedule.lookups`` 20 669 ->
    # 6 236 when ``FirstHops.is_proxy_of`` began answering from the epoch's
    # client set (``draws`` stayed 24; the session never dual-sends, so
    # ``node.frames_signed`` did not move), and ``node.ratings_suspicious``
    # 73 -> 40 with the rating stream above.  The phased 1 Hz tiers then
    # moved the traffic (``net.sent.PositionUpdate.count`` 613 -> 285,
    # ``net.sent.GuidanceMessage.count`` 154 -> 237: a proxy relays position
    # updates to the players outside the sender's subscriber lists and
    # guidance to those inside, and at frame 0, where every player used to
    # publish, no proxy knows a subscriber yet; ``net.datagrams.sent``
    # 16 578 -> 16 560; ``node.ratings_suspicious`` 40 -> 36) and the
    # histograms with it.  ``interest.observer_frames`` 1 873 -> 1 221 when
    # the proxy-side check began keeping one ``ObserverFrame`` per
    # subscriber pose instead of building one per verified subscription.
    pinned = json.loads(PINNED_SESSION_REGISTRY.read_text())
    assert counters == pinned["counters"]
    assert registry.snapshot()["histograms"] == pinned["histograms"]
