"""Unit tests for the verification engine (ratings, confidence, checks)."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import (
    FRAME_SECONDS,
    GUIDANCE_FALLBACK_ALLOWANCE,
    GUIDANCE_MIN_SAMPLES,
    GUIDANCE_SIGMAS,
    MAX_TURN_RATE,
    MIN_RATING,
    OCCLUSION_FRESHNESS_FRAMES,
    RATE_WINDOW_FRAMES,
)
from repro.core.verification import (
    AimVerifier,
    CheatRating,
    CheckKind,
    Confidence,
    DeviationCalibration,
    GuidanceVerifier,
    KillVerifier,
    PositionVerifier,
    ProjectileTracker,
    RateVerifier,
    RatingLog,
    SubscriptionVerifier,
    rating_from_deviation,
)
from repro.game.avatar import AvatarSnapshot
from repro.game.deadreckoning import GuidancePrediction
from repro.game.gamemap import make_longest_yard
from repro.game.interest import InterestConfig
from repro.game.physics import Physics
from repro.game.vector import Vec3

from tests.arena import make_arena


def snap(player_id=1, x=0.0, y=0.0, z=0.0, yaw=0.0, frame=0, alive=True,
         weapon="machinegun", vx=0.0):
    return AvatarSnapshot(
        player_id=player_id,
        frame=frame,
        position=Vec3(x, y, z),
        velocity=Vec3(vx, 0, 0),
        yaw=yaw,
        health=100,
        armor=0,
        weapon=weapon,
        ammo=50,
        alive=alive,
    )


class TestRatingScale:
    def test_within_allowance_is_normal(self):
        assert rating_from_deviation(5.0, 10.0) == 1.0

    def test_rating_grows_with_deviation(self):
        r1 = rating_from_deviation(15.0, 10.0)
        r2 = rating_from_deviation(25.0, 10.0)
        assert 1.0 < r1 < r2

    def test_saturates_at_ten(self):
        assert rating_from_deviation(1e9, 10.0) == 10.0

    def test_zero_allowance_handled(self):
        assert rating_from_deviation(1.0, 0.0) == 10.0


class TestConfidence:
    def test_ordering_proxy_highest(self):
        assert (
            Confidence.PROXY
            > Confidence.INTEREST
            > Confidence.VISION
            > Confidence.OTHER
        )

    def test_staleness_discount_monotone(self):
        d0 = Confidence.staleness_discount(0)
        d10 = Confidence.staleness_discount(10)
        d100 = Confidence.staleness_discount(100)
        assert d0 == 1.0
        assert d0 > d10 > d100 > 0.0


class TestCalibration:
    def test_mean_and_std(self):
        cal = DeviationCalibration()
        for value in (1.0, 2.0, 3.0, 4.0, 5.0):
            cal.observe(value)
        assert cal.mean == pytest.approx(3.0)
        assert cal.std == pytest.approx(1.5811, rel=1e-3)

    def test_fallback_before_enough_data(self):
        cal = DeviationCalibration()
        for _ in range(GUIDANCE_MIN_SAMPLES - 1):
            cal.observe(1.0)
        assert cal.allowance() == GUIDANCE_FALLBACK_ALLOWANCE

    def test_allowance_mean_plus_sigma(self):
        cal = DeviationCalibration()
        for value in [1.0, 3.0] * 5:
            cal.observe(value)
        assert cal.allowance() == pytest.approx(2.0 + GUIDANCE_SIGMAS * cal.std)
        assert cal.std > 1.0

    def test_std_of_single_sample(self):
        cal = DeviationCalibration()
        cal.observe(5.0)
        assert cal.std == 0.0


class TestPositionVerifier:
    @pytest.fixture()
    def verifier(self, arena):
        return PositionVerifier(Physics(arena))

    def test_first_observation_no_rating(self, verifier):
        assert verifier.observe(0, snap(frame=0), 1.0) is None

    def test_legal_move_rates_normal(self, verifier):
        verifier.observe(0, snap(frame=0, x=0), 1.0)
        rating = verifier.observe(0, snap(frame=1, x=15.0), 1.0)
        assert rating is not None
        assert rating.rating == 1.0
        assert rating.check == CheckKind.POSITION

    def test_speed_hack_rates_high(self, verifier):
        verifier.observe(0, snap(frame=0, x=0), 1.0)
        rating = verifier.observe(0, snap(frame=1, x=64.0), 1.0)  # 4× speed
        assert rating is not None
        assert rating.rating >= 8.0

    def test_out_of_order_updates_skipped(self, verifier):
        verifier.observe(0, snap(frame=5), 1.0)
        assert verifier.observe(0, snap(frame=3, x=500), 1.0) is None

    def test_death_transition_skipped(self, verifier):
        verifier.observe(0, snap(frame=0, alive=False), 1.0)
        assert verifier.observe(0, snap(frame=1, x=900), 1.0) is None

    def test_large_gap_abstains(self, verifier):
        verifier.observe(0, snap(frame=0), 1.0)
        assert verifier.observe(0, snap(frame=100, x=3000), 1.0) is None

    def test_multi_frame_gap_scales_allowance(self, verifier):
        verifier.observe(0, snap(frame=0), 1.0)
        # 10 frames at max speed is legal.
        rating = verifier.observe(0, snap(frame=10, x=160.0), 1.0)
        assert rating is not None and rating.rating == 1.0

    def test_confidence_passed_through(self, verifier):
        verifier.observe(0, snap(frame=0), 0.3)
        rating = verifier.observe(0, snap(frame=1, x=10), 0.3)
        assert rating.confidence == 0.3


class TestAimVerifier:
    @pytest.fixture()
    def verifier(self):
        return AimVerifier()

    def test_slow_turn_normal(self, verifier):
        verifier.observe(0, snap(frame=0, yaw=0.0), 1.0)
        rating = verifier.observe(0, snap(frame=1, yaw=0.3), 1.0)
        assert rating is not None and rating.rating == 1.0

    def test_instant_snap_flagged(self, verifier):
        verifier.observe(0, snap(frame=0, yaw=0.0), 1.0)
        rating = verifier.observe(0, snap(frame=1, yaw=math.pi * 0.95), 1.0)
        assert rating is not None
        assert rating.rating > 5.0
        assert rating.check == CheckKind.AIM

    def test_long_gap_ambiguous_abstains(self, verifier):
        verifier.observe(0, snap(frame=0, yaw=0.0), 1.0)
        assert verifier.observe(0, snap(frame=30, yaw=3.0), 1.0) is None

    def test_wrap_around_small_turn(self, verifier):
        verifier.observe(0, snap(frame=0, yaw=math.pi - 0.05), 1.0)
        rating = verifier.observe(0, snap(frame=1, yaw=-math.pi + 0.05), 1.0)
        assert rating is not None and rating.rating == 1.0


class TestGuidanceVerifier:
    def make_prediction(self, vx=100.0, frame=0):
        return GuidancePrediction(
            frame=frame,
            origin=Vec3(0, 0, 0),
            velocity=Vec3(vx, 0, 0),
            yaw=0.0,
            horizon_frames=20,
        )

    def feed_track(self, verifier, vx, frames=10, player=1):
        rating = None
        for frame in range(frames):
            rating = verifier.observe_position(
                0,
                snap(player_id=player, frame=frame, x=vx * 0.05 * frame),
                1.0,
            ) or rating
        return rating

    def test_accurate_prediction_normal(self):
        verifier = GuidanceVerifier()
        verifier.observe_guidance(1, self.make_prediction(vx=100.0))
        rating = self.feed_track(verifier, vx=100.0)
        assert rating is not None
        assert rating.rating == 1.0

    def test_lying_prediction_flagged(self):
        verifier = GuidanceVerifier()
        verifier.observe_guidance(1, self.make_prediction(vx=-300.0))
        rating = self.feed_track(verifier, vx=300.0)
        assert rating is not None
        assert rating.rating > 5.0
        assert rating.check == CheckKind.GUIDANCE

    def test_no_prediction_no_rating(self):
        verifier = GuidanceVerifier()
        assert self.feed_track(verifier, vx=100.0) is None

    def test_death_voids_comparison(self):
        verifier = GuidanceVerifier()
        verifier.observe_guidance(1, self.make_prediction())
        verifier.observe_position(0, snap(frame=1, x=5), 1.0)
        assert (
            verifier.observe_position(0, snap(frame=2, alive=False), 1.0) is None
        )
        # Prediction dropped: subsequent positions yield nothing.
        assert self.feed_track(verifier, vx=100.0, frames=12) is None

    def test_sparse_track_abstains(self):
        verifier = GuidanceVerifier()
        verifier.observe_guidance(1, self.make_prediction(vx=100.0))
        # Single observation far past the window: no bracket, no rating.
        rating = verifier.observe_position(
            0, snap(frame=19, x=100.0 * 0.05 * 19), 1.0
        )
        assert rating is None

    def test_calibration_updates_with_honest_data(self):
        verifier = GuidanceVerifier()
        for _ in range(10):
            verifier.observe_guidance(1, self.make_prediction(vx=100.0))
            self.feed_track(verifier, vx=100.0)
        assert verifier.calibration.count >= 8


class TestKillVerifier:
    @pytest.fixture()
    def verifier(self):
        return KillVerifier(make_arena(), ProjectileTracker())

    def test_plausible_kill_normal(self, verifier):
        rating = verifier.verify(
            0, 10, 1, "railgun",
            snap(1, x=0, y=-800, weapon="railgun", frame=10),
            snap(2, x=400, y=-800, frame=10),
            1.0,
        )
        assert rating.rating == 1.0
        assert rating.check == CheckKind.KILL

    def test_out_of_range_kill_flagged(self, verifier):
        rating = verifier.verify(
            0, 10, 1, "shotgun",
            snap(1, x=-900, y=-800, weapon="shotgun", frame=10),
            snap(2, x=900, y=-800, frame=10),
            1.0,
        )
        assert rating.rating > 5.0

    def test_occluded_kill_flagged(self):
        yard = make_longest_yard()
        verifier = KillVerifier(yard, ProjectileTracker())
        rating = verifier.verify(
            0, 10, 1, "railgun",
            snap(1, x=100, y=0, weapon="railgun", frame=10),
            snap(2, x=400, y=0, frame=10),  # behind the east pillar
            1.0,
        )
        assert rating.rating > 5.0
        assert "line of sight" in rating.detail

    def test_wrong_weapon_flagged(self, verifier):
        rating = verifier.verify(
            0, 10, 1, "railgun",
            snap(1, x=0, y=-800, weapon="machinegun", frame=10),
            snap(2, x=300, y=-800, frame=10),
            1.0,
        )
        assert rating.rating > 1.0

    def test_unknown_weapon_maximal(self, verifier):
        rating = verifier.verify(0, 10, 1, "bfg9000", None, None, 1.0)
        assert rating.rating == 10.0

    def test_refire_rate_enforced(self, verifier):
        killer = snap(1, x=0, y=-800, weapon="railgun", frame=10)
        victim = snap(2, x=300, y=-800, frame=10)
        verifier.verify(0, 10, 1, "railgun", killer, victim, 1.0)
        rating = verifier.verify(0, 12, 1, "railgun", killer, victim, 1.0)
        assert rating.rating > 5.0  # railgun cannot refire in 2 frames

    def test_missing_snapshots_rate_only(self, verifier):
        rating = verifier.verify(0, 10, 1, "railgun", None, None, 1.0)
        assert rating.rating == 1.0  # nothing to contradict

    def test_stale_snapshots_reduce_confidence(self, verifier):
        rating = verifier.verify(
            0, 100, 1, "railgun",
            snap(1, x=0, y=-800, weapon="railgun", frame=10),
            snap(2, x=300, y=-800, frame=10),
            1.0,
        )
        assert rating.confidence < 0.5


class TestSubscriptionVerifier:
    @pytest.fixture()
    def verifier(self, arena):
        return SubscriptionVerifier(arena, InterestConfig())

    def test_valid_vs_subscription(self, verifier):
        subscriber = snap(1, x=0, y=-800, yaw=0.0)
        target = snap(2, x=500, y=-800)
        rating = verifier.verify_vision_subscription(0, 0, subscriber, target, 1.0)
        assert rating.rating == 1.0

    def test_behind_subscriber_flagged(self, verifier):
        subscriber = snap(1, x=0, y=-800, yaw=0.0)
        target = snap(2, x=-700, y=-800)
        rating = verifier.verify_vision_subscription(0, 0, subscriber, target, 1.0)
        assert rating.rating > 1.0
        assert rating.check == CheckKind.VS_SUBSCRIPTION

    def test_valid_is_subscription(self, verifier):
        subscriber = snap(1, x=0, y=-800, yaw=0.0)
        target = snap(2, x=200, y=-800)
        known = {1: subscriber, 2: target}
        rating = verifier.verify_interest_subscription(
            0, 0, subscriber, target, known, 1.0
        )
        assert rating.rating == 1.0
        assert rating.check == CheckKind.IS_SUBSCRIPTION

    def test_invisible_is_target_flagged(self, verifier):
        subscriber = snap(1, x=0, y=-800, yaw=0.0)
        target = snap(2, x=-1500, y=-800)  # far behind
        known = {1: subscriber, 2: target}
        rating = verifier.verify_interest_subscription(
            0, 0, subscriber, target, known, 1.0
        )
        assert rating.rating > 5.0

    def test_cone_deviation_grows_with_distance(self, verifier):
        subscriber = snap(1, x=0, y=-800, yaw=0.0)
        near_miss = verifier.verify_vision_subscription(
            0, 0, subscriber, snap(2, x=-200, y=-800), 1.0
        )
        far_miss = verifier.verify_vision_subscription(
            0, 0, subscriber, snap(3, x=-900, y=-800), 1.0
        )
        assert far_miss.deviation > near_miss.deviation


class TestSubscriptionAgainstAnOldPose:
    """The proxy judges a subscription against the subscriber's latest
    pose, which may be frames older than the request.  A player turning at
    the engine's maximum rate planned on a cone that pose does not show:
    the verdict widens the cone by the turn the gap allows and discounts
    its confidence by the gap, and nothing else.  The gap is capped at
    ``OCCLUSION_FRESHNESS_FRAMES`` and is 0 for a request stamped before
    the pose."""

    AGE = 2
    TURNED = MAX_TURN_RATE * FRAME_SECONDS * AGE  # the yaw at the request

    @pytest.fixture()
    def verifier(self, arena):
        return SubscriptionVerifier(arena, InterestConfig())

    @pytest.fixture(params=[CheckKind.VS_SUBSCRIPTION, CheckKind.IS_SUBSCRIPTION])
    def kind(self, request):
        return request.param

    def _rate(self, verifier, yaw, distance, kind, pose_frame=10):
        subscriber = snap(1, x=0, y=-800, yaw=0.0, frame=pose_frame)
        target = snap(
            2, x=distance * math.cos(yaw), y=-800 + distance * math.sin(yaw), frame=12
        )
        if kind == CheckKind.IS_SUBSCRIPTION:
            return verifier.verify_interest_subscription(
                0, 12, subscriber, target, {1: subscriber, 2: target}, Confidence.PROXY
            )
        return verifier.verify_vision_subscription(
            0, 12, subscriber, target, Confidence.PROXY
        )

    def test_a_target_inside_the_turned_cone_is_normal(self, verifier, kind):
        config = InterestConfig()
        yaw = self.TURNED + config.vision_half_angle * 0.9
        assert yaw > config.effective_half_angle  # outside the cone the pose shows
        rating = self._rate(verifier, yaw, 1000.0, kind)
        assert rating.rating == MIN_RATING
        assert rating.confidence == Confidence.PROXY * Confidence.staleness_discount(
            self.AGE
        )

    def test_a_target_beyond_the_widened_cone_is_still_flagged(self, verifier, kind):
        assert InterestConfig().effective_half_angle + self.TURNED < math.pi - 0.5
        rating = self._rate(verifier, math.pi, 2000.0, kind)
        assert rating.rating > 3.0

    def test_a_target_beyond_vision_radius_is_still_flagged(self, verifier, kind):
        distance = InterestConfig().vision_radius * 2.0
        rating = self._rate(verifier, self.TURNED, distance, kind)
        assert rating.rating > 3.0

    def test_a_pose_older_than_the_cap_counts_as_capped(self, verifier, kind):
        # The turn allowance spans the circle by the cap, so a target
        # behind the pose is normal; the confidence stays the cap's.
        rating = self._rate(verifier, math.pi, 1000.0, kind, pose_frame=12 - 400)
        assert rating.rating == MIN_RATING
        assert rating.confidence == Confidence.PROXY * Confidence.staleness_discount(
            OCCLUSION_FRESHNESS_FRAMES
        )

    def test_a_request_stamped_before_the_pose_gets_no_turn(self, verifier, kind):
        yaw = self.TURNED + InterestConfig().vision_half_angle * 0.9
        rating = self._rate(verifier, yaw, 1000.0, kind, pose_frame=12 + 400)
        assert rating.rating > 3.0
        assert rating.confidence == Confidence.PROXY


class TestRateVerifier:
    def test_normal_rate_no_ratings(self):
        verifier = RateVerifier()
        ratings = []
        for frame in range(30):
            ratings.extend(verifier.observe(0, 1, frame, frame + 1, 1.0))
        assert [r for r in ratings if r.rating > 3.0] == []

    def test_fast_rate_flagged(self):
        verifier = RateVerifier()
        ratings = []
        for frame in range(RATE_WINDOW_FRAMES):
            for _ in range(3):  # 3× the legal rate
                ratings.extend(verifier.observe(0, 1, frame, frame, 1.0))
        assert any(r.rating > 3.0 for r in ratings)

    def test_time_skew_flagged(self):
        verifier = RateVerifier()
        ratings = verifier.observe(0, 1, stamped_frame=10, wallclock_frame=30,
                                   confidence=1.0)
        assert any(r.rating > 3.0 for r in ratings)

    def test_silence_burst_flagged(self):
        verifier = RateVerifier()
        verifier.observe(0, 1, 0, 0, 1.0)
        ratings = verifier.observe(0, 1, 30, 30, 1.0)
        assert any("silent" in r.detail for r in ratings)

    def test_check_silence_requires_history(self):
        verifier = RateVerifier()
        assert verifier.check_silence(0, 1, 100, 1.0) is None

    def test_check_silence_fires_on_gap(self):
        verifier = RateVerifier()
        verifier.observe(0, 1, 0, 0, 1.0)
        rating = verifier.check_silence(0, 1, 40, 1.0)
        assert rating is not None
        assert rating.rating > 3.0

    def test_check_silence_not_before_frame(self):
        verifier = RateVerifier()
        verifier.observe(0, 1, 0, 0, 1.0)
        assert verifier.check_silence(0, 1, 40, 1.0, not_before_frame=10) is None


def exact(rating):
    """A verdict as it must read back: field types, and floats by bit
    pattern (``nan`` payloads and ``-0.0`` included) — stricter than repr."""
    return (
        tuple(map(type, rating)), rating[:4], struct.pack("<3d", *rating[4:7]), rating[7],
    )


wire_ints = st.integers(0, 2**31 - 1)
any_float = st.floats()  # every float: nan, the infinities, -0.0, subnormals
#: built afresh per draw (like the verifiers' f-strings), from few values
few_details = st.text(alphabet="ab", max_size=2).map(lambda text: f"turned {text} rad")
rows = st.tuples(
    wire_ints, wire_ints, st.sampled_from(CheckKind.ALL), any_float, any_float, any_float,
    few_details,
)

VERDICT = CheatRating(3, 5, 120, CheckKind.AIM, 1.0, 0.9, 0.25, "turned 0.25 rad in 1 frame(s)")


class TestRatingLog:
    @settings(max_examples=150, deadline=None)
    @given(
        verifier=wire_ints, filed=st.lists(rows, max_size=40),
        kinds=st.one_of(st.just(0), st.integers(257, 300)), data=st.data(),
    )
    def test_reads_back_what_was_filed(self, verifier, filed, kinds, data):
        """Any well-typed verdicts, in order, by iteration, index and slice —
        with, spliced in, more ``(check, detail)`` kinds than a byte indexes,
        each detail filed under two checks."""
        many = [
            (1, 2, CheckKind.ALL[i % len(CheckKind.ALL)], 1.0, 0.5, float(i), f"turned {i // 2} rad")
            for i in range(kinds)
        ]
        at = data.draw(st.integers(0, len(filed)))
        filed = [CheatRating(verifier, *row) for row in filed[:at] + many + filed[at:]]
        log = RatingLog()
        for rating in filed:
            log.append(rating)
        want = [exact(r) for r in filed]
        assert len(log) == len(filed)
        assert [exact(r) for r in log] == want
        assert all(type(r) is CheatRating for r in log)
        assert [exact(log[i]) for i in range(len(filed))] == want
        assert [exact(log[i]) for i in range(-len(filed), 0)] == want
        cut = data.draw(st.slices(len(filed)))
        assert [exact(r) for r in log[cut]] == want[cut]
        # equal details are one object, however many verdicts carry them
        assert len({id(r.detail) for r in log}) == len({r.detail for r in filed})

    def test_an_empty_log(self):
        log = RatingLog()
        assert len(log) == 0 and list(log) == [] and log[:] == [] and log[3:] == []
        with pytest.raises(IndexError):
            log[0]

    def test_the_wire_s_whole_int_range_fits(self):
        log = RatingLog()
        extremes = VERDICT._replace(subject_id=-(2**63), frame=2**63 - 1)
        log.append(extremes)
        assert exact(log[0]) == exact(extremes)

    def test_a_foreign_verifier_is_refused(self):
        log = RatingLog()
        log.append(VERDICT)
        with pytest.raises(ValueError, match="verifier 4 filing in 3's log"):
            log.append(VERDICT._replace(verifier_id=4))
        assert list(log) == [VERDICT]

    @pytest.mark.parametrize("field", ["subject_id", "frame"])
    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1], ids=["above", "below"])
    def test_an_out_of_range_int_raises_rather_than_wraps(self, field, value):
        with pytest.raises(OverflowError):
            RatingLog().append(VERDICT._replace(**{field: value}))

    def test_a_float_is_not_silently_truncated_to_an_id(self):
        with pytest.raises(TypeError):
            RatingLog().append(VERDICT._replace(subject_id=5.5))
