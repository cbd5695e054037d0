"""Unit tests for the cheat behaviours (hooks in isolation)."""

import pytest

from repro.cheats import (
    AimbotCheat,
    BlindOpponentCheat,
    BogusSubscriptionCheat,
    CheatBehaviour,
    ConsistencyCheat,
    EscapingCheat,
    FakeKillCheat,
    FastRateCheat,
    GuidanceLieCheat,
    NetworkFloodCheat,
    ReplayCheat,
    SpeedHack,
    SpoofCheat,
    SuppressCorrectCheat,
    TeleportCheat,
    TimeCheat,
)
from repro.core.messages import (
    SUB_VISION,
    GuidanceMessage,
    KillClaim,
    StateUpdate,
    SubscriptionRequest,
)
from repro.game.avatar import AvatarSnapshot
from repro.game.deadreckoning import predict_linear
from repro.game.vector import Vec3


def snap(player_id=0, frame=0, x=0.0, vx=100.0, yaw=0.0, alive=True):
    return AvatarSnapshot(
        player_id=player_id,
        frame=frame,
        position=Vec3(x, 0, 0),
        velocity=Vec3(vx, 0, 0),
        yaw=yaw,
        health=100,
        armor=0,
        weapon="machinegun",
        ammo=50,
        alive=alive,
    )


def update(frame=0, sequence=1, player_id=0, x=0.0):
    return StateUpdate(player_id, frame, sequence, snap(player_id, frame, x))


class TestBase:
    def test_bad_cheat_rate_rejected(self):
        with pytest.raises(ValueError):
            CheatBehaviour(cheat_rate=1.5)

    def test_honest_defaults(self):
        cheat = CheatBehaviour(cheat_rate=0.0)
        s = snap()
        assert cheat.mutate_snapshot(0, s) is s
        assert cheat.filter_outgoing(0, update(), 3) == [(update(), 3)]
        assert cheat.extra_messages(0) == []

    def test_cheat_fraction_tracks_rolls(self):
        cheat = CheatBehaviour(cheat_rate=0.0, seed=1)
        for _ in range(10):
            cheat._roll()
        assert cheat.log.cheat_actions == 0
        assert cheat.log.honest_actions == 10


class TestSpeedHack:
    def test_factor_must_exceed_one(self):
        with pytest.raises(ValueError):
            SpeedHack(factor=1.0)

    def test_offset_accumulates(self):
        cheat = SpeedHack(factor=2.0, cheat_rate=1.0, seed=1)
        first = cheat.mutate_snapshot(0, snap(frame=0, x=0.0))
        second = cheat.mutate_snapshot(1, snap(frame=1, x=5.0))
        assert first.position.x > 0.0
        assert second.position.x - 5.0 > first.position.x - 0.0

    def test_dead_avatar_untouched(self):
        cheat = SpeedHack(cheat_rate=1.0, seed=1)
        s = snap(alive=False)
        assert cheat.mutate_snapshot(0, s) is s

    def test_ground_truth_recorded(self):
        cheat = SpeedHack(cheat_rate=1.0, seed=1)
        cheat.mutate_snapshot(7, snap(frame=7))
        assert 7 in cheat.log.cheat_frames

    def test_zero_velocity_surges_forward(self):
        cheat = SpeedHack(factor=2.0, cheat_rate=1.0, seed=1)
        mutated = cheat.mutate_snapshot(0, snap(vx=0.0, yaw=0.0))
        assert mutated.position.x > 0.0


class TestTeleport:
    def test_warp_distance(self):
        cheat = TeleportCheat(distance=600.0, cheat_rate=1.0, seed=1)
        mutated = cheat.mutate_snapshot(0, snap())
        assert mutated.position.distance_to(snap().position) == pytest.approx(
            600.0
        )


class TestFlowCheats:
    def test_escaping_goes_silent(self):
        cheat = EscapingCheat(escape_frame=5)
        assert cheat.filter_outgoing(4, update(), 1)
        assert cheat.filter_outgoing(5, update(), 1) == []
        assert cheat.filter_outgoing(100, update(), 1) == []

    def test_time_cheat_delays(self):
        cheat = TimeCheat(delay_frames=3)
        assert cheat.filter_outgoing(0, update(frame=0), 1) == []
        assert cheat.extra_messages(1) == []
        assert cheat.extra_messages(2) == []
        released = cheat.extra_messages(3)
        assert len(released) == 1
        assert released[0][0].frame == 0  # stamped with the original frame

    def test_time_cheat_bad_delay(self):
        with pytest.raises(ValueError):
            TimeCheat(delay_frames=0)

    def test_fast_rate_duplicates(self):
        cheat = FastRateCheat(multiplier=3, cheat_rate=1.0, seed=1)
        sends = cheat.filter_outgoing(0, update(), 1)
        assert len(sends) == 3
        sequences = {m.sequence for m, _ in sends}
        assert len(sequences) == 3  # distinct sequences evade the replay screen

    def test_fast_rate_leaves_other_messages(self):
        cheat = FastRateCheat(cheat_rate=1.0, seed=1)
        claim = KillClaim(0, 1, 0, 1, "railgun", 100.0)
        assert len(cheat.filter_outgoing(0, claim, 1)) == 1

    def test_suppress_correct_warps_after_burst(self):
        cheat = SuppressCorrectCheat(burst_length=3, cheat_rate=1.0, seed=1)
        first = cheat.filter_outgoing(0, update(frame=0, x=0.0), 1)
        assert first == []  # burst starts
        assert cheat.filter_outgoing(1, update(frame=1, x=16.0), 1) == []
        assert cheat.filter_outgoing(2, update(frame=2, x=32.0), 1) == []
        released = cheat.filter_outgoing(3, update(frame=3, x=48.0), 1)
        assert len(released) == 1
        warped = released[0][0].snapshot.position.x
        assert warped == pytest.approx(96.0)  # doubled travel

    def test_blind_opponent_drops_updates(self):
        cheat = BlindOpponentCheat(cheat_rate=1.0, seed=1)
        assert cheat.filter_outgoing(0, update(), 1) == []

    def test_flood_amplifies_at_victim(self):
        cheat = NetworkFloodCheat(victim_id=9, amplification=4, seed=1)
        sends = cheat.filter_outgoing(0, update(), 1)
        to_victim = [d for _, d in sends if d == 9]
        assert len(to_victim) == 4
        assert (sends[0][1]) == 1  # the legitimate copy still goes out


class TestGuidanceLie:
    def test_prediction_rewritten(self):
        cheat = GuidanceLieCheat(cheat_rate=1.0, seed=1)
        s = snap()
        message = GuidanceMessage(0, 0, 1, s, predict_linear(s))
        [(lied, _)] = cheat.filter_outgoing(0, message, 1)
        assert lied.prediction.velocity != message.prediction.velocity
        assert lied.prediction.origin == message.prediction.origin

    def test_non_guidance_untouched(self):
        cheat = GuidanceLieCheat(cheat_rate=1.0, seed=1)
        [(same, _)] = cheat.filter_outgoing(0, update(), 1)
        assert same == update()


class TestFabricationCheats:
    def test_fake_kill_claims(self):
        cheat = FakeKillCheat([1, 2, 3], cheat_rate=1.0, seed=1)
        cheat.player_id = 0
        cheat.proxy_lookup = lambda frame: 7
        [(claim, dst)] = cheat.extra_messages(0)
        assert isinstance(claim, KillClaim)
        assert dst == 7
        assert claim.victim_id in {1, 2, 3}

    def test_fake_kill_needs_wiring(self):
        cheat = FakeKillCheat([1], cheat_rate=1.0, seed=1)
        assert cheat.extra_messages(0) == []

    def test_fake_kill_needs_victims(self):
        with pytest.raises(ValueError):
            FakeKillCheat([])

    def test_bogus_subscription(self):
        cheat = BogusSubscriptionCheat(SUB_VISION, cheat_rate=1.0, seed=1)
        cheat.player_id = 0
        cheat.proxy_lookup = lambda frame: 5
        cheat.invisible_targets = lambda frame: [3]
        [(request, dst)] = cheat.extra_messages(0)
        assert isinstance(request, SubscriptionRequest)
        assert request.target_id == 3
        assert request.kind == SUB_VISION
        assert dst == 5

    def test_bogus_subscription_no_targets(self):
        cheat = BogusSubscriptionCheat(cheat_rate=1.0, seed=1)
        cheat.player_id = 0
        cheat.proxy_lookup = lambda frame: 5
        cheat.invisible_targets = lambda frame: []
        assert cheat.extra_messages(0) == []

    def test_bogus_subscription_kind_validated(self):
        with pytest.raises(ValueError):
            BogusSubscriptionCheat("BOTH")

    def test_spoof_forges_sender(self):
        cheat = SpoofCheat(victim_id=4, cheat_rate=1.0, seed=1)
        cheat.snapshot_source = lambda frame: snap(player_id=4, frame=frame)
        cheat.proxy_lookup = lambda frame: 6
        [(forged, dst)] = cheat.extra_messages(0)
        assert forged.sender_id == 4  # the lie
        assert dst == 6

    def test_replay_captures_and_resends(self):
        from repro.crypto.signatures import Signature

        cheat = ReplayCheat(cheat_rate=1.0, seed=1)
        cheat.roster = [3, 4]
        message = StateUpdate(
            2, 0, 1, snap(2), signature=Signature("hmac-sha256", 2, b"x" * 13)
        )
        cheat.observe_incoming(0, 2, message)
        replays = cheat.extra_messages(1)
        assert replays and replays[0][0] is message
        assert replays[0][1] in {3, 4}

    def test_replay_ignores_unsigned(self):
        cheat = ReplayCheat(cheat_rate=1.0, seed=1)
        cheat.roster = [3]
        cheat.observe_incoming(0, 2, update())
        assert cheat.extra_messages(1) == []


class TestConsistency:
    def test_direct_lie_added(self):
        cheat = ConsistencyCheat([5, 6], cheat_rate=1.0, seed=1)
        sends = cheat.filter_outgoing(0, update(x=100.0), 1)
        assert len(sends) == 2
        lie, victim = sends[1]
        assert victim in {5, 6}
        assert lie.snapshot.position != sends[0][0].snapshot.position

    def test_needs_victims(self):
        with pytest.raises(ValueError):
            ConsistencyCheat([])


class TestAimbot:
    def test_snaps_to_target(self):
        cheat = AimbotCheat(cheat_rate=1.0, seed=1)
        target = snap(player_id=3, x=0.0)
        target = AvatarSnapshot(
            player_id=3, frame=0, position=Vec3(0, 500, 0), velocity=Vec3(),
            yaw=0.0, health=100, armor=0, weapon="machinegun", ammo=9,
            alive=True,
        )
        cheat.target_source = lambda frame: target
        mutated = cheat.mutate_snapshot(0, snap(yaw=0.0))
        import math

        assert mutated.yaw == pytest.approx(math.pi / 2)

    def test_without_target_source_honest(self):
        cheat = AimbotCheat(cheat_rate=1.0, seed=1)
        s = snap()
        assert cheat.mutate_snapshot(0, s) is s
