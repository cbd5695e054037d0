"""Unit tests for the wire-message taxonomy and size model."""

import pytest

from repro.core.config import HEADER_BITS, STATE_UPDATE_BITS, WatchmenConfig
from repro.core.messages import (
    SUB_INTEREST,
    SUB_VISION,
    GuidanceMessage,
    HandoffMessage,
    HandoffSummary,
    KillClaim,
    PositionUpdate,
    StateUpdate,
    SubscriptionRequest,
    message_size_bits,
    message_size_bytes,
    signable_bytes,
)
from repro.game.avatar import AvatarSnapshot
from repro.game.deadreckoning import predict_linear
from repro.game.vector import Vec3


def snap(player_id=1, frame=0, x=0.0):
    return AvatarSnapshot(
        player_id=player_id,
        frame=frame,
        position=Vec3(x, 0, 0),
        velocity=Vec3(),
        yaw=0.0,
        health=100,
        armor=0,
        weapon="machinegun",
        ammo=100,
        alive=True,
    )


@pytest.fixture()
def config():
    return WatchmenConfig()


def make_all_messages():
    s = snap()
    return [
        StateUpdate(1, 0, 1, s),
        PositionUpdate(1, 0, 2, s.position_only()),
        GuidanceMessage(1, 0, 3, s, predict_linear(s)),
        SubscriptionRequest(1, 2, SUB_INTEREST, 0, 4),
        KillClaim(1, 2, 0, 5, "railgun", 500.0),
        HandoffMessage(
            1, 2, 0, 6, frozenset({3, 4}), frozenset({5}),
            (HandoffSummary(2, 0, 1, s, 40, 0),),
        ),
    ]


class TestValidation:
    def test_bad_subscription_kind_rejected(self):
        with pytest.raises(ValueError):
            SubscriptionRequest(1, 2, "SUPER", 0, 1)

    def test_both_kinds_accepted(self):
        SubscriptionRequest(1, 2, SUB_INTEREST, 0, 1)
        SubscriptionRequest(1, 2, SUB_VISION, 0, 1)


class TestSignableBytes:
    def test_deterministic(self):
        for message in make_all_messages():
            assert signable_bytes(message) == signable_bytes(message)

    def test_field_change_changes_bytes(self):
        a = StateUpdate(1, 0, 1, snap())
        b = StateUpdate(1, 0, 1, snap(x=1.0))
        assert signable_bytes(a) != signable_bytes(b)

    def test_sequence_change_changes_bytes(self):
        a = StateUpdate(1, 0, 1, snap())
        b = StateUpdate(1, 0, 2, snap())
        assert signable_bytes(a) != signable_bytes(b)

    def test_signature_not_included(self):
        from repro.crypto.signatures import Signature

        a = StateUpdate(1, 0, 1, snap())
        b = StateUpdate(1, 0, 1, snap(), signature=Signature("s", 1, b"xx"))
        assert signable_bytes(a) == signable_bytes(b)

    def test_message_types_distinguished(self):
        s = snap()
        update = StateUpdate(1, 0, 1, s)
        position = PositionUpdate(1, 0, 1, s)
        assert signable_bytes(update) != signable_bytes(position)

    def test_all_types_encodable(self):
        for message in make_all_messages():
            assert isinstance(signable_bytes(message), bytes)


class TestSizeModel:
    def test_state_update_size(self, config):
        update = StateUpdate(1, 0, 1, snap())
        bits = message_size_bits(update, config)
        assert bits == HEADER_BITS + STATE_UPDATE_BITS

    def test_signature_adds_100_bits(self, config):
        from repro.crypto.signatures import HmacSigner

        signer = HmacSigner()
        update = StateUpdate(1, 0, 1, snap())
        signed = StateUpdate(
            1, 0, 1, snap(), signature=signer.sign(1, signable_bytes(update))
        )
        assert (
            message_size_bits(signed, config)
            == message_size_bits(update, config) + config.signature_bits
        )

    def test_position_smaller_than_state(self, config):
        s = snap()
        state = StateUpdate(1, 0, 1, s)
        position = PositionUpdate(1, 0, 1, s.position_only())
        assert message_size_bits(position, config) < message_size_bits(
            state, config
        )

    def test_handoff_scales_with_entries(self, config):
        small = HandoffMessage(1, 2, 0, 1, frozenset(), frozenset(), ())
        big = HandoffMessage(
            1, 2, 0, 1, frozenset(range(10)), frozenset(range(10, 15)), ()
        )
        assert message_size_bits(big, config) > message_size_bits(small, config)

    def test_bytes_rounds_up(self, config):
        update = StateUpdate(1, 0, 1, snap())
        bits = message_size_bits(update, config)
        assert message_size_bytes(update, config) == (bits + 7) // 8

    def test_unknown_type_rejected(self, config):
        with pytest.raises(TypeError):
            message_size_bits("not a message", config)  # type: ignore[arg-type]

    def test_all_types_have_sizes(self, config):
        for message in make_all_messages():
            assert message_size_bits(message, config) > 0
