"""Unit tests for the wire-message taxonomy and what its frames cost."""

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
)
from repro.core.wire import WireError, encode_signable
from repro.game.avatar import AvatarSnapshot
from repro.game.deadreckoning import predict_linear
from repro.game.vector import Vec3
from tests.wirekit import as_frame


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
            assert encode_signable(message) == encode_signable(message)

    def test_field_change_changes_bytes(self):
        a = StateUpdate(1, 0, 1, snap())
        b = StateUpdate(1, 0, 1, snap(x=1.0))
        assert encode_signable(a) != encode_signable(b)

    def test_sequence_change_changes_bytes(self):
        a = StateUpdate(1, 0, 1, snap())
        b = StateUpdate(1, 0, 2, snap())
        assert encode_signable(a) != encode_signable(b)

    def test_signature_not_included(self):
        from repro.crypto.signatures import Signature

        a = StateUpdate(1, 0, 1, snap())
        b = StateUpdate(1, 0, 1, snap(), signature=Signature("s", 1, b"xx"))
        assert encode_signable(a) == encode_signable(b)

    def test_message_types_distinguished(self):
        s = snap()
        update = StateUpdate(1, 0, 1, s)
        position = PositionUpdate(1, 0, 1, s)
        assert encode_signable(update) != encode_signable(position)

    def test_all_types_encodable(self):
        for message in make_all_messages():
            assert isinstance(encode_signable(message), bytes)


class TestSizeModel:
    """The one size model: a message costs the length of its frame
    (``wirekit.as_frame``); the orderings the paper's nominal-bit model
    stated hold on the real bytes."""

    def test_state_update_size(self):
        # the paper budgets ~700 bits of state + 224 of header per update;
        # the binary frame of a full keyframe stays inside that
        frame = as_frame(StateUpdate(1, 0, 1, snap()))
        assert 0 < len(frame) * 8 <= HEADER_BITS + STATE_UPDATE_BITS

    def test_signature_adds_100_bits(self, config):
        from repro.crypto.signatures import HmacSigner

        signer = HmacSigner(signature_bits=config.signature_bits)
        update = StateUpdate(1, 0, 1, snap())
        signature = signer.sign(1, encode_signable(update))
        signed = StateUpdate(1, 0, 1, snap(), signature=signature)
        # ~100-bit signatures travel as 13 whole bytes, appended as a field
        # after the signed prefix, which they leave untouched
        signable = encode_signable(update)
        assert len(signature.data) == (config.signature_bits + 7) // 8
        assert as_frame(signed).startswith(signable)
        assert len(as_frame(signed)) - len(signable) >= len(signature.data)
        assert len(as_frame(signed)) > len(as_frame(update))

    def test_position_smaller_than_state(self):
        s = snap()
        state = StateUpdate(1, 0, 1, s)
        position = PositionUpdate(1, 0, 1, s.position_only())
        assert len(as_frame(position)) < len(as_frame(state))

    def test_handoff_scales_with_entries(self):
        small = HandoffMessage(1, 2, 0, 1, frozenset(), frozenset(), ())
        big = HandoffMessage(
            1, 2, 0, 1, frozenset(range(10)), frozenset(range(10, 15)), ()
        )
        assert len(as_frame(big)) > len(as_frame(small))

    def test_unknown_type_rejected(self):
        with pytest.raises(WireError):
            as_frame("not a message")  # type: ignore[arg-type]

    def test_all_types_have_sizes(self):
        for message in make_all_messages():
            assert len(as_frame(message)) > 0
