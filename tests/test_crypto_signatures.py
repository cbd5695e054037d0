"""Unit tests for the session's signer (truncated HMAC): the security
semantics behind ``sign`` / ``verify``, the keyed-state MAC's bytes, and a
session in which a relay flips bytes of what it forwards."""

import hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WatchmenSession
from repro.core.node import WatchmenNode
from repro.core.wire import MESSAGE_TAGS, FrameMemo, WireError, decode_bytes
from repro.crypto.signatures import HmacKeyRegistry, HmacSigner, SigningError
from repro.game import generate_trace
from repro.net.transport import DatagramNetwork


@pytest.fixture(params=["hmac"])
def signer():
    signer = HmacSigner()
    signer.register(1)
    signer.register(2)
    return signer


class TestCommonProperties:
    """What any signature scheme behind ``sign`` / ``verify`` must provide."""

    def test_sign_verify_roundtrip(self, signer):
        message = b"state update frame 42"
        signature = signer.sign(1, message)
        assert signer.verify(1, message, signature)

    def test_tampered_message_rejected(self, signer):
        signature = signer.sign(1, b"honest position")
        assert not signer.verify(1, b"teleported position", signature)

    def test_wrong_signer_rejected(self, signer):
        """Spoofing: player 2 claims player 1 signed this."""
        signature = signer.sign(2, b"spoofed")
        assert not signer.verify(1, b"spoofed", signature)

    def test_signature_binds_signer_id(self, signer):
        from dataclasses import replace

        signature = signer.sign(1, b"msg")
        forged = replace(signature, signer_id=2)
        assert not signer.verify(2, b"msg", forged)

    def test_truncated_signature_rejected(self, signer):
        from dataclasses import replace

        signature = signer.sign(1, b"msg")
        clipped = replace(signature, data=signature.data[:-1])
        assert not signer.verify(1, b"msg", clipped)

    def test_deterministic_signatures(self, signer):
        assert signer.sign(1, b"msg").data == signer.sign(1, b"msg").data


class TestHmac:
    def test_default_signature_is_100_bits(self):
        signer = HmacSigner()
        signer.register(1)
        signature = signer.sign(1, b"msg")
        assert len(signature.data) * 8 == 104  # 100 bits rounded up to 13 bytes

    def test_custom_bits(self):
        signer = HmacSigner(signature_bits=128)
        signer.register(1)
        assert len(signer.sign(1, b"m").data) == 16

    def test_bits_out_of_range_rejected(self):
        with pytest.raises(SigningError):
            HmacSigner(signature_bits=16)
        with pytest.raises(SigningError):
            HmacSigner(signature_bits=512)

    def test_registry_keys_distinct_per_player(self):
        registry = HmacKeyRegistry()
        assert registry.key_for(1) != registry.key_for(2)

    def test_registry_keys_stable(self):
        registry = HmacKeyRegistry()
        assert registry.key_for(1) == registry.key_for(1)

    def test_registry_master_seed_separates_sessions(self, monkeypatch):
        ours = HmacKeyRegistry().key_for(1)
        monkeypatch.setattr(HmacKeyRegistry, "master_seed", b"session-b")
        assert HmacKeyRegistry().key_for(1) != ours

    def test_signing_without_register_works_lazily(self):
        signer = HmacSigner()
        signature = signer.sign(7, b"msg")
        assert signer.verify(7, b"msg", signature)


class TestKeyedMac:
    """``HmacSigner`` keys one HMAC state per player and MACs on copies of
    it; the bytes must be those of a fresh ``hmac.digest`` every time."""

    @given(
        keys=st.lists(st.binary(min_size=0, max_size=80), min_size=1, max_size=3),
        messages=st.lists(st.binary(max_size=300), min_size=1, max_size=6),
        bits=st.integers(min_value=32, max_value=256),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_mac_is_the_truncated_hmac_digest(self, keys, messages, bits, data):
        signer = HmacSigner(signature_bits=bits)
        for player, key in enumerate(keys):
            signer.registry._keys[player] = key
        size = (bits + 7) // 8
        # the same keyed state serves many messages, in any order
        for message in messages:
            player = data.draw(st.integers(min_value=0, max_value=len(keys) - 1))
            want = hmac.digest(keys[player], message, "sha256")[:size]
            assert signer._mac(player, message) == want
            assert signer.verify(player, message, signer.sign(player, message))

    def test_a_byte_flipped_in_a_relayed_update_is_dropped_on_every_receiver(
        self, monkeypatch
    ):
        """Relay 2 forwards every ``StateUpdate`` it did not sign intact to
        half its destinations and with one byte of the signed prefix flipped
        to the other half.  Each tampered delivery ends as a ``tamper`` drop
        and no intact one does: a receiver that already verified the genuine
        frame still MACs the forged one afresh (keyed state is key
        material, never a remembered verdict)."""
        relay = 2
        forged: set[bytes] = set()
        outcomes = {"forged": [0, 0], "intact": [0, 0]}  # [deliveries, tamper drops]
        send_many = DatagramNetwork.send_many
        on_message = WatchmenNode.on_message
        session = None

        def tampering_send(network, src, dsts, frame):
            if src != relay or frame[0] != MESSAGE_TAGS["StateUpdate"]:
                return send_many(network, src, dsts, frame)
            message, signed_end = FrameMemo().open_frame(frame)
            if message.sender_id == relay:
                return send_many(network, src, dsts, frame)
            copy = _flip_one_byte(frame, signed_end)
            forged.add(copy)
            send_many(network, src, dsts[0::2], frame)
            send_many(network, src, dsts[1::2], copy)

        def watched(node, src, buffer):
            if src != relay or buffer[0] != MESSAGE_TAGS["StateUpdate"]:
                return on_message(node, src, buffer)
            before = session.network.dropped_by_cause.get("tamper", 0)
            on_message(node, src, buffer)
            after = session.network.dropped_by_cause.get("tamper", 0)
            tally = outcomes["forged" if buffer in forged else "intact"]
            tally[0] += 1
            tally[1] += after - before

        monkeypatch.setattr(DatagramNetwork, "send_many", tampering_send)
        monkeypatch.setattr(WatchmenNode, "on_message", watched)
        session = WatchmenSession(generate_trace(num_players=8, num_frames=60, seed=5))
        session.run()
        forged_deliveries, forged_drops = outcomes["forged"]
        intact_deliveries, intact_drops = outcomes["intact"]
        assert forged_deliveries > 10 and intact_deliveries > 10
        assert forged_drops == forged_deliveries
        assert intact_drops == 0
        assert session.network.dropped_by_cause["tamper"] == forged_deliveries


def _flip_one_byte(frame: bytes, signed_end: int) -> bytes:
    """``frame`` with the last byte of its signed prefix that can flip and
    still decode (the low bit of a float, at worst) flipped."""
    for index in range(signed_end - 1, 0, -1):
        copy = bytearray(frame)
        copy[index] ^= 0x01
        try:
            decode_bytes(bytes(copy))
        except WireError:
            continue
        return bytes(copy)
    raise AssertionError("no byte of the signed prefix flips cleanly")
