"""Unit tests for the session's signer (truncated HMAC): the security
semantics behind ``sign`` / ``verify``."""

import pytest

from repro.crypto.signatures import HmacKeyRegistry, HmacSigner, SigningError


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
