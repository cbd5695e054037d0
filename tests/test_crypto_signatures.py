"""Unit tests for the session's signer (truncated HMAC) and, beside it, the
parked Schnorr scheme (``tests/retired/schnorr.py``): both must provide the
same security semantics behind ``sign`` / ``verify``."""

import pytest

from repro.crypto.signatures import HmacKeyRegistry, HmacSigner, SigningError

from tests.retired.schnorr import SchnorrKeyPair, SchnorrSigner


@pytest.fixture(params=["schnorr", "hmac"])
def signer(request):
    if request.param == "schnorr":
        signer = SchnorrSigner()
    else:
        signer = HmacSigner()
    signer.register(1)
    signer.register(2)
    return signer


class TestCommonProperties:
    """Both schemes must provide the same security semantics."""

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

    def test_cross_scheme_rejected(self):
        schnorr, hmac_signer = SchnorrSigner(), HmacSigner()
        schnorr.register(1)
        hmac_signer.register(1)
        signature = hmac_signer.sign(1, b"msg")
        assert not schnorr.verify(1, b"msg", signature)

    def test_deterministic_signatures(self, signer):
        assert signer.sign(1, b"msg").data == signer.sign(1, b"msg").data


class TestSchnorr:
    def test_keypair_from_seed_deterministic(self):
        a = SchnorrKeyPair.generate(b"seed")
        b = SchnorrKeyPair.generate(b"seed")
        assert a.secret == b.secret
        assert a.public == b.public

    def test_empty_seed_rejected(self):
        with pytest.raises(SigningError):
            SchnorrKeyPair.generate(b"")

    def test_unregistered_player_cannot_sign(self):
        with pytest.raises(SigningError):
            SchnorrSigner().sign(9, b"msg")

    def test_unregistered_player_fails_verify(self):
        signer = SchnorrSigner()
        signer.register(1)
        signature = signer.sign(1, b"msg")
        assert not signer.verify(99, b"msg", signature)

    def test_signature_size_65_bytes(self):
        signer = SchnorrSigner()
        signer.register(1)
        assert len(signer.sign(1, b"msg").data) == 65

    def test_different_messages_different_signatures(self):
        signer = SchnorrSigner()
        signer.register(1)
        assert signer.sign(1, b"a").data != signer.sign(1, b"b").data

    def test_malformed_signature_data(self):
        from repro.crypto.signatures import Signature

        signer = SchnorrSigner()
        signer.register(1)
        junk = Signature(scheme=signer.scheme, signer_id=1, data=b"\x00" * 65)
        assert not signer.verify(1, b"msg", junk)


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
