"""Microbenchmarks: signature schemes and the verifiable PRNG.

The paper's signatures are "lightweight (100 bits while state update
messages are 700 bits on average)".  This bench quantifies both schemes'
throughput and the size overhead per message class.
"""

from repro.core import WatchmenConfig
from repro.core.config import HEADER_BITS, STATE_UPDATE_BITS
from repro.core.messages import StateUpdate
from repro.core.wire import encode_signable
from repro.crypto import HmacSigner, SchnorrSigner, VerifiablePrng
from repro.game.avatar import AvatarSnapshot
from repro.game.vector import Vec3

from conftest import publish

MESSAGE = b"state update: frame 42, position (1,2,3), health 100"


def test_hmac_sign_verify_throughput(benchmark):
    signer = HmacSigner()
    signer.register(1)

    def op():
        signature = signer.sign(1, MESSAGE)
        assert signer.verify(1, MESSAGE, signature)

    benchmark(op)


def test_schnorr_sign_throughput(benchmark):
    signer = SchnorrSigner()
    signer.register(1)
    benchmark(lambda: signer.sign(1, MESSAGE))


def test_schnorr_verify_throughput(benchmark):
    signer = SchnorrSigner()
    signer.register(1)
    signature = signer.sign(1, MESSAGE)
    benchmark(lambda: signer.verify(1, MESSAGE, signature))


def test_prng_draw_throughput(benchmark):
    prng = VerifiablePrng(b"session", 3)
    benchmark(lambda: prng.next_below(47))


def test_signature_size_overhead(benchmark, results_dir):
    config = WatchmenConfig()
    snapshot = AvatarSnapshot(
        player_id=1, frame=0, position=Vec3(1, 2, 3), velocity=Vec3(),
        yaw=0.0, health=100, armor=0, weapon="machinegun", ammo=10,
        alive=True,
    )
    update = StateUpdate(1, 0, 1, snapshot)
    signer = HmacSigner(signature_bits=config.signature_bits)
    signature = benchmark(lambda: signer.sign(1, encode_signable(update)))
    # the paper's arithmetic: header + ~700-bit update, plus the signature
    plain_bits = HEADER_BITS + STATE_UPDATE_BITS
    signed_bits = plain_bits + config.signature_bits
    overhead = (signed_bits - plain_bits) / plain_bits
    body = (
        f"state update: {plain_bits} bits unsigned, {signed_bits} bits "
        f"signed — overhead {overhead:.1%}\n"
        f"(paper: 100-bit signatures on ~700-bit updates ≈ 14% overhead)"
    )
    publish(
        results_dir,
        "crypto_overhead",
        "Signature size overhead",
        body,
        params={"signature_bits": config.signature_bits},
        metrics={
            "state_update_bits_unsigned": plain_bits,
            "state_update_bits_signed": signed_bits,
            "signature_overhead_fraction": overhead,
        },
    )
    assert len(signature.data) * 8 >= config.signature_bits
    assert overhead < 0.2
