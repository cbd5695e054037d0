"""Signature size overhead: the paper's bit arithmetic.

The paper's signatures are "lightweight (100 bits while state update
messages are 700 bits on average)".  This bench publishes that size
overhead per signed state update; what signing costs in time is
perfbench's ``crypto.signatures.self_s``.
"""

from repro.core import WatchmenConfig
from repro.core.config import HEADER_BITS, STATE_UPDATE_BITS
from repro.core.messages import StateUpdate
from repro.core.wire import encode_signable
from repro.crypto import HmacSigner
from repro.game.avatar import AvatarSnapshot
from repro.game.vector import Vec3

from conftest import publish


def test_signature_size_overhead(results_dir):
    config = WatchmenConfig()
    snapshot = AvatarSnapshot(
        player_id=1, frame=0, position=Vec3(1, 2, 3), velocity=Vec3(),
        yaw=0.0, health=100, armor=0, weapon="machinegun", ammo=10,
        alive=True,
    )
    update = StateUpdate(1, 0, 1, snapshot)
    signer = HmacSigner(signature_bits=config.signature_bits)
    signature = signer.sign(1, encode_signable(update))
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
