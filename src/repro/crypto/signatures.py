"""Message signatures: truncated HMAC against the lobby's key registry.

"To prevent proxies from tampering with the messages they forward ...
Watchmen uses lightweight (i.e., 100 bits while state update messages are
700 bits on average) digital signatures, and each player verifies the
digital signature of the messages it receives.  This also prevents
replaying and spoofing."

:class:`HmacSigner` is a keyed MAC truncated to ``signature_bits`` (default
``SIGNATURE_BITS``, the paper's figure) against a trusted :class:`HmacKeyRegistry`, which
stands in for the PKI the game lobby would provide.  It rejects tampered
payloads, wrong-sender spoofing, and (together with the sequence numbers
carried by the protocol layer) replays.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from repro.core.config import SIGNATURE_BITS

__all__ = [
    "Signature",
    "SigningError",
    "HmacKeyRegistry",
    "HmacSigner",
]


class SigningError(ValueError):
    """Raised for malformed keys or signing misuse."""


@dataclass(frozen=True, slots=True)
class Signature:
    """A detached signature."""

    scheme: str
    signer_id: int
    data: bytes


class HmacKeyRegistry:
    """Derives and stores per-player MAC keys (the simulated lobby PKI)."""

    master_seed = b"watchmen-registry"

    def __init__(self) -> None:
        self._keys: dict[int, bytes] = {}

    def key_for(self, player_id: int) -> bytes:
        key = self._keys.get(player_id)
        if key is None:
            key = hashlib.sha256(
                self.master_seed + player_id.to_bytes(8, "big")
            ).digest()
            self._keys[player_id] = key
        return key


#: RFC 2104's pads, as byte translation tables (``hmac``'s own idiom)
_INNER_PAD = bytes(byte ^ 0x36 for byte in range(256))
_OUTER_PAD = bytes(byte ^ 0x5C for byte in range(256))


def _keyed_sha256(key: bytes) -> tuple[hashlib._Hash, hashlib._Hash]:
    """HMAC-SHA256's two hash states after the key block (RFC 2104): the
    key, hashed first if longer than SHA-256's 64-byte block, zero-padded
    to it and XORed with each pad."""
    if len(key) > 64:
        key = hashlib.sha256(key).digest()
    key = key.ljust(64, b"\0")
    return (
        hashlib.sha256(key.translate(_INNER_PAD)),
        hashlib.sha256(key.translate(_OUTER_PAD)),
    )


class HmacSigner:
    """Truncated HMAC-SHA256 'signatures' (default 100 bits, the paper's size)."""

    scheme = "hmac-sha256"

    def __init__(self, signature_bits: int = SIGNATURE_BITS) -> None:
        if signature_bits < 32 or signature_bits > 256:
            raise SigningError("signature_bits must be within [32, 256]")
        self.registry = HmacKeyRegistry()
        self.signature_bits = signature_bits
        self._size_bytes = (signature_bits + 7) // 8
        #: player -> the HMAC-SHA256 inner and outer hash states with that
        #: player's padded key already absorbed.  Each MAC runs on copies,
        #: so the two key-pad blocks are hashed once per player, not once
        #: per message.  Key material only: no message, no MAC, no outcome.
        self._keyed: dict[int, tuple[hashlib._Hash, hashlib._Hash]] = {}

    def register(self, player_id: int) -> None:
        """Derive the player's key now (it is derived on demand otherwise)."""
        self.registry.key_for(player_id)

    def _mac(self, player_id: int, message: bytes) -> bytes:
        """``hmac.digest(key, message, "sha256")``, truncated."""
        keyed = self._keyed.get(player_id)
        if keyed is None:
            keyed = self._keyed[player_id] = _keyed_sha256(
                self.registry.key_for(player_id)
            )
        inner = keyed[0].copy()
        inner.update(message)
        outer = keyed[1].copy()
        outer.update(inner.digest())
        return outer.digest()[: self._size_bytes]

    def sign(self, player_id: int, message: bytes) -> Signature:
        return Signature(
            scheme=self.scheme,
            signer_id=player_id,
            data=self._mac(player_id, message),
        )

    # repro-taint: sanitizer
    def verify(self, player_id: int, message: bytes, signature: Signature) -> bool:
        if signature.scheme != self.scheme or signature.signer_id != player_id:
            return False
        return hmac.compare_digest(self._mac(player_id, message), signature.data)
